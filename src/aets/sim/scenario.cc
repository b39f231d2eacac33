#include "aets/sim/scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "aets/catalog/shard_map.h"
#include "aets/common/macros.h"
#include "aets/common/rng.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/replayer_base.h"
#include "aets/replay/sharded_backup.h"
#include "aets/replication/epoch_source.h"
#include "aets/replication/log_shipper.h"
#include "aets/sim/reference_model.h"
#include "aets/storage/gc_daemon.h"

namespace aets {
namespace sim {

namespace {

/// The recorded log stream plus the catalog it was recorded against (the
/// replayer under test is built on the same catalog), and the per-shard
/// sub-epoch streams the backup replays (index-aligned with `epochs`: entry i
/// of every stream carries the same epoch id).
struct RecordedStream {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<ShardMap> shard_map;
  std::vector<ShippedEpoch> epochs;  // the unsharded (reference) stream
  std::vector<std::vector<ShippedEpoch>> shard_epochs;  // one per shard
};

/// Drives the scenario's transactions and epoch boundaries through a fresh
/// PrimaryDb + LogShipper split by `map`, and returns what each lane shipped
/// (one stream per shard). Deterministic: a fresh LogicalClock assigns
/// commit timestamps 1, 2, 3, ... in plan order, write values are a pure
/// function of the write's global sequence number, and epoch boundaries sit
/// exactly where the plan says (FlushEpoch/ShipHeartbeat, not size or time
/// triggers).
std::vector<std::vector<ShippedEpoch>> RecordLanes(const ScenarioSpec& spec,
                                                   const Catalog* catalog,
                                                   const ShardMap& map) {
  LogicalClock clock;
  PrimaryDb db(catalog, &clock);
  // Epoch size far above any plan so only FlushEpoch seals; retention wide
  // enough that nothing is ever evicted.
  LogShipper shipper(/*epoch_size=*/1u << 20,
                     /*retention_capacity=*/2 * spec.epochs.size() + 8);
  shipper.SetShardMap(&map);
  const size_t lanes = static_cast<size_t>(map.num_shards());
  std::vector<std::unique_ptr<EpochChannel>> recorders;
  for (size_t s = 0; s < lanes; ++s) {
    recorders.push_back(std::make_unique<EpochChannel>(/*capacity=*/0));
    shipper.AttachShardChannel(static_cast<int>(s), recorders.back().get());
  }
  db.SetCommitSink(
      [&shipper](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  int64_t seq = 0;
  for (const EpochPlan& ep : spec.epochs) {
    for (const TxnPlan& tp : ep.txns) {
      if (tp.writes.empty()) continue;  // PrimaryDb rejects empty txns
      PrimaryTxn txn = db.Begin();
      for (const WritePlan& w : tp.writes) {
        ++seq;
        switch (w.kind) {
          case WritePlan::kInsert: {
            std::string sval = "v";
            sval += std::to_string(seq);
            txn.Insert(w.table, w.key,
                       {{0, Value(seq)}, {1, Value(std::move(sval))}});
            break;
          }
          case WritePlan::kUpdate:
            txn.Update(w.table, w.key, {{0, Value(seq * 1000)}});
            break;
          case WritePlan::kDelete:
            txn.Delete(w.table, w.key);
            break;
        }
      }
      AETS_CHECK(db.Commit(std::move(txn)).ok());
    }
    shipper.FlushEpoch();
    if (ep.heartbeat_after) shipper.ShipHeartbeat(db.AcquireHeartbeatTs());
  }
  shipper.Finish();

  std::vector<std::vector<ShippedEpoch>> streams(lanes);
  for (size_t s = 0; s < lanes; ++s) {
    while (auto epoch = recorders[s]->TryReceive()) {
      streams[s].push_back(std::move(*epoch));
    }
  }
  return streams;
}

/// Executes the scenario's workload on a real PrimaryDb and captures the
/// shipped epoch stream. Re-recording a shrunk spec yields a stream whose
/// remaining transactions are byte-identical in content.
///
/// Records the spec.shard_count lanes the backup replays, plus the
/// unsharded reference stream the ground-truth model consumes. A one-lane
/// shipper ships exactly the unsharded stream, so N = 1 records once and
/// reuses its lane; N > 1 records a second, single-lane pass. Determinism
/// makes the two passes agree on every commit timestamp, so the backup is
/// checked against exactly the history the reference stream describes.
RecordedStream RecordScenario(const ScenarioSpec& spec) {
  RecordedStream out;
  out.catalog = std::make_unique<Catalog>();
  for (size_t t = 0; t < spec.num_tables; ++t) {
    std::string table_name = "t";
    table_name += std::to_string(t);
    AETS_CHECK(out.catalog
                   ->RegisterTable(table_name,
                                   Schema::Of({{"a", ColumnType::kInt64},
                                               {"b", ColumnType::kString}}))
                   .ok());
  }
  out.shard_map = std::make_unique<ShardMap>(
      ShardMap::Hash(spec.num_tables, spec.shard_count));
  out.shard_epochs = RecordLanes(spec, out.catalog.get(), *out.shard_map);
  out.epochs = spec.shard_count == 1
                   ? out.shard_epochs.front()
                   : std::move(RecordLanes(spec, out.catalog.get(),
                                           ShardMap::Hash(spec.num_tables, 1))
                                   .front());
  for (const auto& stream : out.shard_epochs) {
    // Every lane carries the full epoch id sequence (synthetic heartbeats
    // fill untouched shards), so the streams must be index-aligned.
    AETS_CHECK_MSG(stream.size() == out.epochs.size(),
                   "sharded record out of step with the reference stream");
  }
  return out;
}

/// EpochSource over the recorded stream: the simulation's stand-in for the
/// shipper's retention buffer. Never evicts, so any loss the fault channel
/// inflicts is recoverable and replayer errors always mean a real bug.
class RecordedSource : public EpochSource {
 public:
  explicit RecordedSource(const std::vector<ShippedEpoch>* epochs)
      : epochs_(epochs) {}

  std::optional<ShippedEpoch> FetchEpoch(EpochId id) override {
    if (id >= epochs_->size()) return std::nullopt;
    return (*epochs_)[id];
  }
  EpochId NextEpochId() const override { return epochs_->size(); }

 private:
  const std::vector<ShippedEpoch>* epochs_;
};

void ReportShardErrors(ShardedBackup* backup, ViolationLog* log) {
  for (int s = 0; s < backup->num_shards(); ++s) {
    Status st = backup->shard(s)->error();
    if (!st.ok()) {
      log->Report(kInvariantReplayerError,
                  backup->shard(s)->name() + ": " + st.ToString());
    }
  }
}

std::vector<TableId> RandomTableSet(Rng* rng, size_t num_tables) {
  int64_t max_pick = std::min<int64_t>(3, static_cast<int64_t>(num_tables));
  int64_t k = rng->UniformInt(1, max_pick);
  std::vector<TableId> tables;
  tables.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    tables.push_back(static_cast<TableId>(
        rng->UniformInt(0, static_cast<int64_t>(num_tables) - 1)));
  }
  return tables;
}

/// Final-state verification shared by both modes: convergence plus a sweep
/// of snapshot-exactness probes over the commit-timestamp history.
void VerifyFinalState(const ReferenceModel& model, ConsistencyOracle* oracle) {
  oracle->ObserveMonotonicity();
  oracle->CheckConverged();
  const std::vector<Timestamp>& cts = model.CommitTimestamps();
  size_t stride = cts.size() > 64 ? cts.size() / 64 + 1 : 1;
  for (size_t i = 0; i < cts.size(); i += stride) {
    for (TableId t = 0; t < model.num_tables(); ++t) {
      oracle->CheckTableSnapshot(t, cts[i]);
    }
  }
  for (const TxnFootprint& fp : model.Footprints()) {
    oracle->CheckTxnAtomicity(fp);
  }
}

/// Builds the N shard replayers (factory called in shard order) behind the
/// ShardedBackup facade, wiring channel s to shard s. One shard is the
/// single-backup case: the facade over it is transparent.
std::unique_ptr<ShardedBackup> BuildBackup(
    const RecordedStream& stream, const ReplayerFactory& factory,
    const std::vector<EpochChannel*>& channels) {
  std::vector<std::unique_ptr<Replayer>> shards;
  shards.reserve(channels.size());
  for (EpochChannel* channel : channels) {
    shards.push_back(factory(stream.catalog.get(), channel));
  }
  return std::make_unique<ShardedBackup>(stream.shard_map.get(),
                                         std::move(shards));
}

/// Lockstep mode: ship epoch i's sub-epoch to every shard, wait until every
/// shard consumed its sub-epoch (via the data/heartbeat counters — some
/// shards see data, some synthetic heartbeats; next_expected_epoch advances
/// *before* ProcessEpoch runs, so it cannot serve as a consumption barrier),
/// then run the oracle through the facade. This is the deterministic mode:
/// every check sees exactly the same state on every run of the same spec.
/// The between-epoch window is where a watermark published ahead of its
/// data, or a coordinator promising more than the slowest shard replayed,
/// is observable. Returns the oracle's column comparisons.
uint64_t RunLockstep(const ScenarioSpec& spec, const RecordedStream& stream,
                     const ReferenceModel& model,
                     const ReplayerFactory& factory, ViolationLog* log) {
  const size_t n = static_cast<size_t>(spec.shard_count);
  std::vector<std::unique_ptr<EpochChannel>> channels;
  std::vector<EpochChannel*> chans;
  for (size_t s = 0; s < n; ++s) {
    channels.push_back(std::make_unique<EpochChannel>(/*capacity=*/0));
    chans.push_back(channels.back().get());
  }
  std::unique_ptr<ShardedBackup> backup = BuildBackup(stream, factory, chans);
  ConsistencyOracle oracle(&model, backup.get(), log);
  AETS_CHECK(backup->Start().ok());

  Rng probe_rng(spec.seed ^ 0x5DEECE66Dull);
  std::vector<uint64_t> data_sent(n, 0);
  std::vector<uint64_t> hb_sent(n, 0);
  bool stalled = false;
  for (size_t i = 0; i < stream.epochs.size() && !stalled; ++i) {
    for (size_t s = 0; s < n; ++s) {
      const ShippedEpoch& sub = stream.shard_epochs[s][i];
      if (sub.is_heartbeat()) {
        ++hb_sent[s];
      } else {
        ++data_sent[s];
      }
      AETS_CHECK(chans[s]->Send(sub));
    }
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (size_t s = 0; s < n && !stalled; ++s) {
      const ReplayStats& st = backup->shard(static_cast<int>(s))->stats();
      while (st.epochs.load(std::memory_order_acquire) < data_sent[s] ||
             st.heartbeats.load(std::memory_order_acquire) < hb_sent[s]) {
        if (!backup->error().ok() ||
            std::chrono::steady_clock::now() > deadline) {
          stalled = true;
          break;
        }
        std::this_thread::yield();
      }
    }
    if (stalled) {
      log->Report(kInvariantReplayerError,
                  backup->name() + ": epoch " +
                      std::to_string(stream.epochs[i].epoch_id) +
                      " was never consumed on some shard (stall or latched "
                      "error)");
      break;
    }
    oracle.ObserveMonotonicity();
    oracle.CheckWatermarks();
    for (const TxnFootprint& fp : model.Footprints()) {
      if (fp.epoch_id == stream.epochs[i].epoch_id) {
        oracle.CheckTxnAtomicity(fp);
      }
    }
    const std::vector<Timestamp>& cts = model.CommitTimestamps();
    if (!cts.empty()) {
      for (int p = 0; p < 2; ++p) {
        Timestamp qts = cts[static_cast<size_t>(probe_rng.UniformInt(
            0, static_cast<int64_t>(cts.size()) - 1))];
        oracle.CheckVisibleProbe(RandomTableSet(&probe_rng, spec.num_tables),
                                 qts);
      }
      // Pinned cross-shard snapshot: everything at or below the handle's
      // timestamp must read exactly on every table, whichever shard owns it.
      SnapshotHandle snap = backup->coordinator().AcquireSnapshot();
      if (snap.ts() != kInvalidTimestamp) {
        Timestamp qts = std::min(snap.ts(), model.MaxVisibleTs());
        for (TableId t = 0; t < model.num_tables(); ++t) {
          oracle.CheckTableSnapshot(t, qts);
        }
      }
    }
  }
  for (auto& channel : channels) channel->Close();
  backup->Stop();
  ReportShardErrors(backup.get(), log);
  if (!stalled && !!backup->error().ok()) {
    VerifyFinalState(model, &oracle);
  }
  return oracle.column_comparisons();
}

/// Concurrent mode: one fault-injecting link per shard (each lane gets its
/// own seeded fault schedule; shard 0 draws the scenario's own), per-shard
/// NACK sources, and prober threads pinning cross-shard snapshots while
/// replay and (optionally) per-shard GC race underneath. GC prunes against
/// the coordinator's GcHorizon — the global safe frontier min the oldest
/// pinned snapshot — never a single shard's own watermark, and its pass
/// hooks feed the oracle's GC horizon. Checks are sound under the races;
/// the fault schedule and all probe draws derive from the scenario seed.
/// Returns the oracle's column comparisons.
uint64_t RunConcurrent(const ScenarioSpec& spec, const RecordedStream& stream,
                       const ReferenceModel& model,
                       const ReplayerFactory& factory, ViolationLog* log) {
  const size_t n = static_cast<size_t>(spec.shard_count);
  std::vector<std::unique_ptr<FaultInjectingChannel>> channels;
  std::vector<EpochChannel*> chans;
  for (size_t s = 0; s < n; ++s) {
    FaultProfile faults = spec.faults;
    faults.seed = spec.faults.seed + 0x9E3779B97F4A7C15ull * s;
    channels.push_back(
        std::make_unique<FaultInjectingChannel>(faults, /*capacity=*/4096));
    chans.push_back(channels.back().get());
  }
  std::unique_ptr<ShardedBackup> backup = BuildBackup(stream, factory, chans);
  std::vector<std::unique_ptr<RecordedSource>> sources;
  for (size_t s = 0; s < n; ++s) {
    sources.push_back(std::make_unique<RecordedSource>(&stream.shard_epochs[s]));
    backup->shard(static_cast<int>(s))->SetEpochSource(sources.back().get());
    if (auto* base = dynamic_cast<ReplayerBase*>(
            backup->shard(static_cast<int>(s)))) {
      ReplayRecoveryOptions fast;
      fast.max_retries = 16;
      fast.max_pending = 4096;
      base->SetRecoveryOptions(fast);
    }
  }
  ConsistencyOracle oracle(&model, backup.get(), log);

  std::vector<std::unique_ptr<GcDaemon>> gcs;
  if (spec.with_gc) {
    GlobalSnapshotCoordinator* coordinator = &backup->coordinator();
    for (size_t s = 0; s < n; ++s) {
      auto gc = std::make_unique<GcDaemon>(
          backup->shard(static_cast<int>(s))->store(),
          [coordinator] { return coordinator->GcHorizon(); },
          spec.gc_retention, /*interval_us=*/500);
      gc->SetPrePassHook(
          [&oracle](Timestamp horizon) { oracle.RaiseGcFloor(horizon); });
      gc->SetPostPassHook([&oracle](Timestamp horizon, size_t /*reclaimed*/) {
        oracle.CheckGcSafety(horizon);
      });
      gcs.push_back(std::move(gc));
    }
  }

  AETS_CHECK(backup->Start().ok());
  for (auto& gc : gcs) gc->Start();

  std::atomic<bool> done{false};
  std::vector<std::thread> probers;
  for (int p = 0; p < spec.probe_threads; ++p) {
    probers.emplace_back([&, p] {
      Rng rng(spec.seed * 1315423911ull + static_cast<uint64_t>(p) + 1);
      const std::vector<Timestamp>& cts = model.CommitTimestamps();
      const std::vector<TxnFootprint>& fps = model.Footprints();
      while (!done.load(std::memory_order_acquire)) {
        oracle.ObserveMonotonicity();
        if (!cts.empty()) {
          Timestamp qts = cts[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(cts.size()) - 1))];
          oracle.CheckVisibleProbe(RandomTableSet(&rng, spec.num_tables), qts);
        }
        if (!fps.empty()) {
          oracle.CheckTxnAtomicity(fps[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(fps.size()) - 1))]);
        }
        // Pin an exact cross-shard view and read a random table set at the
        // pinned timestamp while replay and GC race underneath — the pin
        // must keep every version the snapshot can see alive.
        SnapshotHandle snap = backup->coordinator().AcquireSnapshot();
        if (snap.ts() != kInvalidTimestamp &&
            model.MaxVisibleTs() != kInvalidTimestamp) {
          Timestamp qts = std::min(snap.ts(), model.MaxVisibleTs());
          for (TableId t : RandomTableSet(&rng, spec.num_tables)) {
            oracle.CheckTableSnapshot(t, qts);
          }
        }
        std::this_thread::yield();
      }
    });
  }

  for (size_t i = 0; i < stream.epochs.size(); ++i) {
    for (size_t s = 0; s < n; ++s) {
      chans[s]->Send(stream.shard_epochs[s][i]);  // faults may drop; NACK recovers
    }
  }
  for (auto& channel : channels) channel->Close();
  backup->Stop();
  for (auto& gc : gcs) gc->Stop();
  done.store(true, std::memory_order_release);
  for (std::thread& t : probers) t.join();

  ReportShardErrors(backup.get(), log);
  if (!!backup->error().ok()) {
    VerifyFinalState(model, &oracle);
  }
  return oracle.column_comparisons();
}

/// Drops no-op structure: empty transactions (PrimaryDb rejects them) and
/// epochs that ship nothing at all.
ScenarioSpec Normalize(ScenarioSpec spec) {
  for (EpochPlan& ep : spec.epochs) {
    ep.txns.erase(std::remove_if(ep.txns.begin(), ep.txns.end(),
                                 [](const TxnPlan& t) {
                                   return t.writes.empty();
                                 }),
                  ep.txns.end());
  }
  spec.epochs.erase(std::remove_if(spec.epochs.begin(), spec.epochs.end(),
                                   [](const EpochPlan& e) {
                                     return e.txns.empty() &&
                                            !e.heartbeat_after;
                                   }),
                    spec.epochs.end());
  return spec;
}

}  // namespace

ScenarioSpec GenerateScenario(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  Rng rng(seed ^ 0xA24BAED4963EE407ull);
  spec.num_tables = static_cast<size_t>(2 + rng.UniformInt(0, 3));
  int num_epochs = static_cast<int>(3 + rng.UniformInt(0, 5));
  bool any_txn = false;
  for (int e = 0; e < num_epochs; ++e) {
    EpochPlan ep;
    int num_txns = static_cast<int>(rng.UniformInt(0, 4));
    for (int t = 0; t < num_txns; ++t) {
      TxnPlan tp;
      int num_writes = static_cast<int>(1 + rng.UniformInt(0, 3));
      for (int w = 0; w < num_writes; ++w) {
        WritePlan wp;
        int64_t kind = rng.UniformInt(0, 9);
        wp.kind = kind < 5   ? WritePlan::kInsert
                  : kind < 9 ? WritePlan::kUpdate
                             : WritePlan::kDelete;
        wp.table = static_cast<TableId>(
            rng.UniformInt(0, static_cast<int64_t>(spec.num_tables) - 1));
        wp.key = rng.UniformInt(0, 19);
        tp.writes.push_back(wp);
      }
      ep.txns.push_back(std::move(tp));
      any_txn = true;
    }
    ep.heartbeat_after = rng.Bernoulli(0.3);
    spec.epochs.push_back(std::move(ep));
  }
  if (!any_txn) {
    // Degenerate draw: force one insert so the scenario exercises data flow.
    TxnPlan tp;
    tp.writes.push_back(WritePlan{WritePlan::kInsert, 0, 1});
    spec.epochs.front().txns.push_back(std::move(tp));
  }
  // Fault plan (used when the caller flips mode to kConcurrent).
  spec.faults.drop = rng.UniformDouble() * 0.06;
  spec.faults.duplicate = rng.UniformDouble() * 0.06;
  spec.faults.reorder = rng.UniformDouble() * 0.06;
  spec.faults.corrupt = rng.UniformDouble() * 0.02;
  spec.faults.seed = seed * 0x9E3779B97F4A7C15ull + 1;
  // Schedule perturbation: GC horizon pressure and probe-thread count.
  spec.with_gc = rng.Bernoulli(0.5);
  spec.gc_retention = static_cast<Timestamp>(4 + rng.UniformInt(0, 12));
  spec.probe_threads = static_cast<int>(1 + rng.UniformInt(0, 2));
  return spec;
}

ScenarioResult RunScenario(const ScenarioSpec& spec,
                           const ReplayerFactory& factory) {
  RecordedStream stream = RecordScenario(spec);
  ReferenceModel model(spec.num_tables);
  for (const ShippedEpoch& epoch : stream.epochs) {
    Status s = model.Apply(epoch);
    AETS_CHECK_MSG(s.ok(), "reference model rejected the recorded stream");
  }
  ViolationLog log;
  ScenarioResult result;
  result.column_comparisons =
      spec.mode == SimMode::kLockstep
          ? RunLockstep(spec, stream, model, factory, &log)
          : RunConcurrent(spec, stream, model, factory, &log);
  result.total_violations = log.total();
  result.first_invariant = log.FirstInvariant();
  result.violations = log.TakeSnapshot();
  return result;
}

ScenarioSpec ShrinkScenario(const ScenarioSpec& spec,
                            const ReplayerFactory& factory) {
  ScenarioResult baseline = RunScenario(spec, factory);
  if (baseline.ok()) return spec;
  const std::string target = baseline.first_invariant;
  auto still_fails = [&factory, &target](const ScenarioSpec& cand) {
    ScenarioResult r = RunScenario(cand, factory);
    return !r.ok() && r.first_invariant == target;
  };

  ScenarioSpec cur = Normalize(spec);
  if (!still_fails(cur)) cur = spec;  // defensive: keep the known-failing spec

  bool progress = true;
  while (progress) {
    progress = false;
    // Pass 1: drop whole epochs.
    for (size_t e = 0; e < cur.epochs.size();) {
      ScenarioSpec cand = cur;
      cand.epochs.erase(cand.epochs.begin() + static_cast<long>(e));
      if (!cand.epochs.empty() && still_fails(cand)) {
        cur = std::move(cand);
        progress = true;
      } else {
        ++e;
      }
    }
    // Pass 2: drop single transactions.
    for (size_t e = 0; e < cur.epochs.size(); ++e) {
      for (size_t t = 0; t < cur.epochs[e].txns.size();) {
        ScenarioSpec cand = cur;
        cand.epochs[e].txns.erase(cand.epochs[e].txns.begin() +
                                  static_cast<long>(t));
        if (still_fails(cand)) {
          cur = std::move(cand);
          progress = true;
        } else {
          ++t;
        }
      }
    }
    // Pass 3: drop single writes (removing a txn's last write removes it).
    for (size_t e = 0; e < cur.epochs.size(); ++e) {
      for (size_t t = 0; t < cur.epochs[e].txns.size(); ++t) {
        for (size_t w = 0; w < cur.epochs[e].txns[t].writes.size();) {
          ScenarioSpec cand = cur;
          auto& writes = cand.epochs[e].txns[t].writes;
          writes.erase(writes.begin() + static_cast<long>(w));
          if (writes.empty()) {
            cand.epochs[e].txns.erase(cand.epochs[e].txns.begin() +
                                      static_cast<long>(t));
          }
          if (still_fails(cand)) {
            cur = std::move(cand);
            progress = true;
            if (cur.epochs[e].txns.size() <= t ||
                cur.epochs[e].txns[t].writes.size() <= w) {
              break;  // the txn itself went away; outer loops rescan
            }
          } else {
            ++w;
          }
        }
      }
    }
    // Pass 4: drop heartbeat markers.
    for (size_t e = 0; e < cur.epochs.size(); ++e) {
      if (!cur.epochs[e].heartbeat_after) continue;
      ScenarioSpec cand = cur;
      cand.epochs[e].heartbeat_after = false;
      if (still_fails(cand)) {
        cur = std::move(cand);
        progress = true;
      }
    }
  }
  return Normalize(cur);
}

std::string DescribeScenario(const ScenarioSpec& spec) {
  std::ostringstream os;
  os << "scenario seed=" << spec.seed << " mode="
     << (spec.mode == SimMode::kLockstep ? "lockstep" : "concurrent")
     << " tables=" << spec.num_tables << " epochs=" << spec.epochs.size();
  if (spec.shard_count > 1) os << " shards=" << spec.shard_count;
  for (size_t e = 0; e < spec.epochs.size(); ++e) {
    os << "\n  epoch " << e << ":";
    for (const TxnPlan& tp : spec.epochs[e].txns) {
      os << " txn{";
      for (size_t w = 0; w < tp.writes.size(); ++w) {
        const WritePlan& wp = tp.writes[w];
        if (w > 0) os << "; ";
        os << (wp.kind == WritePlan::kInsert   ? "I"
               : wp.kind == WritePlan::kUpdate ? "U"
                                               : "D")
           << " t" << wp.table << " k" << wp.key;
      }
      os << "}";
    }
    if (spec.epochs[e].heartbeat_after) os << " +hb";
  }
  return os.str();
}

size_t CountTxns(const ScenarioSpec& spec) {
  size_t n = 0;
  for (const EpochPlan& ep : spec.epochs) n += ep.txns.size();
  return n;
}

size_t CountWrites(const ScenarioSpec& spec) {
  size_t n = 0;
  for (const EpochPlan& ep : spec.epochs) {
    for (const TxnPlan& tp : ep.txns) n += tp.writes.size();
  }
  return n;
}

}  // namespace sim
}  // namespace aets
