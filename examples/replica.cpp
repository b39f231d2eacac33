// Replica driver: one seeded workload, one backup node, and the process-level
// gauntlets built on them (DESIGN.md §10-§12;
// scripts/crash_restart_gauntlet.sh, scripts/endurance_check.sh,
// scripts/net_integration.sh).
//
// Every mode runs the same fully deterministic workload (no wall-clock
// heartbeats — epoch ids and commit timestamps depend only on --seed), and
// every backup is the same node: one AetsReplayer per lane behind a
// ShardedBackup. A single shard is just --shard_count 1, whose lane keeps its
// segments directly in --dir; lane k of N > 1 uses <dir>/shard<k>.
//
//   run        Streams the workload through primary -> LogShipper (durable
//              segment tier attached, small RAM retention so epochs spill)
//              -> in-process backup, pacing itself so a kill -9 lands
//              mid-stream, and writing live checkpoints into each lane's
//              directory between epochs. The crash gauntlet kills this
//              process at a seeded random point.
//
//   digest     The uninterrupted reference: same pipeline run to completion,
//              then one line per data epoch
//                  EPOCH <id> <max_commit_ts> <digest>
//              and a FINAL line. Digests are taken at each epoch's max
//              commit timestamp (valid historically: no GC here).
//
//   recover    Reopens each lane's segment directory after a crash
//              (SegmentStore::Open truncates any torn tail), restarts each
//              lane from the image ChooseRestartPoint picks, and replays the
//              durable tail through the normal main loop via
//              DurableEpochSource. Verifies every lane against the sim
//              oracle's ReferenceModel (exact rows, not just a digest) and
//              prints
//                  RECOVERED next_epoch=<n> last_data=<e> ts=<ts> digest=<d>
//                            fetches=<f> tail=<n> torn=<n> floor=<f>
//              for the gauntlet to match against the reference EPOCH table.
//
//   primary    Serves the workload on a TCP EpochStreamServer (prints
//              LISTENING <port> once bound), paced, with a heartbeat at
//              fixed txn indices. After Finish it prints
//                  FINAL <last_commit_ts> <digest>
//              and lingers serving NACK fetches; its retention buffer covers
//              the whole run, so a backup restarted from empty recovers the
//              entire prefix by NACK.
//
//   backup     The backup node fed over TCP: one EpochStreamClient per lane
//              from --connect, NACKs over TcpEpochSource, snapshot scans on a
//              QueryServer (prints QUERY_LISTENING <port>). When the stream
//              ends cleanly it prints
//                  FINAL <watermark> <digest> epochs=<n> reconnects=<n>
//              (the watermark may sit at the trailing heartbeat, past the
//              last commit — no commits separate them, so digests agree).
//
//   client     Issues snapshot scans against a backup's query port and
//              prints one QUERY line each.
//
//   reference  The primary's workload with no network; prints the same
//              FINAL line. All three FINAL digests must be identical.
//
// With --disk_budget B > 0 the shipper's CheckpointTrigger fires whenever a
// lane's durable log exceeds B bytes; the driver then seals the open epoch,
// quiesces the backup, writes a live checkpoint image, truncates the durable
// log below it (SegmentStore::TruncateBelow), and rotates old images. Budget
// triggers land at deterministic txn indices (bytes appended are a pure
// function of the seed), so run and digest modes checkpoint and truncate at
// identical epochs and the reference EPOCH table — harvested incrementally
// before each truncation — still covers the whole history. Recovery then has
// to bridge the deleted prefix through the checkpoint image, which is the
// case the endurance gauntlet exists to prove.
//
//   $ ./replica run --dir /tmp/aets-seg --seed 11
//   $ ./replica recover --dir /tmp/aets-seg --seed 11
//   $ ./replica primary --listen_port 0 --seed 11
//   $ ./replica backup --connect 127.0.0.1:9xxx --query_port 0
//   $ ./replica client --connect 127.0.0.1:9yyy

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aets/bench/harness.h"
#include "aets/catalog/shard_map.h"
#include "aets/net/epoch_stream.h"
#include "aets/net/query_server.h"
#include "aets/net/tcp_source.h"
#include "aets/obs/metrics.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replay/sharded_backup.h"
#include "aets/replication/durable_source.h"
#include "aets/replication/log_shipper.h"
#include "aets/sim/reference_model.h"
#include "aets/storage/segment_store.h"

using namespace aets;

namespace {

// The settings a script varies; everything else is a per-mode constant.
struct Config {
  std::string mode;
  std::string dir;        // run/digest/recover: segments + checkpoint images
  uint64_t seed = 1;
  int num_txns = 20000;
  int shard_count = 1;    // backup lanes (DESIGN.md §11)
  // Per-lane durable-log budget in bytes (SegmentStoreOptions::
  // disk_budget_bytes). 0 disables truncation entirely.
  uint64_t disk_budget = 0;
  int listen_port = 0;    // primary's epoch-stream port (0 = ephemeral)
  std::string connect;    // host:port (backup: stream port; client: query)
  int query_port = 0;     // backup's query port (0 = ephemeral)
};

constexpr int kTables = 4;
constexpr int kEpochSize = 32;
constexpr int kPaceBatch = 50;     // txns per pacing step (run, primary)
constexpr int kPauseUs = 2000;     // sleep per pacing step
constexpr int kCkptEvery = 3000;   // txns between epoch flushes / checkpoints
constexpr int kHeartbeatEvery = 500;  // primary: fixed indices, so commit
                                      // timestamps stay seed-deterministic
constexpr size_t kSpillRetention = 16;       // run/digest: forces spills
constexpr size_t kNackRetention = 1u << 16;  // primary: covers a from-empty
                                             // backup restart
constexpr size_t kSegmentMaxBytes = 256u << 10;  // small, forces rollovers
constexpr size_t kKeepCkpts = 3;   // images kept per lane directory
constexpr int kLingerMs = 60000;   // primary: serve NACKs after FINAL
constexpr int kStreamWaitMs = 120000;  // backup: bound on waiting for the end
constexpr int kScans = 8;          // client

// ---------------------------------------------------------------------------
// The seeded workload.

// Deterministic splitmix64 — the workload must replay identically in every
// process with the same seed.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

void FillCatalog(Catalog* catalog) {
  for (int t = 0; t < kTables; ++t) {
    AETS_CHECK(catalog
                   ->RegisterTable("t" + std::to_string(t),
                                   Schema::Of({{"count", ColumnType::kInt64},
                                               {"payload", ColumnType::kString}}))
                   .ok());
  }
}

// One deterministic transaction: 1-3 ops over 150 keys per table, with the
// insert/update/delete choice keyed to what is currently live.
void ApplyOneTxn(PrimaryDb* db, Rng* rng, std::vector<std::set<int64_t>>* live,
                 int64_t i) {
  PrimaryTxn txn = db->Begin();
  int ops = 1 + static_cast<int>(rng->Below(3));
  for (int o = 0; o < ops; ++o) {
    TableId t = static_cast<TableId>(rng->Below(kTables));
    int64_t key = static_cast<int64_t>(rng->Below(150));
    uint64_t roll = rng->Below(100);
    auto& alive = (*live)[t];
    if (alive.count(key) == 0) {
      txn.Insert(t, key,
                 {{0, Value(i)}, {1, Value("ins-" + std::to_string(i))}});
      alive.insert(key);
    } else if (roll < 75) {
      txn.Update(t, key,
                 {{0, Value(i)}, {1, Value("upd-" + std::to_string(i))}});
    } else {
      txn.Delete(t, key);
      alive.erase(key);
    }
  }
  if (!db->Commit(std::move(txn)).ok()) {
    std::fprintf(stderr, "commit %lld failed\n", static_cast<long long>(i));
    std::exit(2);
  }
}

// Commits --txns transactions, calling `after(i)` after the i-th; stops early
// when `after` returns false. Pacing only sleeps, so paced and unpaced runs
// emit the identical epoch stream.
void RunWorkload(const Config& cfg, PrimaryDb* db, bool paced,
                 const std::function<bool(int)>& after) {
  Rng rng{cfg.seed};
  std::vector<std::set<int64_t>> live(kTables);
  for (int i = 1; i <= cfg.num_txns; ++i) {
    ApplyOneTxn(db, &rng, &live, i);
    if (paced && i % kPaceBatch == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(kPauseUs));
    }
    if (!after(i)) return;
  }
}

// ---------------------------------------------------------------------------
// The backup node.

// Lane `shard`: an AetsReplayer reading `channel`, named AETS.s<shard> so
// its replay.* counters also export as a per-lane series. The recovery
// budget is sized for a lane fed over TCP, where a reconnect can leave a
// long gap to NACK.
std::unique_ptr<AetsReplayer> NewLane(const Catalog* catalog,
                                      EpochChannel* channel, int shard) {
  AetsOptions options;
  options.name = "AETS.s" + std::to_string(shard);
  options.replay_threads = 2;
  options.commit_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  options.initial_rates = std::vector<double>(kTables, 1.0);
  auto lane = std::make_unique<AetsReplayer>(catalog, channel, options);
  ReplayRecoveryOptions recovery;
  recovery.max_retries = 64;
  recovery.max_pending = 65536;
  lane->SetRecoveryOptions(recovery);
  return lane;
}

// Puts `lanes` (fresh or bootstrapped) behind one ShardedBackup, lane s
// NACKing `sources[s]`, and starts it. nullptr when Start fails.
std::unique_ptr<ShardedBackup> StartBackup(
    const ShardMap* map, std::vector<std::unique_ptr<AetsReplayer>> lanes,
    const std::vector<EpochSource*>& sources) {
  std::vector<std::unique_ptr<Replayer>> shards;
  for (auto& lane : lanes) shards.push_back(std::move(lane));
  auto backup = std::make_unique<ShardedBackup>(map, std::move(shards));
  for (int s = 0; s < backup->num_shards(); ++s) {
    backup->SetShardEpochSource(s, sources[static_cast<size_t>(s)]);
  }
  Status st = backup->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "backup start: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return backup;
}

AetsReplayer* Lane(ShardedBackup* backup, int s) {
  return static_cast<AetsReplayer*>(backup->shard(s));
}

// The first lane's sticky error, or OK.
Status BackupError(ShardedBackup* backup) {
  for (int s = 0; s < backup->num_shards(); ++s) {
    Status st = Lane(backup, s)->error();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Durable modes: run, digest, recover.

std::string LaneDir(const Config& cfg, int s) {
  return cfg.shard_count == 1 ? cfg.dir
                              : cfg.dir + "/shard" + std::to_string(s);
}

bool OpenStores(const Config& cfg,
                std::vector<std::unique_ptr<SegmentStore>>* stores) {
  for (int s = 0; s < cfg.shard_count; ++s) {
    SegmentStoreOptions options;
    options.dir = LaneDir(cfg, s);
    options.segment_max_bytes = kSegmentMaxBytes;
    options.fsync_policy = FsyncPolicy::kSegment;
    options.disk_budget_bytes = cfg.disk_budget;
    auto store_or = SegmentStore::Open(options);
    if (!store_or.ok()) {
      std::fprintf(stderr, "segment store %s: %s\n", options.dir.c_str(),
                   store_or.status().ToString().c_str());
      return false;
    }
    stores->push_back(std::move(*store_or));
  }
  return true;
}

uint64_t CounterValue(const char* name) {
  auto snap = obs::MetricsRegistry::Instance().Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Resident set size in KiB, for the endurance gauntlet's memory check.
long ReadRssKb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::atol(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

int RunMode(const Config& cfg, bool paced) {
  Catalog catalog;
  FillCatalog(&catalog);
  LogicalClock clock;
  PrimaryDb primary(&catalog, &clock);
  const int n = cfg.shard_count;
  ShardMap map = ShardMap::Hash(kTables, n);
  LogShipper shipper(kEpochSize, kSpillRetention);
  shipper.SetShardMap(&map);

  std::vector<std::unique_ptr<SegmentStore>> stores;
  if (!OpenStores(cfg, &stores)) return 2;
  std::vector<std::unique_ptr<EpochChannel>> channels;
  std::vector<std::unique_ptr<AetsReplayer>> lanes;
  std::vector<EpochSource*> sources;
  for (int s = 0; s < n; ++s) {
    shipper.AttachShardSegmentStore(s, stores[s].get());
    channels.push_back(std::make_unique<EpochChannel>());
    shipper.AttachShardChannel(s, channels.back().get());
    lanes.push_back(NewLane(&catalog, channels.back().get(), s));
    sources.push_back(shipper.shard_source(s));
  }
  primary.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  std::unique_ptr<ShardedBackup> backup =
      StartBackup(&map, std::move(lanes), sources);
  if (!backup) return 2;

  // Disk budget: the shipper's trigger marks the over-budget lane; the
  // driver consumes the mark at one deterministic point per txn (below), so
  // paced and unpaced runs checkpoint and truncate at identical epochs. A
  // mark is level-held until consumed, so a slow driver never misses one.
  std::vector<std::atomic<bool>> checkpoint_wanted(static_cast<size_t>(n));
  if (cfg.disk_budget > 0) {
    shipper.SetCheckpointTrigger([&](int shard, EpochId, uint64_t) {
      checkpoint_wanted[static_cast<size_t>(shard)].store(
          true, std::memory_order_release);
    });
  }

  // The epoch table, harvested incrementally: truncation deletes the oldest
  // durable epochs, so the (id, ts) rows digest mode prints are collected
  // BEFORE each truncation and completed after Finish. The digests
  // themselves still come from the fully caught-up backup at the very end
  // (valid at historical timestamps: the replay store runs no GC). An epoch
  // counts as data if any lane carries transactions; its timestamp is the
  // full-epoch max every lane header carries.
  std::vector<std::pair<EpochId, Timestamp>> epoch_table;
  EpochId harvested = 0;
  auto harvest = [&]() {
    EpochId limit = stores[0]->next_epoch();
    for (int s = 1; s < n; ++s) {
      limit = std::min(limit, stores[s]->next_epoch());
    }
    for (EpochId id = harvested; id < limit; ++id) {
      bool has_data = false;
      Timestamp ts = kInvalidTimestamp;
      for (int s = 0; s < n; ++s) {
        auto epoch = stores[s]->Read(id);
        if (!epoch || epoch->is_heartbeat()) continue;
        has_data = true;
        ts = std::max(ts, epoch->max_commit_ts);
      }
      if (has_data) epoch_table.emplace_back(id, ts);
    }
    harvested = std::max(harvested, limit);
  };

  // One lane checkpoint: seal the open epoch, wait for the backup to catch
  // up, image the quiesced lane, truncate its durable log below the image
  // when a budget is set, and rotate old images (PruneCheckpoints keeps the
  // floor image regardless of count). The single-threaded driver guarantees
  // no epoch ships between the watermark check and the image write.
  auto checkpoint = [&](int s, int txns) -> Status {
    shipper.FlushEpoch();
    // Every lane rings the backup's bell on a watermark advance and on its
    // error latch, so this parks until one of the two can have happened.
    backup->bell().WaitUntil([&] {
      return !BackupError(backup.get()).ok() ||
             backup->GlobalVisibleTs() >= primary.last_commit_ts();
    });
    Status st = BackupError(backup.get());
    if (!st.ok()) return st;
    harvest();  // the epochs below a new floor leave the disk now
    AetsReplayer* lane = Lane(backup.get(), s);
    const EpochId floor = lane->next_expected_epoch();
    st = lane->WriteCheckpoint(CheckpointPathFor(LaneDir(cfg, s), floor));
    if (st.ok() && cfg.disk_budget > 0) st = stores[s]->TruncateBelow(floor);
    if (!st.ok()) return st;
    PruneCheckpoints(LaneDir(cfg, s), kKeepCkpts, stores[s]->first_epoch());
    std::printf("%s shard=%d floor=%" PRIu64 " first=%" PRIu64
                " deleted=%" PRIu64 " reclaimed=%" PRIu64 " disk=%" PRIu64
                " rss_kb=%ld txns=%d\n",
                cfg.disk_budget > 0 ? "TRUNC" : "CKPT", s,
                static_cast<uint64_t>(floor),
                static_cast<uint64_t>(stores[s]->first_epoch()),
                stores[s]->segments_deleted(), stores[s]->bytes_reclaimed(),
                stores[s]->disk_bytes(), ReadRssKb(), txns);
    std::fflush(stdout);
    return Status::OK();
  };

  uint64_t max_disk = 0;
  Status failed;
  RunWorkload(cfg, &primary, paced, [&](int i) {
    for (int s = 0; s < n; ++s) {
      max_disk = std::max(max_disk, stores[s]->disk_bytes());
    }
    if (i % kCkptEvery == 0) {
      // Flush in BOTH modes: epoch boundaries are part of the deterministic
      // stream, and the reference digest table must place them exactly where
      // the killed run did.
      shipper.FlushEpoch();
    }
    for (int s = 0; s < n && failed.ok(); ++s) {
      // A budget checkpoint runs in BOTH modes — the trigger fires at a
      // deterministic txn index, so the reference stream must incur the same
      // extra flush. Without a budget only the paced run writes images.
      bool due = cfg.disk_budget > 0
                     ? checkpoint_wanted[static_cast<size_t>(s)].exchange(
                           false, std::memory_order_acq_rel)
                     : paced && i % kCkptEvery == 0;
      if (due) failed = checkpoint(s, i);
    }
    return failed.ok();
  });
  shipper.Finish();
  backup->Stop();
  if (failed.ok()) failed = BackupError(backup.get());
  if (!failed.ok()) {
    std::fprintf(stderr, "run: %s\n", failed.ToString().c_str());
    return 2;
  }

  // The epoch table (digest mode prints it; run mode prints FINAL only,
  // used when the gauntlet's kill misses and the run completes).
  harvest();
  EpochId last_data = 0;
  Timestamp last_ts = kInvalidTimestamp;
  for (const auto& [id, ts] : epoch_table) {
    if (cfg.mode == "digest") {
      std::printf("EPOCH %" PRIu64 " %" PRIu64 " %016" PRIx64 "\n",
                  static_cast<uint64_t>(id), static_cast<uint64_t>(ts),
                  ReplicaDigestAt(backup.get(), &catalog, ts));
    }
    last_data = id;
    last_ts = ts;
  }
  uint64_t truncations = 0;
  uint64_t reclaimed = 0;
  for (int s = 0; s < n; ++s) {
    truncations += stores[s]->truncations();
    reclaimed += stores[s]->bytes_reclaimed();
  }
  std::printf("FINAL %" PRIu64 " %" PRIu64 " %016" PRIx64 " spills=%" PRIu64
              " produced=%" PRIu64 " covered=%" PRIu64 " truncations=%" PRIu64
              " reclaimed=%" PRIu64 " max_disk=%" PRIu64 " budget=%" PRIu64
              "\n",
              static_cast<uint64_t>(last_data),
              static_cast<uint64_t>(last_ts),
              ReplicaDigestAt(backup.get(), &catalog, last_ts),
              shipper.epochs_spilled(), shipper.epochs_produced(),
              shipper.spills_below_floor(), truncations, reclaimed, max_disk,
              cfg.disk_budget);
  std::fflush(stdout);
  return 0;
}

// Restart after a crash: each lane restarts from the image
// ChooseRestartPoint picks (or cold), every lane's durable tail replays
// through its own DurableEpochSource, and each lane is checked row-for-row
// against a per-lane ReferenceModel (a lane's durable log plus its image is
// a complete history of its own tables, so model and lane must agree).
int RecoverMode(const Config& cfg) {
  Catalog catalog;
  FillCatalog(&catalog);
  const int n = cfg.shard_count;
  ShardMap map = ShardMap::Hash(kTables, n);
  std::vector<std::unique_ptr<SegmentStore>> stores;
  if (!OpenStores(cfg, &stores)) return 2;

  // The channel is already closed, so Start() + Stop() drives the normal
  // gap-filling loop: every epoch in [restart point, next_epoch) is fetched
  // from disk and replayed through the regular two-stage loop.
  EpochChannel closed_channel;
  closed_channel.Close();
  std::vector<std::unique_ptr<AetsReplayer>> lanes;
  std::vector<EpochId> boot;
  std::vector<Timestamp> snapshot;
  for (int s = 0; s < n; ++s) {
    std::unique_ptr<AetsReplayer> lane;
    Result<RestartPoint> point = ChooseRestartPoint(
        LaneDir(cfg, s), stores[s]->first_epoch(), stores[s]->next_epoch(),
        [&](const std::string& image) -> Result<EpochId> {
          lane = NewLane(&catalog, &closed_channel, s);
          Status st = lane->Bootstrap(image);
          if (!st.ok()) return st;
          return lane->next_expected_epoch();
        });
    if (!point.ok()) {
      std::fprintf(stderr, "shard %d unrecoverable: %s\n", s,
                   point.status().ToString().c_str());
      return 2;
    }
    for (const std::string& why : point->rejected) {
      std::fprintf(stderr, "shard %d skipped %s\n", s, why.c_str());
    }
    if (point->image.empty()) {
      lane = NewLane(&catalog, &closed_channel, s);
    } else {
      std::printf("BOOTSTRAP shard=%d %s epoch=%" PRIu64 "\n", s,
                  point->image.c_str(),
                  static_cast<uint64_t>(point->next_epoch));
    }
    boot.push_back(point->next_epoch);
    snapshot.push_back(lane->GlobalVisibleTs());
    lanes.push_back(std::move(lane));
  }
  std::vector<std::unique_ptr<DurableEpochSource>> durable;
  std::vector<EpochSource*> sources;
  for (int s = 0; s < n; ++s) {
    durable.push_back(std::make_unique<DurableEpochSource>(stores[s].get()));
    sources.push_back(durable.back().get());
  }
  std::unique_ptr<ShardedBackup> backup =
      StartBackup(&map, std::move(lanes), sources);
  if (!backup) return 2;
  backup->Stop();

  // A kill can land between two lanes' appends of one epoch, leaving their
  // logs at different lengths. The digest is taken at the last data epoch
  // every lane holds: past it, a shorter lane has not replayed its part.
  EpochId common_end = stores[0]->next_epoch();
  for (int s = 1; s < n; ++s) {
    common_end = std::min(common_end, stores[s]->next_epoch());
  }
  EpochId last_data = 0;
  Timestamp last_ts = kInvalidTimestamp;
  EpochId floor = stores[0]->first_epoch();
  uint64_t tail = 0;
  uint64_t torn = 0;
  size_t rows = 0;
  for (int s = 0; s < n; ++s) {
    AetsReplayer* lane = Lane(backup.get(), s);
    if (!lane->error().ok()) {
      std::fprintf(stderr, "shard %d recovery replay error: %s\n", s,
                   lane->error().ToString().c_str());
      return 2;
    }
    // Exactness probe: rebuild the lane's history from its durable log (the
    // model is a second implementation of the storage semantics). When the
    // image covers epochs the log no longer holds, the model is seeded from
    // the lane's store at the snapshot timestamp (still valid after the tail
    // replayed: the MVCC store keeps history and runs no GC here) and
    // replays only the tail — epochs still on disk below the image's
    // coverage are scanned for the last-data bookkeeping but skipped by the
    // model, exactly as recovery itself skipped them.
    sim::ReferenceModel model(kTables);
    if (boot[s] > 0) {
      Status st = model.SeedFromStore(*lane->store(), snapshot[s], boot[s]);
      if (!st.ok()) {
        std::fprintf(stderr, "shard %d model seed: %s\n", s,
                     st.ToString().c_str());
        return 2;
      }
    }
    // The head of the lane's durable history: the image's snapshot, then
    // every replayed header. A lane header carries the FULL epoch's
    // max_commit_ts, so with N > 1 the head may sit past the lane's own
    // last commit; the replayed watermark must land exactly on it.
    Timestamp head = boot[s] > 0 ? snapshot[s] : kInvalidTimestamp;
    for (EpochId id = stores[s]->first_epoch(); id < stores[s]->next_epoch();
         ++id) {
      auto epoch = stores[s]->Read(id);
      if (!epoch) {
        std::fprintf(stderr, "durable epoch %llu unreadable (shard %d)\n",
                     static_cast<unsigned long long>(id), s);
        return 2;
      }
      if (id >= boot[s]) {
        Status st = model.Apply(*epoch);
        if (!st.ok()) {
          std::fprintf(stderr, "shard %d model apply: %s\n", s,
                       st.ToString().c_str());
          return 2;
        }
        head = std::max(head, epoch->max_commit_ts);
      }
      if (!epoch->is_heartbeat() && id < common_end) {
        last_data = std::max(last_data, id);
        last_ts = std::max(last_ts, epoch->max_commit_ts);
      }
    }
    if (lane->GlobalVisibleTs() != head) {
      std::fprintf(stderr, "shard %d watermark %llu != durable history %llu\n",
                   s, static_cast<unsigned long long>(lane->GlobalVisibleTs()),
                   static_cast<unsigned long long>(head));
      return 2;
    }
    // The model only sees the lane's own commits: probe at the lane's own
    // history point — between it and the watermark the lane's tables have
    // no writes by construction.
    if (model.MaxVisibleTs() != kInvalidTimestamp) {
      Status st = model.ExpectStoreExact(*lane->store(), model.MaxVisibleTs());
      if (!st.ok()) {
        std::fprintf(stderr, "shard %d: %s\n", s, st.ToString().c_str());
        return 2;
      }
      rows += lane->store()->VisibleRowCount(model.MaxVisibleTs());
    }
    floor = std::min(floor, stores[s]->first_epoch());
    tail += stores[s]->next_epoch() - boot[s];
    torn += stores[s]->torn_frames_truncated();
  }
  std::printf("ORACLE exact rows=%zu shards=%d\n", rows, n);
  std::printf("RECOVERED next_epoch=%" PRIu64 " last_data=%" PRIu64
              " ts=%" PRIu64 " digest=%016" PRIx64 " fetches=%" PRIu64
              " tail=%" PRIu64 " torn=%" PRIu64 " floor=%" PRIu64 "\n",
              static_cast<uint64_t>(stores[0]->next_epoch()),
              static_cast<uint64_t>(last_data),
              static_cast<uint64_t>(last_ts),
              ReplicaDigestAt(backup.get(), &catalog, last_ts),
              CounterValue("segment.fetches_from_disk"), tail, torn,
              static_cast<uint64_t>(floor));
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// Network modes: primary, reference, backup, client.

bool SplitHostPort(const std::string& s, std::string* host, uint16_t* port) {
  size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon + 1 >= s.size()) return false;
  *host = s.substr(0, colon);
  *port = static_cast<uint16_t>(std::atoi(s.c_str() + colon + 1));
  return *port != 0;
}

int PrimaryMode(const Config& cfg, bool networked) {
  Catalog catalog;
  FillCatalog(&catalog);
  LogicalClock clock;
  PrimaryDb primary(&catalog, &clock);
  ShardMap map = ShardMap::Hash(kTables, cfg.shard_count);
  LogShipper shipper(kEpochSize, kNackRetention);
  shipper.SetShardMap(&map);
  primary.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  net::EpochStreamServer server(&shipper);
  if (networked) {
    Status s = server.Start(static_cast<uint16_t>(cfg.listen_port));
    if (!s.ok()) {
      std::fprintf(stderr, "listen: %s\n", s.ToString().c_str());
      return 2;
    }
    std::printf("LISTENING %u\n", server.port());
    std::fflush(stdout);
  }

  // The primary (paced, networked) and the reference (unpaced, no network)
  // emit the exact same epoch stream.
  RunWorkload(cfg, &primary, networked, [&](int i) {
    if (i % kHeartbeatEvery == 0) {
      shipper.ShipHeartbeat(primary.AcquireHeartbeatTs());
    }
    return true;
  });
  // The trailing heartbeat carries the watermark past the last commit, so
  // the backup's final snapshot covers the whole history.
  shipper.ShipHeartbeat(primary.AcquireHeartbeatTs());
  shipper.Finish();
  Timestamp final_ts = primary.last_commit_ts();
  std::printf("FINAL %" PRIu64 " %016" PRIx64 "\n",
              static_cast<uint64_t>(final_ts),
              primary.store().DigestAt(final_ts));
  std::fflush(stdout);

  if (networked) {
    // The stream is finished but a (possibly restarted) backup may still be
    // draining the gap by NACK against the retention buffer — keep the
    // control plane alive until the script tears us down.
    std::this_thread::sleep_for(std::chrono::milliseconds(kLingerMs));
    server.Stop();
  }
  return 0;
}

int BackupMode(const Config& cfg) {
  std::string host;
  uint16_t port = 0;
  if (!SplitHostPort(cfg.connect, &host, &port)) {
    std::fprintf(stderr, "--connect host:port required\n");
    return 2;
  }
  Catalog catalog;
  FillCatalog(&catalog);
  const int n = cfg.shard_count;
  ShardMap map = ShardMap::Hash(kTables, n);

  // Per lane: a subscriber feeding the lane's channel and a control
  // connection answering its NACKs. A restarted backup starts empty and
  // recovers the whole prefix by NACK.
  net::EpochStreamClientOptions client_options;
  client_options.max_reconnects = 200;
  std::vector<std::unique_ptr<EpochChannel>> sinks;
  std::vector<std::unique_ptr<net::EpochStreamClient>> clients;
  std::vector<std::unique_ptr<net::TcpEpochSource>> tcp_sources;
  std::vector<std::unique_ptr<AetsReplayer>> lanes;
  std::vector<EpochSource*> sources;
  for (int s = 0; s < n; ++s) {
    const auto shard = static_cast<uint32_t>(s);
    sinks.push_back(std::make_unique<EpochChannel>(4096));
    clients.push_back(std::make_unique<net::EpochStreamClient>(
        host, port, shard, sinks.back().get(), client_options));
    tcp_sources.push_back(
        std::make_unique<net::TcpEpochSource>(host, port, shard));
    Status st = clients.back()->Start();
    if (st.ok()) st = tcp_sources.back()->Connect();
    if (!st.ok()) {
      std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
      return 2;
    }
    lanes.push_back(NewLane(&catalog, sinks.back().get(), s));
    sources.push_back(tcp_sources.back().get());
  }
  std::unique_ptr<ShardedBackup> backup =
      StartBackup(&map, std::move(lanes), sources);
  if (!backup) return 2;

  net::QueryServer queries(backup.get(), &backup->coordinator());
  Status s = queries.Start(static_cast<uint16_t>(cfg.query_port));
  if (!s.ok()) {
    std::fprintf(stderr, "query listen: %s\n", s.ToString().c_str());
    return 2;
  }
  std::printf("QUERY_LISTENING %u\n", queries.port());
  std::fflush(stdout);

  // A subscriber sees kStreamEnd only when the primary's shipper finished;
  // everything before that (resets, timeouts, a primary that is still
  // starting) is absorbed by reconnect + NACK.
  auto all_ended = [&] {
    for (const auto& client : clients) {
      if (!client->clean_end()) return false;
    }
    return true;
  };
  int64_t deadline = MonotonicMicros() + int64_t{kStreamWaitMs} * 1000;
  while (!all_ended() && MonotonicMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  bool clean = all_ended();
  backup->Stop();
  for (auto& client : clients) client->Stop();
  queries.Stop();
  if (!clean) {
    std::fprintf(stderr, "stream did not end within %d ms\n", kStreamWaitMs);
    return 2;
  }
  Status error = BackupError(backup.get());
  if (!error.ok()) {
    std::fprintf(stderr, "replay error: %s\n", error.ToString().c_str());
    return 2;
  }
  uint64_t epochs = 0;
  uint64_t reconnects = 0;
  for (const auto& client : clients) {
    epochs += client->epochs_received();
    reconnects += client->reconnects();
  }
  Timestamp watermark = backup->GlobalVisibleTs();
  std::printf("FINAL %" PRIu64 " %016" PRIx64 " epochs=%" PRIu64
              " reconnects=%" PRIu64 "\n",
              static_cast<uint64_t>(watermark),
              ReplicaDigestAt(backup.get(), &catalog, watermark), epochs,
              reconnects);
  std::fflush(stdout);
  return 0;
}

int ClientMode(const Config& cfg) {
  std::string host;
  uint16_t port = 0;
  if (!SplitHostPort(cfg.connect, &host, &port)) {
    std::fprintf(stderr, "--connect host:port required\n");
    return 2;
  }
  for (int i = 0; i < kScans; ++i) {
    // One connection per scan: exercises admission each time, and a kBusy
    // shed (connection gone) is retried on a fresh connection.
    Result<net::QueryClient> client = net::QueryClient::Connect(host, port);
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
      return 2;
    }
    TableId table = static_cast<TableId>(i % kTables);
    Result<net::QueryClient::ScanResult> scan = client->Scan(table);
    if (!scan.ok()) {
      std::fprintf(stderr, "scan: %s\n", scan.status().ToString().c_str());
      return 2;
    }
    if (scan->busy) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --i;
      continue;
    }
    std::printf("QUERY table=%u ts=%" PRIu64 " rows=%" PRIu64
                " digest=%016" PRIx64 "\n",
                table, static_cast<uint64_t>(scan->pinned_ts), scan->row_count,
                scan->digest);
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s run|digest|recover|primary|backup|client|reference "
                 "[--dir D] [--seed N] [--txns N] [--shard_count N] "
                 "[--disk_budget BYTES] [--listen_port P] [--connect H:P] "
                 "[--query_port P]\n",
                 argv[0]);
    return 2;
  }
  cfg.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--dir") cfg.dir = val;
    else if (flag == "--seed") cfg.seed = std::strtoull(val, nullptr, 10);
    else if (flag == "--txns") cfg.num_txns = std::atoi(val);
    else if (flag == "--shard_count") cfg.shard_count = std::atoi(val);
    else if (flag == "--disk_budget") cfg.disk_budget = std::strtoull(val, nullptr, 10);
    else if (flag == "--listen_port") cfg.listen_port = std::atoi(val);
    else if (flag == "--connect") cfg.connect = val;
    else if (flag == "--query_port") cfg.query_port = std::atoi(val);
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (cfg.shard_count < 1) {
    std::fprintf(stderr, "--shard_count must be >= 1\n");
    return 2;
  }
  const bool durable =
      cfg.mode == "run" || cfg.mode == "digest" || cfg.mode == "recover";
  if (durable && cfg.dir.empty()) {
    std::fprintf(stderr, "--dir is required\n");
    return 2;
  }
  if (cfg.mode == "run") return RunMode(cfg, /*paced=*/true);
  if (cfg.mode == "digest") return RunMode(cfg, /*paced=*/false);
  if (cfg.mode == "recover") return RecoverMode(cfg);
  if (cfg.mode == "primary") return PrimaryMode(cfg, /*networked=*/true);
  if (cfg.mode == "reference") return PrimaryMode(cfg, /*networked=*/false);
  if (cfg.mode == "backup") return BackupMode(cfg);
  if (cfg.mode == "client") return ClientMode(cfg);
  std::fprintf(stderr, "unknown mode %s\n", cfg.mode.c_str());
  return 2;
}
