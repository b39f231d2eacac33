// Micro-benchmarks for the replay-side hot paths: metadata dispatch, the
// full-image dispatch C5 pays, epoch encode, the translate stage in both its
// owning-decode and zero-copy-view forms, end-to-end single-epoch replay
// through AETS, and the fixed replay cost of one small epoch. Reports
// allocs/record via the global new counter.

#include "alloc_counter.h"  // must precede everything: replaces operator new

#include <benchmark/benchmark.h>

#include <time.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "aets/bench/harness.h"
#include "aets/common/macros.h"
#include "aets/log/codec.h"
#include "aets/log/shipped_epoch.h"
#include "aets/obs/metrics.h"
#include "aets/storage/version_chain.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replay/replayer_base.h"
#include "aets/replication/channel.h"
#include "aets/storage/column_store.h"
#include "aets/workload/bustracker.h"
#include "aets/workload/chbenchmark.h"
#include "aets/workload/query_exec.h"
#include "aets/workload/tpcc.h"

namespace aets {
namespace {

// One recorded TPC-C epoch payload, built once.
struct EpochFixture {
  EpochFixture() : tpcc(SmallConfig()) {
    LogicalClock clock;
    PrimaryDb db(&tpcc.catalog(), &clock);
    Rng rng(1);
    tpcc.Load(&db, &rng);
    // Capture 256 mix transactions into one epoch via the commit sink.
    Epoch epoch;
    epoch.epoch_id = 0;
    std::vector<TxnLog> txns;
    db.SetCommitSink([&](TxnLog t) { txns.push_back(std::move(t)); });
    OltpLikeRun(&db, &rng, 256);
    epoch.txns = std::move(txns);
    shipped = EncodeEpoch(epoch);
  }

  static TpccConfig SmallConfig() {
    TpccConfig config;
    config.warehouses = 1;
    config.items = 100;
    config.customers_per_district = 10;
    config.init_orders_per_district = 2;
    return config;
  }

  void OltpLikeRun(PrimaryDb* db, Rng* rng, int n) {
    for (int i = 0; i < n; ++i) {
      AETS_CHECK(tpcc.RunOltpTransaction(db, rng).ok());
    }
  }

  TpccWorkload tpcc;
  ShippedEpoch shipped;
};

EpochFixture& Fixture() {
  static EpochFixture* fixture = new EpochFixture();
  return *fixture;
}

void BM_DispatchMetadataPass(benchmark::State& state) {
  const std::string& data = *Fixture().shipped.payload;
  for (auto _ : state) {
    size_t offset = 0;
    size_t records = 0;
    while (offset < data.size()) {
      auto rec = LogCodec::DecodeMetadata(data, &offset);
      benchmark::DoNotOptimize(rec);
      ++records;
    }
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(Fixture().shipped.num_records));
}
BENCHMARK(BM_DispatchMetadataPass);

void BM_DispatchFullImagePass(benchmark::State& state) {
  // What C5's dispatcher pays per epoch: full value + checksum decoding.
  const std::string& data = *Fixture().shipped.payload;
  for (auto _ : state) {
    size_t offset = 0;
    while (offset < data.size()) {
      auto rec = LogCodec::Decode(data, &offset);
      benchmark::DoNotOptimize(rec);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(Fixture().shipped.num_records));
}
BENCHMARK(BM_DispatchFullImagePass);

void BM_EncodeEpoch(benchmark::State& state) {
  auto epoch = DecodeEpoch(Fixture().shipped);
  AETS_CHECK(epoch.ok());
  for (auto _ : state) {
    ShippedEpoch shipped = EncodeEpoch(*epoch);
    benchmark::DoNotOptimize(shipped);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(Fixture().shipped.ByteSize()));
}
BENCHMARK(BM_EncodeEpoch);

// The two translate-stage variants below decode every DML record of the
// epoch and produce install-ready VersionCells (what TranslateGroup hands to
// the committer). The owning variant is the pre-refactor shape: a full
// Decode that materializes a std::vector<ColumnValue> (string payloads and
// all) per record. The view variant is the current hot path: DecodeView plus
// a single-memcpy PackedDelta::FromWire.

void BM_TranslateEpochOwning(benchmark::State& state) {
  const std::string& data = *Fixture().shipped.payload;
  std::vector<VersionCell> cells;
  cells.reserve(Fixture().shipped.num_records);
  size_t allocs_before = aets_bench::AllocCount();
  for (auto _ : state) {
    cells.clear();
    size_t offset = 0;
    while (offset < data.size()) {
      auto rec = LogCodec::Decode(data, &offset);
      AETS_CHECK(rec.ok());
      if (!rec->is_dml()) continue;
      VersionCell cell;
      cell.commit_ts = rec->timestamp;
      cell.txn_id = rec->txn_id;
      cell.is_delete = rec->type == LogRecordType::kDelete;
      cell.delta = PackedDelta::FromColumnValues(rec->values);
      cells.push_back(std::move(cell));
    }
    benchmark::DoNotOptimize(cells.data());
  }
  int64_t records = static_cast<int64_t>(Fixture().shipped.num_records);
  state.counters["allocs/record"] = benchmark::Counter(
      static_cast<double>(aets_bench::AllocCount() - allocs_before) /
          static_cast<double>(records),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_TranslateEpochOwning);

void BM_TranslateEpochView(benchmark::State& state) {
  const std::string& data = *Fixture().shipped.payload;
  std::vector<VersionCell> cells;
  cells.reserve(Fixture().shipped.num_records);
  size_t allocs_before = aets_bench::AllocCount();
  for (auto _ : state) {
    cells.clear();
    size_t offset = 0;
    while (offset < data.size()) {
      auto rec = LogCodec::DecodeView(data, &offset);
      AETS_CHECK(rec.ok());
      if (!rec->is_dml()) continue;
      VersionCell cell;
      cell.commit_ts = rec->timestamp;
      cell.txn_id = rec->txn_id;
      cell.is_delete = rec->type == LogRecordType::kDelete;
      cell.delta = PackedDelta::FromWire(rec->num_values, rec->value_bytes);
      cells.push_back(std::move(cell));
    }
    benchmark::DoNotOptimize(cells.data());
  }
  int64_t records = static_cast<int64_t>(Fixture().shipped.num_records);
  state.counters["allocs/record"] = benchmark::Counter(
      static_cast<double>(aets_bench::AllocCount() - allocs_before) /
          static_cast<double>(records),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_TranslateEpochView);

void BM_AetsSingleEpochReplay(benchmark::State& state) {
  const TpccWorkload& tpcc = Fixture().tpcc;
  for (auto _ : state) {
    EpochChannel channel(4);
    channel.Send(Fixture().shipped);
    channel.Close();
    AetsOptions options;
    options.replay_threads = static_cast<int>(state.range(0));
    options.grouping = GroupingMode::kStatic;
    options.static_hot_groups = tpcc.DefaultHotGroups();
    AetsReplayer replayer(&tpcc.catalog(), &channel, options);
    AETS_CHECK(replayer.Start().ok());
    replayer.Stop();
    benchmark::DoNotOptimize(replayer.stats().records.load());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(Fixture().shipped.num_txns));
}
BENCHMARK(BM_AetsSingleEpochReplay)->Arg(1)->Arg(2)->Arg(4);

// A recorded multi-epoch TPC-C stream, built once: the per-epoch costs
// (regrouping checks, stage barriers, watermark publication) that a single
// epoch hides show up here.
struct MultiEpochFixture {
  static constexpr size_t kEpochTxns = 64;
  static constexpr int kNumEpochs = 32;

  MultiEpochFixture() : tpcc(EpochFixture::SmallConfig()) {
    LogicalClock clock;
    PrimaryDb db(&tpcc.catalog(), &clock);
    Rng rng(7);
    tpcc.Load(&db, &rng);
    std::vector<TxnLog> txns;
    db.SetCommitSink([&](TxnLog t) { txns.push_back(std::move(t)); });
    for (int e = 0; e < kNumEpochs; ++e) {
      txns.clear();
      for (size_t i = 0; i < kEpochTxns; ++i) {
        AETS_CHECK(tpcc.RunOltpTransaction(&db, &rng).ok());
      }
      Epoch epoch;
      epoch.epoch_id = static_cast<uint64_t>(e);
      epoch.txns = std::move(txns);
      txns = {};
      total_txns += epoch.txns.size();
      epochs.push_back(EncodeEpoch(epoch));
    }
  }

  TpccWorkload tpcc;
  std::vector<ShippedEpoch> epochs;
  uint64_t total_txns = 0;
};

MultiEpochFixture& MultiFixture() {
  static MultiEpochFixture* fixture = new MultiEpochFixture();
  return *fixture;
}

/// Projects every table of `replayer`'s column store, so the replay benches
/// charge for maintaining the projection as a queried backup pays it.
void ProjectEveryTable(AetsReplayer* replayer) {
  storage::ColumnStore* columns = replayer->column_store();
  if (columns == nullptr) return;
  for (size_t t = 0; t < replayer->store()->num_tables(); ++t) {
    columns->Project(static_cast<TableId>(t));
  }
}

void BM_AetsMultiEpochReplay(benchmark::State& state) {
  // range(0) = replay threads and commit threads; 1 is one replay and one
  // commit thread.
  const MultiEpochFixture& fx = MultiFixture();
  for (auto _ : state) {
    EpochChannel channel(fx.epochs.size() + 1);
    for (const auto& shipped : fx.epochs) channel.Send(shipped);
    channel.Close();
    AetsOptions options;
    options.replay_threads = static_cast<int>(state.range(0));
    options.commit_threads = static_cast<int>(state.range(0));
    options.grouping = GroupingMode::kStatic;
    options.static_hot_groups = fx.tpcc.DefaultHotGroups();
    AetsReplayer replayer(&fx.tpcc.catalog(), &channel, options);
    ProjectEveryTable(&replayer);
    AETS_CHECK(replayer.Start().ok());
    replayer.Stop();
    AETS_CHECK(replayer.error().ok());
    benchmark::DoNotOptimize(replayer.stats().records.load());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.total_txns));
}
BENCHMARK(BM_AetsMultiEpochReplay)
    ->Arg(4)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Fixed replay cost of one epoch (ROADMAP item 2): an age-sealing shipper
// cuts epochs of a few transactions each, so whatever one epoch costs
// regardless of its size is paid at the seal rate. range(0) TPC-C
// transactions per epoch are fed one epoch at a time into a default
// AetsReplayer (4 replay + 4 commit threads, per-table groups, order_line
// hot and projected, as a queried backup runs), and the feeder waits until
// each epoch is visible before it sends the next, so every epoch lands on a
// parked replayer the way a live 2 ms seal does. Counters
// are per epoch: process CPU (every thread, CLOCK_PROCESS_CPUTIME_ID) and
// the replayer's dispatch / phase-1 translate / phase-2 install split.

struct FixedCostFixture {
  static constexpr int kNumEpochs = 64;

  explicit FixedCostFixture(size_t epoch_txns)
      : tpcc(EpochFixture::SmallConfig()) {
    LogicalClock clock;
    PrimaryDb db(&tpcc.catalog(), &clock);
    Rng rng(11);
    tpcc.Load(&db, &rng);
    std::vector<TxnLog> txns;
    db.SetCommitSink([&](TxnLog t) { txns.push_back(std::move(t)); });
    for (int e = 0; e < kNumEpochs; ++e) {
      for (size_t i = 0; i < epoch_txns; ++i) {
        AETS_CHECK(tpcc.RunOltpTransaction(&db, &rng).ok());
      }
      Epoch epoch;
      epoch.epoch_id = static_cast<uint64_t>(e);
      epoch.txns = std::move(txns);
      txns = {};
      epochs.push_back(EncodeEpoch(epoch));
    }
  }

  TpccWorkload tpcc;
  std::vector<ShippedEpoch> epochs;
};

int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void BM_EpochFixedCost(benchmark::State& state) {
  static std::map<int64_t, FixedCostFixture*> fixtures;
  FixedCostFixture*& slot = fixtures[state.range(0)];
  if (slot == nullptr) {
    slot = new FixedCostFixture(static_cast<size_t>(state.range(0)));
  }
  const FixedCostFixture& fx = *slot;
  const TableId order_line = fx.tpcc.orderline();
  int64_t cpu_ns = 0, dispatch_ns = 0, replay_ns = 0, commit_ns = 0;
  for (auto _ : state) {
    state.PauseTiming();
    EpochChannel channel(fx.epochs.size() + 1);
    AetsOptions options;
    options.initial_rates.assign(fx.tpcc.catalog().num_tables(), 0.0);
    options.initial_rates[order_line] = 50.0;
    AetsReplayer replayer(&fx.tpcc.catalog(), &channel, options);
    replayer.column_store()->Project(order_line);
    AETS_CHECK(replayer.Start().ok());
    state.ResumeTiming();
    const int64_t cpu_start = ProcessCpuNs();
    for (const ShippedEpoch& shipped : fx.epochs) {
      channel.Send(shipped);
      replayer.bell().WaitUntil([&] {
        return replayer.GlobalVisibleTs() >= shipped.max_commit_ts ||
               !replayer.error().ok();
      });
    }
    cpu_ns += ProcessCpuNs() - cpu_start;
    state.PauseTiming();
    channel.Close();
    replayer.Stop();
    AETS_CHECK(replayer.error().ok());
    dispatch_ns += replayer.stats().dispatch_ns.load();
    replay_ns += replayer.stats().replay_ns.load();
    commit_ns += replayer.stats().commit_ns.load();
    state.ResumeTiming();
  }
  const double epochs = static_cast<double>(state.iterations()) *
                        static_cast<double>(fx.epochs.size());
  state.counters["cpu_ns/epoch"] = static_cast<double>(cpu_ns) / epochs;
  state.counters["dispatch_ns"] = static_cast<double>(dispatch_ns) / epochs;
  state.counters["replay_ns"] = static_cast<double>(replay_ns) / epochs;
  state.counters["commit_ns"] = static_cast<double>(commit_ns) / epochs;
  state.SetItemsProcessed(static_cast<int64_t>(epochs));
}
BENCHMARK(BM_EpochFixedCost)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// A recorded BusTracker stream split once into per-shard sub-epoch lanes for
// shard counts 1/2/4 (DESIGN.md §11). The split runs in the fixture so only
// replay is measured.
struct ShardedBusFixture {
  static constexpr uint64_t kMixTxns = 2048;
  static constexpr size_t kEpochSize = 64;

  ShardedBusFixture() : bus(SmallBusConfig()) {
    log = RecordWorkload(&bus, kMixTxns, kEpochSize, /*seed=*/7);
    for (int shards : {1, 2, 4}) {
      maps.emplace(shards, ShardMap::Hash(bus.catalog().num_tables(), shards));
      streams.emplace(shards, ShardRecordedLog(log, maps.at(shards)));
    }
  }

  static BusTrackerConfig SmallBusConfig() {
    BusTrackerConfig config;
    config.rows_per_table = 20;
    return config;
  }

  BusTrackerWorkload bus;
  RecordedLog log;
  std::map<int, ShardMap> maps;
  std::map<int, std::vector<std::vector<ShippedEpoch>>> streams;
};

ShardedBusFixture& ShardedFixture() {
  static ShardedBusFixture* fixture = new ShardedBusFixture();
  return *fixture;
}

void BM_ShardedMultiEpochReplay(benchmark::State& state) {
  // range(0) = shard count. Each backup shard drains its own sub-epoch lane
  // behind a ShardedBackup, with a fixed TOTAL thread budget (4 replay + 4
  // commit) divided across shards by SplitThreadBudget — the scale-out
  // question is what N lanes buy at constant resources per box.
  //
  // Each shard's apply carries a modeled non-CPU latency proportional to
  // the sub-epoch's payload size (a per-shard durable/ack link at ~25 MB/s),
  // slept in the commit hook: sharding divides each lane's payload N ways,
  // so the latency component — the resource multi-backup replay actually
  // multiplies — scales down with N even on a single core, while the CPU
  // component needs real cores.
  const ShardedBusFixture& fx = ShardedFixture();
  const int shards = static_cast<int>(state.range(0));
  const auto& lanes = fx.streams.at(shards);
  const ShardMap& map = fx.maps.at(shards);
  constexpr int64_t kLinkBytesPerUs = 25;  // ~25 MB/s per shard
  for (auto _ : state) {
    std::vector<std::unique_ptr<EpochChannel>> channels;
    std::vector<EpochChannel*> raw;
    for (const auto& lane : lanes) {
      channels.push_back(std::make_unique<EpochChannel>(lane.size() + 1));
      for (const auto& sub : lane) channels.back()->Send(sub);
      channels.back()->Close();
      raw.push_back(channels.back().get());
    }
    ReplayerSpec spec;
    spec.kind = ReplayerKind::kAets;
    spec.threads = 4;
    spec.commit_threads = 4;
    spec.shard_count = shards;
    auto backup = MakeShardedReplayer(spec, &fx.bus.catalog(), &map, raw);
    for (int s = 0; s < shards; ++s) {
      auto* shard = dynamic_cast<ReplayerBase*>(backup->shard(s));
      AETS_CHECK(shard != nullptr);
      shard->SetCommitHookForTest([](const ShippedEpoch& epoch) {
        if (epoch.is_heartbeat()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>(epoch.ByteSize()) / kLinkBytesPerUs));
      });
    }
    AETS_CHECK(backup->Start().ok());
    backup->Stop();
    AETS_CHECK(backup->error().ok());
    AETS_CHECK(ReplicaDigestAt(backup.get(), &fx.bus.catalog(),
                               fx.log.final_ts) == fx.log.primary_digest);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.log.mix_txns));
}
BENCHMARK(BM_ShardedMultiEpochReplay)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Columnar OLAP scan vs the row-store version-chain walk (DESIGN.md §13):
// the same CH-benCHmark Q6 aggregate over order_line, once through
// Memtable::ScanVisible and once through the ColumnStore's typed vectors.
// The fixture replays a recorded CH stream into one backup with order_line
// projected before replay (the backup stops before it is queried, so a
// first query could not seed it), so both paths read the identical MVCC
// state at final_ts.

struct ColumnScanFixture {
  ColumnScanFixture() : ch(ChConfig()) {
    log = RecordWorkload(&ch, /*num_txns=*/4000, /*epoch_size=*/256,
                         /*seed=*/19);
    EpochChannel channel(log.epochs.size() + 1);
    for (const auto& shipped : log.epochs) channel.Send(shipped);
    channel.Close();
    AetsOptions options;
    options.replay_threads = 2;
    options.grouping = GroupingMode::kPerTable;
    backup = std::make_unique<AetsReplayer>(&ch.catalog(), &channel, options);
    backup->column_store()->Project(ch.tpcc().orderline());
    AETS_CHECK(backup->Start().ok());
    backup->Stop();
    AETS_CHECK(backup->error().ok());
    const Memtable* ol =
        backup->store()->GetTable(ch.tpcc().orderline());
    order_line_rows = ol->VisibleRowCount(log.final_ts);
    // Both paths must agree before either is worth timing, and the column
    // executor must have read columns, not fallen back to the rows.
    obs::Counter* scanned = obs::GetCounter("column.rows_scanned");
    const uint64_t scanned_before = scanned->value();
    ChQueryExecutor rows(&ch, backup->store());
    ChQueryExecutor cols(&ch, backup->store(), backup->column_store());
    AETS_CHECK(rows.RunQ6(log.final_ts, 1, 10) ==
               cols.RunQ6(log.final_ts, 1, 10));
    AETS_CHECK(rows.error().ok() && cols.error().ok());
    AETS_CHECK(scanned->value() > scanned_before);
  }

  static TpccConfig ChConfig() {
    TpccConfig config;
    config.warehouses = 2;
    config.items = 200;
    config.customers_per_district = 20;
    config.init_orders_per_district = 20;
    return config;
  }

  ChBenchmarkWorkload ch;
  RecordedLog log;
  std::unique_ptr<AetsReplayer> backup;
  size_t order_line_rows = 0;
};

ColumnScanFixture& ColumnFixture() {
  static ColumnScanFixture* fixture = new ColumnScanFixture();
  return *fixture;
}

void BM_RowScan(benchmark::State& state) {
  const ColumnScanFixture& fx = ColumnFixture();
  ChQueryExecutor exec(&fx.ch, fx.backup->store());
  for (auto _ : state) {
    auto q6 = exec.RunQ6(fx.log.final_ts, 1, 10);
    benchmark::DoNotOptimize(q6.revenue);
  }
  AETS_CHECK(exec.error().ok());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.order_line_rows));
}
BENCHMARK(BM_RowScan)->Unit(benchmark::kMicrosecond);

void BM_ColumnScan(benchmark::State& state) {
  const ColumnScanFixture& fx = ColumnFixture();
  ChQueryExecutor exec(&fx.ch, fx.backup->store(), fx.backup->column_store());
  for (auto _ : state) {
    auto q6 = exec.RunQ6(fx.log.final_ts, 1, 10);
    benchmark::DoNotOptimize(q6.revenue);
  }
  AETS_CHECK(exec.error().ok());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.order_line_rows));
}
BENCHMARK(BM_ColumnScan)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Per-epoch columnar publish cost (DESIGN.md §13): what the replayer's merge
// thread spends turning one epoch's dirty rows into a new generation. A CH
// stream recorded at epoch 16 (BM_ColumnPublish) or 4 (BM_ColumnPublish-
// SmallEpochs, the shape an age-sealing shipper produces at OLTP rates) is
// replayed once into a row store with the column store off and no GC, so
// every historical image stays readable. Each iteration then feeds the
// stream to a fresh ColumnStore with every table projected and seeded at
// the end of the load, the way the commit path and the merge thread do:
// one NoteDirty per (transaction, table) and one Publish per epoch
// watermark. Items are dirty rows published, so the two benches compare per
// dirty row.

struct ColumnPublishFixture {
  struct Batch {
    TableId table;
    Timestamp ts;
    std::vector<const MemNode*> nodes;
  };
  struct EpochDirty {
    std::vector<Batch> batches;
    Timestamp watermark;
  };

  explicit ColumnPublishFixture(size_t epoch_size) : ch(ChConfig()) {
    log = RecordWorkload(&ch, /*num_txns=*/4000, epoch_size, /*seed=*/29);
    EpochChannel channel(log.epochs.size() + 1);
    for (const auto& shipped : log.epochs) channel.Send(shipped);
    channel.Close();
    AetsOptions options;
    options.replay_threads = 2;
    options.grouping = GroupingMode::kPerTable;
    options.column_store_enabled = false;
    backup = std::make_unique<AetsReplayer>(&ch.catalog(), &channel, options);
    AETS_CHECK(backup->Start().ok());
    backup->Stop();
    AETS_CHECK(backup->error().ok());

    for (const auto& shipped : log.epochs) {
      if (shipped.max_commit_ts == kInvalidTimestamp ||
          shipped.max_commit_ts <= log.load_end_ts) {
        continue;  // covered by the seed
      }
      EpochDirty epoch;
      epoch.watermark = shipped.max_commit_ts;
      const std::string& data = *shipped.payload;
      Timestamp txn_ts = kInvalidTimestamp;
      std::map<TableId, std::vector<const MemNode*>> txn_nodes;
      auto flush_txn = [&] {
        for (auto& [table, nodes] : txn_nodes) {
          dirty_rows += nodes.size();
          epoch.batches.push_back({table, txn_ts, std::move(nodes)});
        }
        txn_nodes.clear();
      };
      size_t offset = 0;
      while (offset < data.size()) {
        auto rec = LogCodec::Decode(data, &offset);
        AETS_CHECK(rec.ok());
        if (rec->type == LogRecordType::kBegin) {
          txn_ts = rec->timestamp;
        } else if (rec->type == LogRecordType::kCommit) {
          flush_txn();
        } else if (rec->is_dml() && txn_ts > log.load_end_ts) {
          txn_nodes[rec->table_id].push_back(
              backup->store()->GetTable(rec->table_id)->FindNode(rec->row_key));
        }
      }
      flush_txn();
      epochs.push_back(std::move(epoch));
    }
  }

  /// The perfbench TPC-C shape: order_line and stock span many chunks.
  static TpccConfig ChConfig() {
    TpccConfig config;
    config.warehouses = 2;
    config.items = 20'000;
    config.customers_per_district = 300;
    config.init_orders_per_district = 100;
    return config;
  }

  ChBenchmarkWorkload ch;
  RecordedLog log;
  std::unique_ptr<AetsReplayer> backup;
  std::vector<EpochDirty> epochs;
  uint64_t dirty_rows = 0;
};

void RunColumnPublish(benchmark::State& state, ColumnPublishFixture& fx) {
  for (auto _ : state) {
    state.PauseTiming();
    auto columns = std::make_unique<storage::ColumnStore>(&fx.ch.catalog(),
                                                          fx.backup->store());
    for (size_t t = 0; t < fx.ch.catalog().num_tables(); ++t) {
      columns->Project(static_cast<TableId>(t));
    }
    columns->Publish(fx.log.load_end_ts);
    state.ResumeTiming();
    for (const auto& epoch : fx.epochs) {
      for (const auto& batch : epoch.batches) {
        columns->NoteDirty(batch.table, batch.nodes, batch.ts);
      }
      columns->Publish(epoch.watermark);
    }
    state.PauseTiming();
    AETS_CHECK(columns->PublishedTs(fx.ch.tpcc().orderline()) ==
               fx.epochs.back().watermark);
    columns.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.dirty_rows));
}

void BM_ColumnPublish(benchmark::State& state) {
  static ColumnPublishFixture* fixture = new ColumnPublishFixture(16);
  RunColumnPublish(state, *fixture);
}
BENCHMARK(BM_ColumnPublish)->Unit(benchmark::kMillisecond);

void BM_ColumnPublishSmallEpochs(benchmark::State& state) {
  static ColumnPublishFixture* fixture = new ColumnPublishFixture(4);
  RunColumnPublish(state, *fixture);
}
BENCHMARK(BM_ColumnPublishSmallEpochs)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace aets
