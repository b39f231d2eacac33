// MVCC garbage collection tests: version-chain truncation semantics, digest
// preservation above the watermark, the GC daemon, and GC interleaved with
// live replay.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "aets/baselines/serial_replayer.h"
#include "aets/common/rng.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replication/log_shipper.h"
#include "aets/storage/gc_daemon.h"
#include "aets/storage/memtable.h"

namespace aets {
namespace {

VersionCell Cell(Timestamp ts, TxnId txn, std::vector<ColumnValue> delta,
                 bool is_delete = false) {
  VersionCell cell;
  cell.commit_ts = ts;
  cell.txn_id = txn;
  cell.is_delete = is_delete;
  cell.delta = PackedDelta::FromColumnValues(delta);
  return cell;
}

TEST(TruncateBeforeTest, FoldsPrefixIntoBase) {
  MemNode node(1);
  node.AppendVersion(Cell(10, 1, {{0, Value(int64_t{1})}, {1, Value("a")}}));
  node.AppendVersion(Cell(20, 2, {{1, Value("b")}}));
  node.AppendVersion(Cell(30, 3, {{0, Value(int64_t{3})}}));
  node.AppendVersion(Cell(40, 4, {{1, Value("d")}}));

  // Watermark 30: versions at 10 and 20 fold into the version at 30.
  EXPECT_EQ(node.TruncateBefore(30), 2u);
  EXPECT_EQ(node.NumVersions(), 2u);
  // Reads at/above the base are unchanged.
  Row at30 = *node.ReadVisible(30);
  EXPECT_EQ(at30.at(0).as_int64(), 3);
  EXPECT_EQ(at30.at(1).as_string(), "b");
  Row at45 = *node.ReadVisible(45);
  EXPECT_EQ(at45.at(1).as_string(), "d");
  // Appending after truncation keeps working.
  node.AppendVersion(Cell(50, 5, {{0, Value(int64_t{5})}}));
  EXPECT_EQ(node.ReadVisible(50)->at(0).as_int64(), 5);
  // The modification sequence survives the fold: ATR's operation-sequence
  // check compares it with the log's row_seq, and a count that GC could
  // shrink would never match again (the replayer would spin forever).
  EXPECT_EQ(node.NumVersions(), 3u);
  EXPECT_EQ(node.NumAppended(), 5u);
}

TEST(TruncateBeforeTest, NothingToDoCases) {
  MemNode node(1);
  EXPECT_EQ(node.TruncateBefore(100), 0u);  // empty chain
  node.AppendVersion(Cell(10, 1, {{0, Value(int64_t{1})}}));
  EXPECT_EQ(node.TruncateBefore(5), 0u);   // watermark below everything
  EXPECT_EQ(node.TruncateBefore(10), 0u);  // single version is the base
  EXPECT_EQ(node.NumVersions(), 1u);
}

TEST(TruncateBeforeTest, TombstoneBaseIsPreserved) {
  MemNode node(1);
  node.AppendVersion(Cell(10, 1, {{0, Value(int64_t{1})}}));
  node.AppendVersion(Cell(20, 2, {}, /*is_delete=*/true));
  node.AppendVersion(Cell(30, 3, {{0, Value(int64_t{9})}}));
  EXPECT_EQ(node.TruncateBefore(20), 1u);
  EXPECT_FALSE(node.ReadVisible(25).has_value());  // tombstone base holds
  EXPECT_EQ(node.ReadVisible(35)->at(0).as_int64(), 9);
  // The pre-delete column must not resurface after folding.
  EXPECT_EQ(node.ReadVisible(35)->size(), 1u);
}

TEST(MemtableGcTest, DigestInvariantAboveWatermark) {
  Memtable a(0), b(0);
  Rng rng(5);
  Timestamp ts = 0;
  for (int i = 0; i < 2000; ++i) {
    int64_t key = rng.UniformInt(0, 50);
    LogRecord rec = LogRecord::Dml(
        rng.Bernoulli(0.1) ? LogRecordType::kDelete : LogRecordType::kUpdate,
        1, static_cast<TxnId>(i + 1), ++ts, 0, key,
        rng.Bernoulli(0.1) ? std::vector<ColumnValue>{}
                           : std::vector<ColumnValue>{
                                 {0, Value(rng.UniformInt(0, 1000))},
                                 {1, Value(rng.AlphaString(2, 10))}});
    if (rec.type == LogRecordType::kDelete) rec.values.clear();
    a.ApplyCommitted(rec, ts);
    b.ApplyCommitted(rec, ts);
  }
  Timestamp watermark = ts / 2;
  size_t reclaimed = b.GarbageCollect(watermark);
  EXPECT_GT(reclaimed, 0u);
  // Every snapshot at or above the watermark reads identically.
  for (Timestamp probe : {watermark, watermark + 7, ts}) {
    EXPECT_EQ(a.DigestAt(probe), b.DigestAt(probe)) << "probe " << probe;
  }
}

TEST(GcDaemonTest, ReclaimsBehindWatermark) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterTable("t", Schema::Of({{"v", ColumnType::kInt64}})).ok());
  TableStore store(catalog);
  Timestamp ts = 0;
  for (int i = 0; i < 500; ++i) {
    ++ts;
    store.GetTable(0)->ApplyCommitted(
        LogRecord::Dml(LogRecordType::kUpdate, 1, static_cast<TxnId>(i + 1),
                       ts, 0, /*row=*/i % 5,
                       {{0, Value(static_cast<int64_t>(i))}}),
        ts);
  }
  std::atomic<Timestamp> watermark{ts};
  GcDaemon daemon(&store, [&] { return watermark.load(); }, /*retention=*/10);
  size_t reclaimed = daemon.RunOnce();
  // 5 rows x 100 versions, all but the base + post-watermark tail fold away.
  EXPECT_GT(reclaimed, 400u);
  EXPECT_EQ(daemon.passes(), 1u);
  EXPECT_EQ(daemon.total_reclaimed(), reclaimed);
  EXPECT_EQ(store.GetTable(0)->VisibleRowCount(ts), 5u);
}

TEST(GcDaemonTest, BackgroundLoopRunsAndStops) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterTable("t", Schema::Of({{"v", ColumnType::kInt64}})).ok());
  TableStore store(catalog);
  std::atomic<Timestamp> watermark{100};
  GcDaemon daemon(&store, [&] { return watermark.load(); }, 0,
                  /*interval_us=*/500);
  daemon.Start();
  int waited = 0;
  while (daemon.passes() < 3 && waited++ < 2000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.Stop();
  EXPECT_GE(daemon.passes(), 3u);
}

TEST(GcDaemonTest, ConcurrentWithLiveReplay) {
  // GC runs against the backup store while the AETS replayer is appending:
  // the final state must still match a GC-free serial oracle.
  Catalog catalog;
  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE(catalog
                    .RegisterTable("t" + std::to_string(t),
                                   Schema::Of({{"v", ColumnType::kInt64}}))
                    .ok());
  }
  LogicalClock clock;
  PrimaryDb db(&catalog, &clock);
  LogShipper shipper(/*epoch_size=*/8);
  EpochChannel aets_ch(1024), serial_ch(1024);
  shipper.AttachChannel(&aets_ch);
  shipper.AttachChannel(&serial_ch);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  AetsReplayer replayer(&catalog, &aets_ch, options);
  SerialReplayer oracle(&catalog, &serial_ch);
  ASSERT_TRUE(replayer.Start().ok());
  ASSERT_TRUE(oracle.Start().ok());

  GcDaemon daemon(
      replayer.store(), [&] { return replayer.GlobalVisibleTs(); },
      /*retention=*/50, /*interval_us=*/200);
  daemon.Start();

  Rng rng(9);
  for (int i = 0; i < 1500; ++i) {
    PrimaryTxn txn = db.Begin();
    txn.Update(static_cast<TableId>(rng.UniformInt(0, 2)),
               rng.UniformInt(0, 20), {{0, Value(static_cast<int64_t>(i))}});
    ASSERT_TRUE(db.Commit(std::move(txn)).ok());
  }
  shipper.Finish();
  replayer.Stop();
  oracle.Stop();
  daemon.Stop();

  Timestamp final_ts = db.last_commit_ts();
  EXPECT_EQ(replayer.store()->DigestAt(final_ts),
            oracle.store()->DigestAt(final_ts));
  EXPECT_GT(daemon.total_reclaimed(), 0u);
}

}  // namespace
}  // namespace aets
