// Analytic query executor tests: the CH Q1/Q6 aggregations evaluated on a
// replaying backup must equal the primary's answers at the same snapshot —
// including at a snapshot taken mid-stream.

#include <gtest/gtest.h>

#include "aets/obs/metrics.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replication/log_shipper.h"
#include "aets/workload/driver.h"
#include "aets/workload/query_exec.h"

namespace aets {
namespace {

class QueryExecTest : public ::testing::Test {
 protected:
  QueryExecTest() {
    TpccConfig config;
    config.warehouses = 1;
    config.items = 80;
    config.customers_per_district = 8;
    config.init_orders_per_district = 3;
    ch_ = std::make_unique<ChBenchmarkWorkload>(config);
  }

  std::unique_ptr<ChBenchmarkWorkload> ch_;
};

TEST_F(QueryExecTest, Q1AndQ6MatchPrimaryAfterReplay) {
  LogicalClock clock;
  PrimaryDb db(&ch_->catalog(), &clock);
  LogShipper shipper(/*epoch_size=*/32);
  EpochChannel channel(1024);
  shipper.AttachChannel(&channel);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  Rng rng(1);
  ch_->Load(&db, &rng);
  Timestamp mid_ts;
  {
    OltpDriver oltp(ch_.get(), &db, 1);
    oltp.Run(200);
    mid_ts = db.last_commit_ts();
    oltp.Run(200);
  }
  shipper.Finish();

  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  AetsReplayer backup(&ch_->catalog(), &channel, options);
  ASSERT_TRUE(backup.Start().ok());
  backup.Stop();
  ASSERT_TRUE(backup.error().ok());

  ChQueryExecutor on_primary(ch_.get(), &db.store());
  ChQueryExecutor on_backup(ch_.get(), backup.store());
  Timestamp final_ts = db.last_commit_ts();

  for (Timestamp snapshot : {mid_ts, final_ts}) {
    auto q1_primary = on_primary.RunQ1(snapshot, INT64_MAX);
    auto q1_backup = on_backup.RunQ1(snapshot, INT64_MAX);
    ASSERT_EQ(q1_primary.size(), q1_backup.size());
    for (const auto& [ol_number, row] : q1_primary) {
      ASSERT_TRUE(q1_backup.count(ol_number));
      EXPECT_TRUE(q1_backup.at(ol_number) == row) << "ol " << ol_number;
    }
    EXPECT_TRUE(on_backup.RunQ6(snapshot, 1, 5) ==
                on_primary.RunQ6(snapshot, 1, 5));
  }
  // Q1 has 5..15 ol_number buckets; the workload must have produced them.
  EXPECT_GE(on_primary.RunQ1(final_ts, INT64_MAX).size(), 5u);
}

TEST_F(QueryExecTest, ColumnPathMatchesRowPathThroughReplay) {
  LogicalClock clock;
  PrimaryDb db(&ch_->catalog(), &clock);
  LogShipper shipper(/*epoch_size=*/32);
  EpochChannel channel(1024);
  shipper.AttachChannel(&channel);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  Rng rng(4);
  ch_->Load(&db, &rng);
  Timestamp mid_ts;
  {
    OltpDriver oltp(ch_.get(), &db, 4);
    oltp.Run(200);
    mid_ts = db.last_commit_ts();
    oltp.Run(200);
  }
  shipper.Finish();

  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  options.column_chunk_rows = 64;  // many chunks even at test scale
  AetsReplayer backup(&ch_->catalog(), &channel, options);
  ASSERT_NE(backup.column_store(), nullptr);
  // The backup stops replaying before it is queried, so a first query could
  // no longer seed the columns: project order_line up front.
  backup.column_store()->Project(ch_->tpcc().orderline());
  ASSERT_TRUE(backup.Start().ok());
  backup.Stop();
  ASSERT_TRUE(backup.error().ok());

  // Same store, two scan paths: vectorized chunks + residual top-up vs the
  // row-store version-chain walk. Aggregates must be identical at a
  // mid-stream snapshot (residual-heavy) and at the final one.
  obs::Counter* scanned = obs::GetCounter("column.rows_scanned");
  const uint64_t scanned_before = scanned->value();
  ChQueryExecutor rows(ch_.get(), backup.store());
  ChQueryExecutor cols(ch_.get(), backup.store(), backup.column_store());
  for (Timestamp snapshot : {mid_ts, db.last_commit_ts()}) {
    auto q1_rows = rows.RunQ1(snapshot, INT64_MAX);
    auto q1_cols = cols.RunQ1(snapshot, INT64_MAX);
    ASSERT_EQ(q1_rows.size(), q1_cols.size()) << "snapshot " << snapshot;
    for (const auto& [ol_number, row] : q1_rows) {
      ASSERT_TRUE(q1_cols.count(ol_number));
      EXPECT_TRUE(q1_cols.at(ol_number) == row)
          << "ol " << ol_number << " snapshot " << snapshot;
    }
    EXPECT_TRUE(cols.RunQ6(snapshot, 1, 5) == rows.RunQ6(snapshot, 1, 5));
    EXPECT_TRUE(cols.RunQ1(snapshot, 0) == rows.RunQ1(snapshot, 0));
  }
  EXPECT_GT(scanned->value(), scanned_before);  // the columns answered
  // Well-typed TPC-C data: neither path may have flagged anything.
  EXPECT_EQ(rows.column_type_mismatches(), 0u);
  EXPECT_EQ(cols.column_type_mismatches(), 0u);
  EXPECT_TRUE(rows.error().ok());
  EXPECT_TRUE(cols.error().ok());
}

// Regression for the silent-coercion bug: a scanned row whose column is
// missing or of the wrong type used to contribute 0 to the aggregate with
// no trace. Now every such access is counted and the first one latches
// error(). (Pre-fix this test fails: no mismatch was ever recorded.)
TEST_F(QueryExecTest, MismatchedColumnsAreCountedNotSilentlyCoerced) {
  TableStore store(ch_->catalog());
  TableId ol = ch_->tpcc().orderline();
  constexpr Timestamp kTs = 10;
  auto put = [&](int64_t key, std::vector<ColumnValue> values) {
    store.GetTable(ol)->ApplyCommitted(
        LogRecord::Dml(LogRecordType::kInsert, static_cast<Lsn>(key), 1, kTs,
                       ol, key, std::move(values)),
        kTs);
  };
  // Well-formed line: number=1, quantity=5, amount=2.5, delivery_d=1.
  put(1, {{1, Value(int64_t{1})},
          {4, Value(int64_t{5})},
          {5, Value(2.5)},
          {6, Value(int64_t{1})}});
  // ol_amount is a string: in-range quantity forces the amount read.
  put(2, {{1, Value(int64_t{1})},
          {4, Value(int64_t{5})},
          {5, Value("not-a-double")},
          {6, Value(int64_t{1})}});
  // ol_quantity missing entirely.
  put(3, {{1, Value(int64_t{1})}, {5, Value(1.0)}, {6, Value(int64_t{1})}});

  ChQueryExecutor exec(ch_.get(), &store);
  auto q6 = exec.RunQ6(kTs, 1, 10);
  // The malformed amount still aggregates as 0 (row counted), the missing
  // quantity reads as 0 (row filtered out) — but both are now loud.
  EXPECT_EQ(q6.lines, 2u);
  EXPECT_DOUBLE_EQ(q6.revenue, 2.5);
  EXPECT_EQ(exec.column_type_mismatches(), 2u);
  EXPECT_TRUE(exec.error().IsCorruption()) << exec.error().ToString();

  // The vectorized path must flag the exact same accesses: the string
  // amount lands in the chunk's irregular overflow, the missing quantity
  // in the has-bitmap check.
  storage::ColumnStore columns(&ch_->catalog(), &store);
  columns.Project(ol);
  columns.Publish(kTs);
  ChQueryExecutor vec(ch_.get(), &store, &columns);
  auto q6_vec = vec.RunQ6(kTs, 1, 10);
  EXPECT_TRUE(q6_vec == q6);
  EXPECT_EQ(vec.column_type_mismatches(), 2u);
  EXPECT_TRUE(vec.error().IsCorruption());
}

// With a generation per epoch, max_generations (8) covers only ~8 epochs of
// history. A snapshot pinned further back must still answer exactly — on
// the ~200x slower row path — and that fallback must be counted, not
// silent.
TEST_F(QueryExecTest, SnapshotOlderThanRetainedGenerationsFallsBackExactly) {
  TableStore store(ch_->catalog());
  TableId ol = ch_->tpcc().orderline();
  storage::ColumnStore columns(&ch_->catalog(), &store);
  auto write = [&](LogRecordType type, int64_t key, Timestamp ts,
                   std::vector<ColumnValue> values) {
    store.GetTable(ol)->ApplyCommitted(
        LogRecord::Dml(type, static_cast<Lsn>(ts), 1, ts, ol, key,
                       std::move(values)),
        ts);
    columns.NoteDirty(ol, {store.GetTable(ol)->FindNode(key)}, ts);
  };
  constexpr Timestamp kPinned = 10;
  for (int64_t key = 1; key <= 20; ++key) {
    write(LogRecordType::kInsert, key, kPinned,
          {{1, Value(key % 3)},
           {4, Value(key % 10 + 1)},
           {5, Value(static_cast<double>(key) * 1.5)},
           {6, Value(int64_t{0})}});
  }
  columns.Project(ol);
  columns.Publish(kPinned);
  ChQueryExecutor rows(ch_.get(), &store);
  ChQueryExecutor cols(ch_.get(), &store, &columns);
  const auto pinned_answer = rows.RunQ6(kPinned, 1, 5);

  // Twelve epochs, one generation each: the pinned snapshot's is pruned.
  for (int64_t e = 1; e <= 12; ++e) {
    Timestamp ts = kPinned + static_cast<Timestamp>(e);
    write(LogRecordType::kUpdate, e, ts, {{4, Value(int64_t{3})}});
    columns.Publish(ts);
  }
  obs::Counter* fallbacks = obs::GetCounter("column.row_fallbacks");
  uint64_t before = fallbacks->value();
  auto answer = cols.RunQ6(kPinned, 1, 5);
  EXPECT_TRUE(answer == pinned_answer);
  EXPECT_GT(fallbacks->value(), before);

  // A snapshot a retained generation covers stays columnar: not counted.
  before = fallbacks->value();
  Timestamp recent = kPinned + 10;
  EXPECT_TRUE(cols.RunQ6(recent, 1, 5) == rows.RunQ6(recent, 1, 5));
  EXPECT_EQ(fallbacks->value(), before);
  EXPECT_TRUE(cols.error().ok());
}

TEST_F(QueryExecTest, Q1DeliveryCutoffFilters) {
  LogicalClock clock;
  PrimaryDb db(&ch_->catalog(), &clock);
  Rng rng(2);
  ch_->Load(&db, &rng);
  OltpDriver oltp(ch_.get(), &db, 2);
  oltp.Run(150);

  ChQueryExecutor exec(ch_.get(), &db.store());
  Timestamp ts = db.last_commit_ts();
  // Cutoff 0 keeps only undelivered lines (ol_delivery_d == 0); INT64_MAX
  // keeps everything; the filtered count must be strictly smaller whenever
  // deliveries happened.
  auto all = exec.RunQ1(ts, INT64_MAX);
  auto undelivered = exec.RunQ1(ts, 0);
  uint64_t all_count = 0, undelivered_count = 0;
  for (const auto& [k, v] : all) all_count += v.count;
  for (const auto& [k, v] : undelivered) undelivered_count += v.count;
  EXPECT_LE(undelivered_count, all_count);
  EXPECT_GT(all_count, 0u);
}

TEST_F(QueryExecTest, Q6QuantityRange) {
  LogicalClock clock;
  PrimaryDb db(&ch_->catalog(), &clock);
  Rng rng(3);
  ch_->Load(&db, &rng);
  OltpDriver oltp(ch_.get(), &db, 3);
  oltp.Run(100);

  ChQueryExecutor exec(ch_.get(), &db.store());
  Timestamp ts = db.last_commit_ts();
  auto narrow = exec.RunQ6(ts, 3, 3);
  auto wide = exec.RunQ6(ts, 1, 10);
  auto empty = exec.RunQ6(ts, 100, 200);
  EXPECT_LE(narrow.lines, wide.lines);
  EXPECT_GT(wide.lines, 0u);
  EXPECT_EQ(empty.lines, 0u);
  EXPECT_DOUBLE_EQ(empty.revenue, 0.0);
  EXPECT_GE(wide.revenue, narrow.revenue);
}

}  // namespace
}  // namespace aets
