// MVCC storage tests: version-chain visibility semantics, tombstones,
// commit-order invariants, Memtable reads/scans, and state digests.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "aets/catalog/catalog.h"
#include "aets/storage/memtable.h"
#include "aets/storage/table_store.h"
#include "aets/storage/version_chain.h"

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

TEST(VersionChainTest, InvisibleBeforeFirstVersion) {
  MemNode node(1);
  EXPECT_FALSE(node.ReadVisible(100).has_value());
  EXPECT_EQ(node.LastWriterTxn(), kInvalidTxnId);
  EXPECT_EQ(node.LastCommitTs(), kInvalidTimestamp);
}

TEST(VersionChainTest, SnapshotSelectsLatestNotAfter) {
  MemNode node(1);
  node.AppendVersion(Cell(10, 1, {{0, Value(int64_t{100})}}));
  node.AppendVersion(Cell(20, 2, {{0, Value(int64_t{200})}}));
  node.AppendVersion(Cell(30, 3, {{0, Value(int64_t{300})}}));

  EXPECT_FALSE(node.ReadVisible(9).has_value());
  EXPECT_EQ(node.ReadVisible(10)->at(0).as_int64(), 100);
  EXPECT_EQ(node.ReadVisible(25)->at(0).as_int64(), 200);
  EXPECT_EQ(node.ReadVisible(1000)->at(0).as_int64(), 300);
}

TEST(VersionChainTest, DeltasAccumulateAcrossColumns) {
  MemNode node(1);
  node.AppendVersion(Cell(10, 1, {{0, Value(int64_t{1})}, {1, Value("a")}}));
  node.AppendVersion(Cell(20, 2, {{1, Value("b")}}));  // update col 1 only
  Row row = *node.ReadVisible(25);
  EXPECT_EQ(row.at(0).as_int64(), 1);      // col 0 from the insert
  EXPECT_EQ(row.at(1).as_string(), "b");   // col 1 from the update
}

TEST(VersionChainTest, TombstoneHidesRowThenReinsertRevives) {
  MemNode node(1);
  node.AppendVersion(Cell(10, 1, {{0, Value(int64_t{1})}}));
  node.AppendVersion(Cell(20, 2, {}, /*is_delete=*/true));
  node.AppendVersion(Cell(30, 3, {{0, Value(int64_t{9})}}));

  EXPECT_TRUE(node.ReadVisible(15).has_value());
  EXPECT_FALSE(node.ReadVisible(25).has_value());
  Row revived = *node.ReadVisible(35);
  EXPECT_EQ(revived.at(0).as_int64(), 9);
  EXPECT_EQ(revived.size(), 1u);  // pre-delete columns do not leak through
}

// Rolling an image forward from an earlier snapshot equals folding the
// whole chain, across updates, deletes and re-inserts — and still does
// after GC folds the history below the base snapshot into one full image.
TEST(VersionChainTest, ReadVisibleFromMatchesFullFold) {
  MemNode node(1);
  node.AppendVersion(Cell(10, 1, {{0, Value(int64_t{1})}, {1, Value("a")}}));
  node.AppendVersion(Cell(20, 2, {{1, Value("b")}}));
  node.AppendVersion(Cell(30, 3, {}, /*is_delete=*/true));
  node.AppendVersion(Cell(40, 4, {{2, Value(2.5)}}));
  node.AppendVersion(Cell(50, 5, {{0, Value(int64_t{5})}}));
  std::vector<std::optional<Row>> exact(61);
  for (Timestamp ts = 0; ts <= 60; ++ts) exact[ts] = node.ReadVisible(ts);
  auto expect_roll_forward = [&] {
    for (Timestamp base = 0; base <= 60; base += 5) {
      for (Timestamp ts = base; ts <= 60; ++ts) {
        EXPECT_EQ(node.ReadVisibleFrom(base, exact[base], ts), exact[ts])
            << "base " << base << " ts " << ts;
      }
    }
  };
  expect_roll_forward();
  // GC up to 45: exact reads at ts >= 45 are unchanged, and a base image
  // taken before the truncation still rolls forward to them.
  ASSERT_GT(node.TruncateBefore(45), 0u);
  for (Timestamp base = 0; base <= 60; base += 5) {
    for (Timestamp ts = std::max<Timestamp>(base, 45); ts <= 60; ++ts) {
      EXPECT_EQ(node.ReadVisibleFrom(base, exact[base], ts), exact[ts])
          << "after GC: base " << base << " ts " << ts;
    }
  }
}

TEST(VersionChainTest, LastWriterAndTs) {
  MemNode node(1);
  node.AppendVersion(Cell(10, 7, {{0, Value(int64_t{1})}}));
  EXPECT_EQ(node.LastWriterTxn(), 7u);
  EXPECT_EQ(node.LastCommitTs(), 10u);
  EXPECT_EQ(node.NumVersions(), 1u);
}

TEST(VersionChainDeathTest, RejectsOutOfOrderCommitTs) {
  MemNode node(1);
  node.AppendVersion(Cell(20, 1, {{0, Value(int64_t{1})}}));
  EXPECT_DEATH(node.AppendVersion(Cell(10, 2, {{0, Value(int64_t{2})}})),
               "commit-ts order");
}

TEST(ValueTest, TypesAndEquality) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{5}).is_int64());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_EQ(Value(int64_t{5}), Value(int64_t{5}));
  EXPECT_NE(Value(int64_t{5}), Value(5.0));
  EXPECT_NE(Value("a"), Value("b"));
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{5}).ToString(), "5");
  EXPECT_EQ(Value("hi").ToString(), "\"hi\"");
}

TEST(MemtableTest, ApplyCommittedAndRead) {
  Memtable table(0);
  LogRecord insert = LogRecord::Dml(LogRecordType::kInsert, 1, 1, 10, 0, 5,
                                    {{0, Value(int64_t{42})}});
  table.ApplyCommitted(insert, 10);
  EXPECT_EQ(table.ReadRow(5, 10)->at(0).as_int64(), 42);
  EXPECT_FALSE(table.ReadRow(5, 9).has_value());
  EXPECT_FALSE(table.ReadRow(6, 100).has_value());
  EXPECT_EQ(table.NumKeys(), 1u);
}

TEST(MemtableTest, DeleteTombstones) {
  Memtable table(0);
  table.ApplyCommitted(LogRecord::Dml(LogRecordType::kInsert, 1, 1, 10, 0, 5,
                                      {{0, Value(int64_t{1})}}),
                       10);
  table.ApplyCommitted(
      LogRecord::Dml(LogRecordType::kDelete, 2, 2, 20, 0, 5, {}), 20);
  EXPECT_TRUE(table.ReadRow(5, 15).has_value());
  EXPECT_FALSE(table.ReadRow(5, 25).has_value());
  EXPECT_EQ(table.VisibleRowCount(15), 1u);
  EXPECT_EQ(table.VisibleRowCount(25), 0u);
}

TEST(MemtableTest, ScanVisibleIsOrderedAndSnapshotted) {
  Memtable table(0);
  for (int64_t k = 10; k >= 1; --k) {
    table.ApplyCommitted(
        LogRecord::Dml(LogRecordType::kInsert, static_cast<Lsn>(k), 1,
                       static_cast<Timestamp>(k), 0, k,
                       {{0, Value(k * 100)}}),
        static_cast<Timestamp>(k));
  }
  std::vector<int64_t> keys;
  table.ScanVisible(5, [&](int64_t k, const Row& row) {
    keys.push_back(k);
    EXPECT_EQ(row.at(0).as_int64(), k * 100);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2, 3, 4, 5}));
}

TEST(MemtableTest, DigestDetectsDifferences) {
  Memtable a(0), b(0);
  auto ins = [](int64_t key, int64_t v, Timestamp ts) {
    return LogRecord::Dml(LogRecordType::kInsert, 1, 1, ts, 0, key,
                          {{0, Value(v)}});
  };
  a.ApplyCommitted(ins(1, 10, 5), 5);
  b.ApplyCommitted(ins(1, 10, 5), 5);
  EXPECT_EQ(a.DigestAt(10), b.DigestAt(10));
  b.ApplyCommitted(ins(2, 20, 6), 6);
  EXPECT_NE(a.DigestAt(10), b.DigestAt(10));
  // Digest is snapshot-sensitive: at ts 5 they still agree.
  EXPECT_EQ(a.DigestAt(5), b.DigestAt(5));
}

TEST(MemtableTest, DigestIsOrderIndependentOfApplySchedule) {
  // Same logical content built in different physical orders.
  Memtable a(0), b(0);
  auto rec = [](int64_t key, Timestamp ts, int64_t v) {
    return LogRecord::Dml(LogRecordType::kInsert, 1, 1, ts, 0, key,
                          {{0, Value(v)}});
  };
  a.ApplyCommitted(rec(1, 5, 10), 5);
  a.ApplyCommitted(rec(2, 6, 20), 6);
  b.ApplyCommitted(rec(2, 6, 20), 6);
  b.ApplyCommitted(rec(1, 5, 10), 5);
  EXPECT_EQ(a.DigestAt(10), b.DigestAt(10));
}

TEST(TableStoreTest, PerTableIsolationAndDigest) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t0", Schema::Of({{"c", ColumnType::kInt64}})).ok());
  ASSERT_TRUE(catalog.RegisterTable("t1", Schema::Of({{"c", ColumnType::kInt64}})).ok());
  TableStore store(catalog);
  EXPECT_EQ(store.num_tables(), 2u);
  auto rec = [](TableId t, int64_t key) {
    return LogRecord::Dml(LogRecordType::kInsert, 1, 1, 5, t, key,
                          {{0, Value(int64_t{1})}});
  };
  store.GetTable(0)->ApplyCommitted(rec(0, 1), 5);
  EXPECT_EQ(store.GetTable(0)->VisibleRowCount(10), 1u);
  EXPECT_EQ(store.GetTable(1)->VisibleRowCount(10), 0u);

  // Identical row in a different table must change the combined digest.
  TableStore other(catalog);
  other.GetTable(1)->ApplyCommitted(rec(1, 1), 5);
  EXPECT_NE(store.DigestAt(10), other.DigestAt(10));
  EXPECT_EQ(store.VisibleRowCount(10), 1u);
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog catalog;
  auto id = catalog.RegisterTable("orders", Schema::Of({{"o_id", ColumnType::kInt64}}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*catalog.GetTableId("orders"), *id);
  EXPECT_EQ((*catalog.GetTable(*id))->name, "orders");
  EXPECT_TRUE(catalog.GetTableId("nope").status().IsNotFound());
  EXPECT_TRUE(catalog.RegisterTable("orders", Schema()).status().IsAlreadyExists());
  EXPECT_EQ(catalog.num_tables(), 1u);
}

TEST(SchemaTest, ColumnsAndLookup) {
  Schema s = Schema::Of({{"a", ColumnType::kInt64}, {"b", ColumnType::kString}});
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.column(1).name, "b");
  EXPECT_EQ(s.FindColumn("b"), 1);
  EXPECT_EQ(s.FindColumn("z"), -1);
}

}  // namespace
}  // namespace aets
