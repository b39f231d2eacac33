// Primary OLTP engine and replication (shipper/channel) tests.

#include <gtest/gtest.h>

#include <thread>

#include "aets/primary/primary_db.h"
#include "aets/replication/log_shipper.h"

namespace aets {
namespace {

class PrimaryTest : public ::testing::Test {
 protected:
  PrimaryTest() {
    t0_ = catalog_.RegisterTable("t0", Schema::Of({{"a", ColumnType::kInt64},
                                                   {"b", ColumnType::kString}}))
              .value();
    t1_ = catalog_.RegisterTable("t1", Schema::Of({{"a", ColumnType::kInt64}}))
              .value();
  }

  Catalog catalog_;
  LogicalClock clock_;
  TableId t0_, t1_;
};

TEST_F(PrimaryTest, CommitAssignsMonotonicIdsAndTimestamps) {
  PrimaryDb db(&catalog_, &clock_);
  PrimaryTxn txn1 = db.Begin();
  txn1.Insert(t0_, 1, {{0, Value(int64_t{10})}});
  auto r1 = db.Commit(std::move(txn1));
  ASSERT_TRUE(r1.ok());

  PrimaryTxn txn2 = db.Begin();
  txn2.Insert(t0_, 2, {{0, Value(int64_t{20})}});
  auto r2 = db.Commit(std::move(txn2));
  ASSERT_TRUE(r2.ok());

  EXPECT_LT(r1->txn_id, r2->txn_id);
  EXPECT_LT(r1->commit_ts, r2->commit_ts);
  EXPECT_EQ(db.last_committed_txn(), r2->txn_id);
  EXPECT_EQ(db.last_commit_ts(), r2->commit_ts);
}

TEST_F(PrimaryTest, TxnLogIsBeginDmlCommit) {
  PrimaryDb db(&catalog_, &clock_);
  std::vector<TxnLog> sunk;
  db.SetCommitSink([&](TxnLog txn) { sunk.push_back(std::move(txn)); });
  PrimaryTxn txn = db.Begin();
  txn.Insert(t0_, 1, {{0, Value(int64_t{1})}});
  txn.Update(t1_, 2, {{0, Value(int64_t{2})}});
  txn.Delete(t0_, 3);
  auto result = db.Commit(std::move(txn));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0].txn_id, result->txn_id);
  EXPECT_EQ(sunk[0].commit_ts, result->commit_ts);
  const auto& records = sunk[0].records;
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.front().type, LogRecordType::kBegin);
  EXPECT_EQ(records[1].type, LogRecordType::kInsert);
  EXPECT_EQ(records[2].type, LogRecordType::kUpdate);
  EXPECT_EQ(records[3].type, LogRecordType::kDelete);
  EXPECT_EQ(records.back().type, LogRecordType::kCommit);
  EXPECT_EQ(records.back().timestamp, result->commit_ts);
  // All records share the txn id; LSNs strictly increase.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].txn_id, result->txn_id);
    if (i > 0) {
      EXPECT_GT(records[i].lsn, records[i - 1].lsn);
    }
  }
}

TEST_F(PrimaryTest, BeforeImageChainIsWellFormed) {
  PrimaryDb db(&catalog_, &clock_);
  std::vector<TxnLog> sunk;
  db.SetCommitSink([&](TxnLog txn) { sunk.push_back(std::move(txn)); });
  TxnId writer = kInvalidTxnId;
  for (int i = 0; i < 5; ++i) {
    PrimaryTxn txn = db.Begin();
    txn.Update(t0_, 77, {{0, Value(static_cast<int64_t>(i))}});
    auto result = db.Commit(std::move(txn));
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(sunk.size(), static_cast<size_t>(i + 1));
    const LogRecord& dml = sunk.back().records[1];
    EXPECT_EQ(dml.prev_txn_id, writer);
    EXPECT_EQ(dml.row_seq, static_cast<uint64_t>(i));
    writer = result->txn_id;
  }
}

TEST_F(PrimaryTest, EmptyTransactionRejected) {
  PrimaryDb db(&catalog_, &clock_);
  auto result = db.Commit(db.Begin());
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(PrimaryTest, UnknownTableRejected) {
  PrimaryDb db(&catalog_, &clock_);
  PrimaryTxn txn = db.Begin();
  txn.Insert(999, 1, {{0, Value(int64_t{1})}});
  EXPECT_FALSE(db.Commit(std::move(txn)).ok());
}

TEST_F(PrimaryTest, OnlyDmlCounted) {
  // Table I's per-table log statistics count DML records only: BEGIN/COMMIT
  // markers, heartbeats and rejected transactions add nothing, and a table
  // never written has no entry.
  TableId t2 =
      catalog_.RegisterTable("t2", Schema::Of({{"a", ColumnType::kInt64}}))
          .value();
  PrimaryDb db(&catalog_, &clock_);
  EXPECT_TRUE(db.DmlCountsByTable().empty());

  PrimaryTxn txn1 = db.Begin();
  txn1.Insert(t0_, 1, {{0, Value(int64_t{1})}});
  txn1.Insert(t0_, 2, {{0, Value(int64_t{2})}});
  ASSERT_TRUE(db.Commit(std::move(txn1)).ok());
  db.AcquireHeartbeatTs();
  PrimaryTxn txn2 = db.Begin();
  txn2.Insert(t2, 1, {{0, Value(int64_t{3})}});
  ASSERT_TRUE(db.Commit(std::move(txn2)).ok());
  PrimaryTxn rejected = db.Begin();
  rejected.Insert(t1_, 1, {{0, Value(int64_t{4})}});
  rejected.Insert(999, 1, {{0, Value(int64_t{4})}});
  ASSERT_FALSE(db.Commit(std::move(rejected)).ok());

  auto counts = db.DmlCountsByTable();
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[t0_], 2u);
  EXPECT_EQ(counts[t2], 1u);
  EXPECT_EQ(counts.count(t1_), 0u);
}

TEST_F(PrimaryTest, ReadsOwnCommittedState) {
  PrimaryDb db(&catalog_, &clock_);
  PrimaryTxn txn = db.Begin();
  txn.Insert(t0_, 5, {{0, Value(int64_t{50})}, {1, Value("row5")}});
  auto result = db.Commit(std::move(txn));
  ASSERT_TRUE(result.ok());
  auto row = db.Read(t0_, 5, result->commit_ts);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->at(0).as_int64(), 50);
  EXPECT_EQ(row->at(1).as_string(), "row5");
  EXPECT_FALSE(db.Read(t0_, 5, result->commit_ts - 1).has_value());
}

TEST_F(PrimaryTest, SinkReceivesCommitsInOrder) {
  PrimaryDb db(&catalog_, &clock_);
  std::vector<TxnId> order;
  db.SetCommitSink([&](TxnLog txn) { order.push_back(txn.txn_id); });
  for (int i = 0; i < 10; ++i) {
    PrimaryTxn txn = db.Begin();
    txn.Insert(t0_, i, {{0, Value(static_cast<int64_t>(i))}});
    ASSERT_TRUE(db.Commit(std::move(txn)).ok());
  }
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 1; i < order.size(); ++i) EXPECT_GT(order[i], order[i - 1]);
}

TEST_F(PrimaryTest, ConcurrentCommitsSerialize) {
  PrimaryDb db(&catalog_, &clock_);
  std::vector<TxnId> order;
  db.SetCommitSink([&](TxnLog txn) { order.push_back(txn.txn_id); });
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&db, this, t] {
      for (int i = 0; i < 200; ++i) {
        PrimaryTxn txn = db.Begin();
        txn.Update(t0_, t * 1000 + i, {{0, Value(static_cast<int64_t>(i))}});
        ASSERT_TRUE(db.Commit(std::move(txn)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(order.size(), 800u);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_EQ(order[i], order[i - 1] + 1);  // gap-free, strictly ordered
  }
}

TEST_F(PrimaryTest, HeartbeatTsIsSafe) {
  PrimaryDb db(&catalog_, &clock_);
  PrimaryTxn txn = db.Begin();
  txn.Insert(t0_, 1, {{0, Value(int64_t{1})}});
  auto before = db.Commit(std::move(txn));
  Timestamp hb = db.AcquireHeartbeatTs();
  EXPECT_GT(hb, before->commit_ts);
  PrimaryTxn txn2 = db.Begin();
  txn2.Insert(t0_, 2, {{0, Value(int64_t{2})}});
  auto after = db.Commit(std::move(txn2));
  EXPECT_GT(after->commit_ts, hb);
}

TEST_F(PrimaryTest, ShipperSealsAndFansOut) {
  PrimaryDb db(&catalog_, &clock_);
  LogShipper shipper(/*epoch_size=*/4);
  EpochChannel ch1, ch2;
  shipper.AttachChannel(&ch1);
  shipper.AttachChannel(&ch2);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  for (int i = 0; i < 10; ++i) {
    PrimaryTxn txn = db.Begin();
    txn.Insert(t0_, i, {{0, Value(static_cast<int64_t>(i))}});
    ASSERT_TRUE(db.Commit(std::move(txn)).ok());
  }
  shipper.Finish();
  // 10 txns at epoch size 4 -> 2 full epochs + 1 partial.
  EXPECT_EQ(shipper.epochs_shipped(), 3u);
  for (EpochChannel* ch : {&ch1, &ch2}) {
    size_t txns = 0;
    EpochId expected = 0;
    while (auto epoch = ch->Receive()) {
      EXPECT_EQ(epoch->epoch_id, expected++);
      txns += epoch->num_txns;
    }
    EXPECT_EQ(txns, 10u);
  }
}

TEST_F(PrimaryTest, HeartbeatsShipWhenIdle) {
  PrimaryDb db(&catalog_, &clock_);
  LogShipper shipper(/*epoch_size=*/100);
  EpochChannel ch;
  shipper.AttachChannel(&ch);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  PrimaryTxn txn = db.Begin();
  txn.Insert(t0_, 1, {{0, Value(int64_t{1})}});
  ASSERT_TRUE(db.Commit(std::move(txn)).ok());

  shipper.StartHeartbeats([&db] { return db.AcquireHeartbeatTs(); },
                          /*interval_us=*/5'000);
  // Wait for at least one heartbeat cycle.
  int waited = 0;
  while (shipper.heartbeats_shipped() == 0 && waited < 2000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++waited;
  }
  shipper.Finish();
  EXPECT_GT(shipper.heartbeats_shipped(), 0u);

  // The idle flush ships the pending partial epoch BEFORE the heartbeat,
  // and the heartbeat timestamp covers that data.
  auto first = ch.Receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->is_heartbeat());
  EXPECT_EQ(first->num_txns, 1u);
  auto second = ch.Receive();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->is_heartbeat());
  EXPECT_GT(second->heartbeat_ts, first->max_commit_ts);
}

}  // namespace
}  // namespace aets
