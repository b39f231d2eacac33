// Epoch-loss recovery under a hostile link: FaultInjectingChannel
// determinism, duplicate/drop/reorder/corruption recovery through the
// shipper's retention buffer, send-failure accounting, and crash-restart
// resume through a checkpoint plus retention drain.
//
// This binary has its own main(): `--chaos_iters=N` (or AETS_CHAOS_ITERS)
// scales the chaos sweeps for the nightly high-iteration run; the default
// keeps the suite CI-fast.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "aets/baselines/atr_replayer.h"
#include "aets/baselines/c5_replayer.h"
#include "aets/baselines/serial_replayer.h"
#include "aets/baselines/tplr_replayer.h"
#include <filesystem>

#include "aets/obs/metrics.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replication/durable_source.h"
#include "aets/replication/fault_injection.h"
#include "aets/replication/log_shipper.h"
#include "aets/sim/reference_model.h"
#include "aets/storage/checkpoint.h"
#include "aets/storage/segment_store.h"
#include "test_seed.h"

static int g_chaos_iters = 2;

namespace aets {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Catalog* MakeCatalog(int num_tables) {
  auto* catalog = new Catalog();
  for (int t = 0; t < num_tables; ++t) {
    AETS_CHECK(catalog
                   ->RegisterTable("t" + std::to_string(t),
                                   Schema::Of({{"a", ColumnType::kInt64},
                                               {"b", ColumnType::kString}}))
                   .ok());
  }
  return catalog;
}

void RunRandomWorkload(PrimaryDb* db, int num_tables, int num_txns,
                       uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < num_txns; ++i) {
    PrimaryTxn txn = db->Begin();
    int writes = static_cast<int>(rng.UniformInt(1, 5));
    for (int w = 0; w < writes; ++w) {
      TableId table = static_cast<TableId>(rng.UniformInt(0, num_tables - 1));
      int64_t key = rng.UniformInt(0, 149);
      int kind = static_cast<int>(rng.UniformInt(0, 9));
      if (kind < 5) {
        txn.Insert(table, key,
                   {{0, Value(static_cast<int64_t>(i))},
                    {1, Value(rng.AlphaString(4, 12))}});
      } else if (kind < 9) {
        txn.Update(table, key, {{0, Value(static_cast<int64_t>(i * 10))}});
      } else {
        txn.Delete(table, key);
      }
    }
    ASSERT_TRUE(db->Commit(std::move(txn)).ok());
  }
}

// One single-txn data epoch with the given id, for driving channels directly.
ShippedEpoch MakeDataEpoch(EpochId id, Timestamp ts) {
  Epoch epoch;
  epoch.epoch_id = id;
  TxnLog txn;
  txn.txn_id = static_cast<TxnId>(id + 1);
  txn.commit_ts = ts;
  txn.records = {LogRecord::Begin(1, txn.txn_id, ts),
                 LogRecord::Dml(LogRecordType::kInsert, 2, txn.txn_id, ts, 0,
                                static_cast<int64_t>(id),
                                {{0, Value(static_cast<int64_t>(id))}}),
                 LogRecord::Commit(3, txn.txn_id, ts)};
  epoch.txns.push_back(std::move(txn));
  return EncodeEpoch(epoch);
}

ReplayRecoveryOptions FastRecovery() {
  ReplayRecoveryOptions options;
  options.max_retries = 16;
  options.max_pending = 4096;
  return options;
}

// ---------------------------------------------------------------------------
// FaultInjectingChannel behavior.

TEST(FaultChannelTest, SameSeedSameFaultSchedule) {
  FaultProfile profile;
  profile.drop = 0.2;
  profile.duplicate = 0.2;
  profile.reorder = 0.2;
  profile.corrupt = 0.2;
  profile.seed = test::DeriveSeed(7);

  auto run = [&profile]() {
    FaultInjectingChannel channel(profile, /*capacity=*/4096);
    for (EpochId id = 0; id < 64; ++id) {
      EXPECT_TRUE(channel.Send(MakeDataEpoch(id, id + 1)));
    }
    channel.Close();
    // The delivered sequence (ids + intact flags) is part of the schedule.
    std::vector<std::pair<EpochId, bool>> delivered;
    while (auto e = channel.TryReceive()) {
      delivered.emplace_back(e->epoch_id, e->PayloadIntact());
    }
    return std::make_tuple(channel.drops(), channel.duplicates(),
                           channel.reorders(), channel.corruptions(),
                           delivered);
  };

  auto first = run();
  auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::get<0>(first) + std::get<1>(first) + std::get<2>(first) +
                std::get<3>(first),
            0u);
}

TEST(FaultChannelTest, DropIsSilentAtTheSender) {
  FaultProfile profile;
  profile.drop = 1.0;
  FaultInjectingChannel channel(profile);
  // A lossy wire gives no feedback: Send must still report success.
  EXPECT_TRUE(channel.Send(MakeDataEpoch(0, 1)));
  EXPECT_TRUE(channel.Send(MakeDataEpoch(1, 2)));
  EXPECT_EQ(channel.drops(), 2u);
  EXPECT_EQ(channel.PendingEpochs(), 0u);
  channel.Close();
  EXPECT_FALSE(channel.TryReceive().has_value());
}

TEST(FaultChannelTest, CorruptionKeepsDeclaredCrcSoReceiversDetectIt) {
  FaultProfile profile;
  profile.corrupt = 1.0;
  FaultInjectingChannel channel(profile);
  ShippedEpoch sent = MakeDataEpoch(0, 1);
  ASSERT_TRUE(sent.PayloadIntact());
  EXPECT_TRUE(channel.Send(sent));
  channel.Close();
  auto received = channel.TryReceive();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload_crc, sent.payload_crc);
  EXPECT_FALSE(received->PayloadIntact());
  EXPECT_EQ(channel.corruptions(), 1u);
  // The sender's copy shares no bytes with the damaged one.
  EXPECT_TRUE(sent.PayloadIntact());
}

TEST(FaultChannelTest, ReorderSlotIsFlushedOnClose) {
  FaultProfile profile;
  profile.reorder = 1.0;
  FaultInjectingChannel channel(profile);
  EXPECT_TRUE(channel.Send(MakeDataEpoch(0, 1)));  // held back
  channel.Close();                                 // must not lose it
  auto received = channel.TryReceive();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->epoch_id, 0u);
  EXPECT_FALSE(channel.TryReceive().has_value());
}

// ---------------------------------------------------------------------------
// Shipper-side accounting (the silent-drop bugfixes).

TEST(ShipperTest, StartHeartbeatsIsIdempotent) {
  LogShipper shipper(/*epoch_size=*/4);
  EpochChannel channel(0);
  shipper.AttachChannel(&channel);
  std::atomic<Timestamp> ts{10};
  auto source = [&ts]() -> Timestamp { return ts.fetch_add(1) + 1; };
  shipper.StartHeartbeats(source, /*interval_us=*/200);
  // Used to overwrite heartbeat_thread_ without joining -> std::terminate.
  shipper.StartHeartbeats(source, /*interval_us=*/200);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  shipper.Finish();
  EXPECT_GE(shipper.heartbeats_shipped(), 1u);
}

TEST(ShipperTest, FinishWakesTheSealer) {
  // The sealer sleeps toward a heartbeat 1 s away; Finish must not wait it
  // out. The fastest of a few teardowns is compared, so one preemption of
  // a loaded test host does not decide the result.
  auto fastest = std::chrono::steady_clock::duration::max();
  for (int attempt = 0; attempt < 5; ++attempt) {
    LogShipper shipper(/*epoch_size=*/4);
    EpochChannel channel(0);
    shipper.AttachChannel(&channel);
    std::atomic<Timestamp> ts{10};
    shipper.StartHeartbeats([&ts] { return ts.fetch_add(1) + 1; },
                            /*interval_us=*/1'000'000);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // it parks
    auto start = std::chrono::steady_clock::now();
    shipper.Finish();
    fastest = std::min(fastest, std::chrono::steady_clock::now() - start);
    EXPECT_EQ(shipper.heartbeats_shipped(), 0u);
  }
  EXPECT_LT(fastest, std::chrono::milliseconds(5));
}

/// A one-insert transaction committed at `ts` on table 0.
TxnLog OneInsertTxn(Timestamp ts) {
  TxnLog txn;
  txn.txn_id = ts;
  txn.commit_ts = ts;
  txn.records = {LogRecord::Begin(3 * ts, ts, ts),
                 LogRecord::Dml(LogRecordType::kInsert, 3 * ts + 1, ts, ts, 0,
                                static_cast<int64_t>(ts),
                                {{0, Value(static_cast<int64_t>(ts))}}),
                 LogRecord::Commit(3 * ts + 2, ts, ts)};
  return txn;
}

TEST(ShipperTest, SealsPartialEpochAtAgeBound) {
  constexpr int64_t kAgeUs = 2'000;
  LogShipper shipper(/*epoch_size=*/16);
  EpochChannel channel(0);
  shipper.AttachChannel(&channel);
  std::atomic<Timestamp> ts{100};
  shipper.StartHeartbeats([&ts] { return ts.fetch_add(1) + 1; },
                          /*interval_us=*/1'000'000, kAgeUs);
  auto start = std::chrono::steady_clock::now();
  shipper.OnCommit(OneInsertTxn(1));
  auto got = channel.ReceiveUntil(start + std::chrono::milliseconds(500));
  auto took = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(got.has_value()) << "the open epoch never sealed on age";
  EXPECT_FALSE(got->is_heartbeat());
  EXPECT_EQ(got->epoch_id, 0u);
  EXPECT_EQ(got->num_txns, 1u);
  // Sealed by age: not before the bound, and well before the first
  // heartbeat (which would also have flushed it).
  EXPECT_GE(took, std::chrono::microseconds(kAgeUs));
  EXPECT_EQ(shipper.heartbeats_shipped(), 0u);
  shipper.Finish();
}

TEST(ShipperTest, SizeTriggerStillBindsUnderLoad) {
  constexpr size_t kEpochSize = 4;
  constexpr Timestamp kTxns = 40;
  LogShipper shipper(kEpochSize);
  EpochChannel channel(0);
  shipper.AttachChannel(&channel);
  std::atomic<Timestamp> ts{1000};
  // Commits arrive back to back, far inside the 200 ms age bound: every
  // epoch fills before it ages.
  shipper.StartHeartbeats([&ts] { return ts.fetch_add(1) + 1; },
                          /*interval_us=*/1'000'000,
                          /*max_epoch_age_us=*/200'000);
  for (Timestamp t = 1; t <= kTxns; ++t) shipper.OnCommit(OneInsertTxn(t));
  for (EpochId id = 0; id < kTxns / kEpochSize; ++id) {
    auto got = channel.TryReceive();
    ASSERT_TRUE(got.has_value()) << "epoch " << id;
    EXPECT_EQ(got->epoch_id, id);
    EXPECT_EQ(got->num_txns, kEpochSize) << "epoch " << id;
  }
  EXPECT_FALSE(channel.TryReceive().has_value());
  shipper.Finish();
}

TEST(ShipperTest, AgeSealRacesFlushFetchFinish) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(1));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/8, /*retention_capacity=*/100'000);
  EpochChannel channel(0);
  shipper.AttachChannel(&channel);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  shipper.StartHeartbeats([&db] { return db.AcquireHeartbeatTs(); },
                          /*interval_us=*/300, /*max_epoch_age_us=*/100);

  std::atomic<bool> finished{false};
  std::thread committer([&] {
    for (int64_t i = 0; i < 3000 && !finished.load(); ++i) {
      PrimaryTxn txn = db.Begin();
      txn.Insert(0, i, {{0, Value(i)}, {1, Value(std::string("v"))}});
      ASSERT_TRUE(db.Commit(std::move(txn)).ok());
      if (i % 64 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });
  std::thread flusher([&] {
    while (!finished.load()) {
      shipper.FlushEpoch();
      std::this_thread::sleep_for(std::chrono::microseconds(150));
    }
  });
  std::thread fetcher([&] {
    Rng rng(test::DeriveSeed(7));
    while (!finished.load()) {
      EpochId next = shipper.NextEpochId();
      if (next > 0) {
        EpochId id = static_cast<EpochId>(rng.UniformInt(0, next - 1));
        EXPECT_TRUE(shipper.FetchEpoch(id).has_value()) << "epoch " << id;
      }
    }
  });
  std::thread finisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    shipper.Finish();
    finished.store(true);
  });
  finisher.join();
  committer.join();
  flusher.join();
  fetcher.join();

  // Every epoch id arrives once, in order, with commit order preserved.
  EpochId expect = 0;
  Timestamp last_commit = 0;
  while (auto got = channel.TryReceive()) {
    EXPECT_EQ(got->epoch_id, expect++);
    if (got->is_heartbeat()) continue;
    EXPECT_GT(got->max_commit_ts, last_commit);
    last_commit = got->max_commit_ts;
  }
  EXPECT_EQ(expect, shipper.NextEpochId());
  EXPECT_GT(expect, 0u);
  EXPECT_EQ(shipper.epochs_produced(),
            shipper.epochs_shipped() + shipper.epochs_dropped());
}

TEST(ShipperTest, ClosedChannelSendsAreCountedNotShipped) {
  // Channel outlives the shipper: ~LogShipper closes attached channels.
  EpochChannel channel(4);
  LogShipper shipper(/*epoch_size=*/1);
  shipper.AttachChannel(&channel);
  channel.Close();

  TxnLog txn;
  txn.txn_id = 1;
  txn.commit_ts = 1;
  txn.records = {LogRecord::Begin(1, 1, 1),
                 LogRecord::Dml(LogRecordType::kInsert, 2, 1, 1, 0, 1,
                                {{0, Value(int64_t{1})}}),
                 LogRecord::Commit(3, 1, 1)};
  shipper.OnCommit(std::move(txn));  // seals epoch 0, fan-out fails

  EXPECT_EQ(shipper.epochs_shipped(), 0u);
  EXPECT_EQ(shipper.send_failures(), 1u);
  EXPECT_EQ(shipper.epochs_dropped(), 1u);
  // The epoch is still retained: a late NACK can recover what the dead
  // channel never carried.
  EXPECT_TRUE(shipper.FetchEpoch(0).has_value());
  EXPECT_EQ(shipper.retransmits(), 1u);
}

// ---------------------------------------------------------------------------
// Recovery protocol, one fault class at a time.

TEST(RecoveryTest, DuplicatedEpochsAreSkippedWithoutError) {
  constexpr int kTables = 3;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/8);
  FaultProfile profile;
  profile.duplicate = 1.0;  // every epoch arrives twice
  FaultInjectingChannel channel(profile, /*capacity=*/4096);
  shipper.AttachChannel(&channel);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  SerialReplayer replayer(catalog.get(), &channel);
  ASSERT_TRUE(replayer.Start().ok());
  RunRandomWorkload(&db, kTables, 200, test::DeriveSeed(11));
  shipper.Finish();
  replayer.Stop();

  EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
  Timestamp final_ts = db.last_commit_ts();
  EXPECT_EQ(replayer.store()->DigestAt(final_ts),
            db.store().DigestAt(final_ts));
  EXPECT_GT(replayer.stats().duplicates_dropped.load(), 0u);
  EXPECT_GT(channel.duplicates(), 0u);
}

// Records the full epoch stream of a workload, so tests can replay it into a
// channel with surgical losses.
std::vector<ShippedEpoch> RecordWorkload(PrimaryDb* db, LogShipper* shipper,
                                         int num_tables, int num_txns,
                                         uint64_t seed) {
  EpochChannel recorder(0);
  shipper->AttachChannel(&recorder);
  RunRandomWorkload(db, num_tables, num_txns, seed);
  shipper->Finish();
  std::vector<ShippedEpoch> epochs;
  while (auto e = recorder.TryReceive()) epochs.push_back(std::move(*e));
  return epochs;
}

TEST(RecoveryTest, DroppedEpochIsRecoveredViaRetransmit) {
  constexpr int kTables = 3;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/16, /*retention_capacity=*/1024);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  auto epochs = RecordWorkload(&db, &shipper, kTables, 400, test::DeriveSeed(21));
  ASSERT_GT(epochs.size(), 4u);

  // Drop epoch 2 on the floor; everything else arrives in order.
  EpochChannel channel(0);
  for (size_t i = 0; i < epochs.size(); ++i) {
    if (i != 2) {
      ASSERT_TRUE(channel.Send(epochs[i]));
    }
  }
  channel.Close();

  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  AetsReplayer replayer(catalog.get(), &channel, options);
  replayer.SetEpochSource(&shipper);
  replayer.SetRecoveryOptions(FastRecovery());
  ASSERT_TRUE(replayer.Start().ok());
  replayer.Stop();

  EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
  Timestamp final_ts = db.last_commit_ts();
  EXPECT_EQ(replayer.store()->DigestAt(final_ts),
            db.store().DigestAt(final_ts));
  EXPECT_GE(replayer.stats().epochs_retried.load(), 1u);
  EXPECT_GE(shipper.retransmits(), 1u);
}

TEST(RecoveryTest, TailLossIsRecoveredAfterChannelClose) {
  // The last epoch vanishes and nothing after it ever reveals the gap; the
  // final drain against the source's NextEpochId must still find it.
  constexpr int kTables = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/16, /*retention_capacity=*/1024);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  auto epochs = RecordWorkload(&db, &shipper, kTables, 300, test::DeriveSeed(31));
  ASSERT_GT(epochs.size(), 2u);

  EpochChannel channel(0);
  for (size_t i = 0; i + 1 < epochs.size(); ++i) {
    ASSERT_TRUE(channel.Send(epochs[i]));
  }
  channel.Close();

  SerialReplayer replayer(catalog.get(), &channel);
  replayer.SetEpochSource(&shipper);
  replayer.SetRecoveryOptions(FastRecovery());
  ASSERT_TRUE(replayer.Start().ok());
  replayer.Stop();

  EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
  Timestamp final_ts = db.last_commit_ts();
  EXPECT_EQ(replayer.store()->DigestAt(final_ts),
            db.store().DigestAt(final_ts));
  EXPECT_GE(replayer.stats().epochs_retried.load(), 1u);
}

TEST(RecoveryTest, CorruptedEpochIsRefetchedClean) {
  constexpr int kTables = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/16, /*retention_capacity=*/1024);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  auto epochs = RecordWorkload(&db, &shipper, kTables, 300, test::DeriveSeed(41));
  ASSERT_GT(epochs.size(), 3u);

  EpochChannel channel(0);
  for (size_t i = 0; i < epochs.size(); ++i) {
    ShippedEpoch e = epochs[i];
    if (i == 1) {
      auto damaged = std::make_shared<std::string>(*e.payload);
      (*damaged)[damaged->size() / 3] ^= 0x40;
      e.payload = std::move(damaged);
    }
    ASSERT_TRUE(channel.Send(std::move(e)));
  }
  channel.Close();

  SerialReplayer replayer(catalog.get(), &channel);
  replayer.SetEpochSource(&shipper);
  replayer.SetRecoveryOptions(FastRecovery());
  ASSERT_TRUE(replayer.Start().ok());
  replayer.Stop();

  EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
  Timestamp final_ts = db.last_commit_ts();
  EXPECT_EQ(replayer.store()->DigestAt(final_ts),
            db.store().DigestAt(final_ts));
  EXPECT_GE(replayer.stats().corrupt_dropped.load(), 1u);
  EXPECT_GE(replayer.stats().epochs_retried.load(), 1u);
}

TEST(ShipperTest, ConservationProducedEqualsShippedPlusDropped) {
  // Every produced epoch is either shipped or dropped, exactly once; spills
  // are a disjoint dimension (where the epoch lives, not whether it made it
  // out) and must never leak into either count.
  constexpr int kTables = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);

  std::string dir = TempPath("shipper_conservation_seg");
  std::filesystem::remove_all(dir);
  SegmentStoreOptions seg_options;
  seg_options.dir = dir;
  auto store = SegmentStore::Open(seg_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  LogShipper shipper(/*epoch_size=*/4, /*retention_capacity=*/3);
  shipper.AttachSegmentStore(store->get());
  EpochChannel channel(0);
  shipper.AttachChannel(&channel);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  // Phase 1: live channel — everything ships; the tiny retention spills.
  RunRandomWorkload(&db, kTables, 120, test::DeriveSeed(55));
  shipper.FlushEpoch();
  shipper.ShipHeartbeat(db.AcquireHeartbeatTs());
  EXPECT_GT(shipper.epochs_spilled(), 0u);
  EXPECT_EQ(shipper.epochs_dropped(), 0u);
  EXPECT_EQ(shipper.epochs_produced(),
            shipper.epochs_shipped() + shipper.epochs_dropped());

  // Phase 2: the channel dies — epochs now count dropped, never shipped,
  // and still exactly once each even though every one of them also spills
  // through the retention buffer eventually.
  channel.Close();
  RunRandomWorkload(&db, kTables, 120, test::DeriveSeed(56));
  shipper.Finish();
  EXPECT_GT(shipper.epochs_dropped(), 0u);
  EXPECT_EQ(shipper.epochs_produced(),
            shipper.epochs_shipped() + shipper.epochs_dropped());
  EXPECT_EQ(shipper.spill_failures(), 0u);
  // Eager appends mean the durable log holds the full sequence regardless
  // of channel fate.
  EXPECT_EQ((*store)->next_epoch(), shipper.NextEpochId());
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, EvictedEpochIsACleanTerminalError) {
  // The loss is older than the retention window and no durable tier is
  // attached: recovery must fail loudly (re-bootstrap guidance), never
  // silently skip.
  constexpr int kTables = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/4, /*retention_capacity=*/2);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  auto epochs = RecordWorkload(&db, &shipper, kTables, 200, test::DeriveSeed(51));
  ASSERT_GT(epochs.size(), 8u);

  // A lost head is NACKed while later epochs sit parked; a lost tail is
  // NACKed after the channel closed, with nothing parked. Retention holds
  // only the last two epochs, so the third-from-last is already evicted.
  const size_t n = epochs.size();
  for (bool lose_tail : {false, true}) {
    SCOPED_TRACE(lose_tail ? "epochs n-3.. lost" : "epoch 0 lost");
    EpochChannel channel(0);
    for (size_t i = lose_tail ? 0 : 1; i < (lose_tail ? n - 3 : n); ++i) {
      ASSERT_TRUE(channel.Send(epochs[i]));
    }
    channel.Close();

    SerialReplayer replayer(catalog.get(), &channel);
    replayer.SetEpochSource(&shipper);
    replayer.SetRecoveryOptions(FastRecovery());
    ASSERT_TRUE(replayer.Start().ok());
    replayer.Stop();

    EXPECT_TRUE(replayer.error().IsCorruption())
        << replayer.error().ToString();
    EXPECT_NE(replayer.error().ToString().find("evicted"), std::string::npos)
        << replayer.error().ToString();
    EXPECT_EQ(replayer.next_expected_epoch(), lose_tail ? n - 3 : 0u);
  }
}

TEST(RecoveryTest, NackBelowTruncationFloorIsBelowCheckpointNotLoss) {
  // The durable tier is attached but checkpoint-coordinated truncation has
  // already dropped the oldest segments. A NACK for an epoch below the
  // truncation floor must come back as BelowCheckpoint — the epoch is
  // covered by a checkpoint image, so the replayer should be told to
  // re-bootstrap, never misdiagnose Corruption or permanent loss.
  constexpr int kTables = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);

  std::string dir = TempPath("below_ckpt_seg");
  std::filesystem::remove_all(dir);
  SegmentStoreOptions seg_options;
  seg_options.dir = dir;
  seg_options.segment_max_bytes = 1024;  // several sealed segments
  auto store = SegmentStore::Open(seg_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  LogShipper shipper(/*epoch_size=*/4, /*retention_capacity=*/2);
  shipper.AttachSegmentStore(store->get());
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  auto epochs = RecordWorkload(&db, &shipper, kTables, 200, test::DeriveSeed(51));
  ASSERT_GT(epochs.size(), 8u);

  // Truncate under (simulated) checkpoint coverage: every epoch below the
  // active segment leaves the disk.
  ASSERT_TRUE((*store)->TruncateBelow((*store)->next_epoch()).ok());
  const size_t floor = static_cast<size_t>((*store)->first_epoch());
  EXPECT_EQ(shipper.FloorEpochId(), floor);
  // The lost tail starts below both the floor and retention (the last two
  // epochs), so its head is gone from RAM and from disk.
  const size_t lost_from = std::min(floor, epochs.size() - 2) - 1;
  ASSERT_GT(lost_from, 0u);

  // A lost head is NACKed while later epochs sit parked; a lost tail is
  // NACKed after the channel closed, with nothing parked.
  for (bool lose_tail : {false, true}) {
    SCOPED_TRACE(lose_tail ? "tail lost" : "epoch 0 lost");
    EpochChannel channel(0);
    for (size_t i = lose_tail ? 0 : 1;
         i < (lose_tail ? lost_from : epochs.size()); ++i) {
      ASSERT_TRUE(channel.Send(epochs[i]));
    }
    channel.Close();

    SerialReplayer replayer(catalog.get(), &channel);
    replayer.SetEpochSource(&shipper);
    replayer.SetRecoveryOptions(FastRecovery());
    ASSERT_TRUE(replayer.Start().ok());
    replayer.Stop();

    EXPECT_TRUE(replayer.error().IsBelowCheckpoint())
        << replayer.error().ToString();
    EXPECT_FALSE(replayer.error().IsCorruption());
    EXPECT_NE(replayer.error().ToString().find("truncation floor"),
              std::string::npos)
        << replayer.error().ToString();
    EXPECT_EQ(replayer.next_expected_epoch(), lose_tail ? lost_from : 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ShipperTest, ConservationHoldsWhenSpillsLandBelowTheFloor) {
  // Truncation must not bend the conservation ledger: an eviction whose
  // epoch is already below the durable log's floor is checkpoint-covered
  // (spills_below_floor), not a spill, and produced == shipped + dropped
  // stays intact through the whole episode.
  constexpr int kTables = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);

  std::string dir = TempPath("conservation_truncated_seg");
  std::filesystem::remove_all(dir);
  SegmentStoreOptions seg_options;
  seg_options.dir = dir;
  seg_options.segment_max_bytes = 1024;
  auto store = SegmentStore::Open(seg_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  LogShipper shipper(/*epoch_size=*/4, /*retention_capacity=*/8);
  shipper.AttachSegmentStore(store->get());
  EpochChannel channel(0);
  shipper.AttachChannel(&channel);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  // Phase 1: fill the retention window, then truncate everything sealed —
  // every epoch still retained in RAM now sits below the floor.
  RunRandomWorkload(&db, kTables, 150, test::DeriveSeed(57));
  shipper.FlushEpoch();
  ASSERT_TRUE((*store)->TruncateBelow((*store)->next_epoch()).ok());
  ASSERT_GT((*store)->first_epoch(), 0u);
  EXPECT_EQ(shipper.spills_below_floor(), 0u);

  // Phase 2: keep committing. Evictions of the pre-floor entries are
  // checkpoint-covered; later evictions (post-floor ids) spill normally.
  RunRandomWorkload(&db, kTables, 150, test::DeriveSeed(58));
  shipper.Finish();
  EXPECT_GT(shipper.spills_below_floor(), 0u);
  EXPECT_GT(shipper.epochs_spilled(), 0u);
  EXPECT_EQ(shipper.epochs_produced(),
            shipper.epochs_shipped() + shipper.epochs_dropped());
  EXPECT_EQ(shipper.spill_failures(), 0u);
  // The durable log still carries the uninterrupted tail from the floor.
  EXPECT_EQ((*store)->next_epoch(), shipper.NextEpochId());
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, EvictedEpochIsServedFromDiskWithDurableTier) {
  // Same loss, but the durable tier is attached: eviction became a spill,
  // and the NACK for the long-evicted epoch is served by a disk fetch
  // instead of latching the terminal error.
  constexpr int kTables = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);

  std::string dir = TempPath("evicted_from_disk_seg");
  std::filesystem::remove_all(dir);
  SegmentStoreOptions seg_options;
  seg_options.dir = dir;
  auto store = SegmentStore::Open(seg_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  LogShipper shipper(/*epoch_size=*/4, /*retention_capacity=*/2);
  shipper.AttachSegmentStore(store->get());
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  auto epochs = RecordWorkload(&db, &shipper, kTables, 200, test::DeriveSeed(51));
  ASSERT_GT(epochs.size(), 8u);
  ASSERT_GT(shipper.epochs_spilled(), 0u);

  EpochChannel channel(0);
  for (size_t i = 1; i < epochs.size(); ++i) {  // epoch 0 never arrives
    ASSERT_TRUE(channel.Send(epochs[i]));
  }
  channel.Close();

  SerialReplayer replayer(catalog.get(), &channel);
  replayer.SetEpochSource(&shipper);
  replayer.SetRecoveryOptions(FastRecovery());
  ASSERT_TRUE(replayer.Start().ok());
  replayer.Stop();

  EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
  Timestamp final_ts = db.last_commit_ts();
  EXPECT_EQ(replayer.store()->DigestAt(final_ts),
            db.store().DigestAt(final_ts));
  EXPECT_GT(shipper.retransmits(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, DiskFullDegradesToTheLegacyEvictionError) {
  // The durable tier is attached but the disk filled up immediately: every
  // append fails (spill_failures), epochs stay RAM-only, and eviction is
  // the legacy terminal loss again — degraded, not aborted.
  constexpr int kTables = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);

  std::string dir = TempPath("disk_full_seg");
  std::filesystem::remove_all(dir);
  SegmentStoreOptions seg_options;
  seg_options.dir = dir;
  seg_options.segment_max_bytes = 1024;
  seg_options.write_fault_hook = [](size_t) {
    return Status::Internal("injected: disk full");
  };
  auto store = SegmentStore::Open(seg_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  LogShipper shipper(/*epoch_size=*/4, /*retention_capacity=*/2);
  shipper.AttachSegmentStore(store->get());
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  auto epochs = RecordWorkload(&db, &shipper, kTables, 200, test::DeriveSeed(51));
  ASSERT_GT(epochs.size(), 8u);
  EXPECT_GT(shipper.spill_failures(), 0u);
  EXPECT_EQ(shipper.epochs_spilled(), 0u);  // nothing durable ever spilled
  EXPECT_TRUE((*store)->empty());
  // Conservation holds under full-disk degradation too.
  EXPECT_EQ(shipper.epochs_produced(),
            shipper.epochs_shipped() + shipper.epochs_dropped());

  EpochChannel channel(0);
  for (size_t i = 1; i < epochs.size(); ++i) {  // epoch 0 lost forever
    ASSERT_TRUE(channel.Send(epochs[i]));
  }
  channel.Close();

  SerialReplayer replayer(catalog.get(), &channel);
  replayer.SetEpochSource(&shipper);
  replayer.SetRecoveryOptions(FastRecovery());
  ASSERT_TRUE(replayer.Start().ok());
  replayer.Stop();

  EXPECT_TRUE(replayer.error().IsCorruption()) << replayer.error().ToString();
  EXPECT_NE(replayer.error().ToString().find("evicted"), std::string::npos)
      << replayer.error().ToString();
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, GapWithoutSourceStaysTerminal) {
  // Pre-recovery contract: no EpochSource attached means any gap latches.
  std::unique_ptr<Catalog> catalog(MakeCatalog(1));
  EpochChannel channel(0);
  SerialReplayer replayer(catalog.get(), &channel);
  ASSERT_TRUE(replayer.Start().ok());
  channel.Send(MakeDataEpoch(0, 1));
  channel.Send(MakeDataEpoch(2, 3));  // gap at 1
  channel.Close();
  replayer.Stop();
  EXPECT_TRUE(replayer.error().IsCorruption());
}

// ---------------------------------------------------------------------------
// Crash-restart: checkpoint, miss epochs while down, resume through the
// shipper's retention buffer.

TEST(CrashRestartTest, ResumesFromCheckpointThroughRetention) {
  constexpr int kTables = 3;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/16, /*retention_capacity=*/4096);
  EpochChannel channel1(0);
  shipper.AttachChannel(&channel1);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;

  // Phase 1: a live backup replays the first burst, then "crashes": its
  // channel dies, it checkpoints its last consistent state and goes away.
  std::string path = TempPath("ckpt_crash_restart");
  EpochId resume_epoch = 0;
  {
    AetsReplayer first(catalog.get(), &channel1, options);
    ASSERT_TRUE(first.Start().ok());
    RunRandomWorkload(&db, kTables, 300, test::DeriveSeed(61));
    channel1.Close();
    first.Stop();
    ASSERT_TRUE(first.error().ok()) << first.error().ToString();
    ASSERT_TRUE(first.WriteCheckpoint(path).ok());
    resume_epoch = first.next_expected_epoch();
    ASSERT_GT(resume_epoch, 0u);
  }

  // Phase 2: the primary keeps committing while the backup is down. Sends
  // hit the dead channel and are counted dropped — but stay retained.
  RunRandomWorkload(&db, kTables, 300, test::DeriveSeed(62));
  shipper.Finish();
  EXPECT_GT(shipper.epochs_dropped(), 0u);
  EXPECT_GT(shipper.send_failures(), 0u);

  // Phase 3: restart. Bootstrap from the checkpoint, attach the retention
  // source, and drain everything missed while down.
  EpochChannel channel2(0);
  channel2.Close();
  AetsReplayer resumed(catalog.get(), &channel2, options);
  ASSERT_TRUE(resumed.Bootstrap(path).ok());
  EXPECT_EQ(resumed.next_expected_epoch(), resume_epoch);
  resumed.SetEpochSource(&shipper);
  resumed.SetRecoveryOptions(FastRecovery());
  ASSERT_TRUE(resumed.Start().ok());
  resumed.Stop();

  EXPECT_TRUE(resumed.error().ok()) << resumed.error().ToString();
  Timestamp final_ts = db.last_commit_ts();
  EXPECT_EQ(resumed.store()->DigestAt(final_ts),
            db.store().DigestAt(final_ts));
  EXPECT_EQ(resumed.GlobalVisibleTs(), final_ts);
  EXPECT_GT(resumed.stats().epochs_retried.load(), 0u);
  EXPECT_GT(shipper.retransmits(), 0u);
  std::remove(path.c_str());
}

TEST(CrashRestartTest, DurableRecoveryFromSegmentTailIsExact) {
  // The full restart path (DESIGN.md §10): checkpoint into the segment
  // directory mid-run, lose the process, reopen the store, bootstrap from
  // the newest image, and replay the segment tail through the normal loop
  // via DurableEpochSource. The sim oracle's ReferenceModel then verifies
  // the recovered snapshot row for row, not just by digest.
  constexpr int kTables = 3;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);

  std::string dir = TempPath("durable_crash_restart_seg");
  std::filesystem::remove_all(dir);
  SegmentStoreOptions seg_options;
  seg_options.dir = dir;
  seg_options.segment_max_bytes = 16 << 10;  // force a few rollovers

  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;

  // Phase 1: live replication with the durable tier attached. The backup
  // checkpoints into the segment directory, then the process "dies" — the
  // primary keeps committing into the durable log with no one listening.
  {
    auto store = SegmentStore::Open(seg_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    LogShipper shipper(/*epoch_size=*/8, /*retention_capacity=*/4);
    shipper.AttachSegmentStore(store->get());
    EpochChannel channel(0);
    shipper.AttachChannel(&channel);
    db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

    AetsReplayer live(catalog.get(), &channel, options);
    ASSERT_TRUE(live.Start().ok());
    RunRandomWorkload(&db, kTables, 300, test::DeriveSeed(71));
    shipper.FlushEpoch();
    while (live.error().ok() &&
           live.GlobalVisibleTs() < db.last_commit_ts()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_TRUE(live.error().ok()) << live.error().ToString();
    ASSERT_TRUE(live.WriteCheckpoint(
                        CheckpointPathFor(dir, live.next_expected_epoch()))
                    .ok());

    // More commits after the checkpoint: this is the tail recovery must
    // replay from the segments. The backup is gone (channel closed).
    channel.Close();
    live.Stop();
    RunRandomWorkload(&db, kTables, 300, test::DeriveSeed(72));
    shipper.Finish();
    EXPECT_GT(shipper.epochs_dropped(), 0u);
    EXPECT_EQ(shipper.epochs_produced(),
              shipper.epochs_shipped() + shipper.epochs_dropped());
  }

  // Phase 2: restart from disk alone.
  auto reopened = SegmentStore::Open(seg_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  DurableEpochSource source(reopened->get());

  auto checkpoints = ListCheckpointFiles(dir);
  ASSERT_EQ(checkpoints.size(), 1u);
  EpochChannel closed(0);
  closed.Close();
  AetsReplayer recovered(catalog.get(), &closed, options);
  ASSERT_TRUE(recovered.Bootstrap(checkpoints.front()).ok());
  EpochId bootstrapped_at = recovered.next_expected_epoch();
  ASSERT_GT(bootstrapped_at, 0u);
  ASSERT_LT(bootstrapped_at, (*reopened)->next_epoch());  // a real tail
  recovered.SetEpochSource(&source);
  recovered.SetRecoveryOptions(FastRecovery());
  ASSERT_TRUE(recovered.Start().ok());
  recovered.Stop();
  ASSERT_TRUE(recovered.error().ok()) << recovered.error().ToString();

  // Digest equality with the primary at its final commit...
  Timestamp final_ts = db.last_commit_ts();
  EXPECT_EQ(recovered.GlobalVisibleTs(), final_ts);
  EXPECT_EQ(recovered.store()->DigestAt(final_ts),
            db.store().DigestAt(final_ts));

  // ...and the oracle's exactness probe: rebuild the reference history from
  // the durable log and compare row for row.
  sim::ReferenceModel model(kTables);
  for (EpochId id = 0; id < (*reopened)->next_epoch(); ++id) {
    auto epoch = (*reopened)->Read(id);
    ASSERT_TRUE(epoch.has_value()) << id;
    ASSERT_TRUE(model.Apply(*epoch).ok());
  }
  Status exact = model.ExpectStoreExact(*recovered.store(), final_ts);
  EXPECT_TRUE(exact.ok()) << exact.ToString();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Chaos acceptance: every replayer, all fault classes at once, fixed seeds.

struct ChaosReplayerSpec {
  const char* label;
  std::function<std::unique_ptr<Replayer>(const Catalog*, EpochChannel*)>
      make;
};

std::vector<ChaosReplayerSpec> ChaosReplayerSpecs(int num_tables) {
  std::vector<double> rates(static_cast<size_t>(num_tables), 0.0);
  for (int t = 0; t < num_tables / 2; ++t) {
    rates[static_cast<size_t>(t)] = 10.0 * (t + 1) * (t + 1);
  }
  std::vector<ChaosReplayerSpec> specs;
  specs.push_back({"aets-per-table",
                   [rates](const Catalog* c, EpochChannel* ch) {
                     AetsOptions o;
                     o.replay_threads = 3;
                     o.commit_threads = 2;
                     o.grouping = GroupingMode::kPerTable;
                     o.initial_rates = rates;
                     return std::make_unique<AetsReplayer>(c, ch, o);
                   }});
  specs.push_back({"aets-by-rate",
                   [rates](const Catalog* c, EpochChannel* ch) {
                     AetsOptions o;
                     o.replay_threads = 3;
                     o.commit_threads = 2;
                     o.grouping = GroupingMode::kByAccessRate;
                     o.initial_rates = rates;
                     return std::make_unique<AetsReplayer>(c, ch, o);
                   }});
  specs.push_back({"tplr", [](const Catalog* c, EpochChannel* ch) {
                     return std::make_unique<AetsReplayer>(
                         c, ch, TplrBaselineOptions(/*replay_threads=*/3));
                   }});
  specs.push_back({"atr", [](const Catalog* c, EpochChannel* ch) {
                     return std::make_unique<AtrReplayer>(
                         c, ch, AtrOptions{/*workers=*/3});
                   }});
  specs.push_back({"c5", [](const Catalog* c, EpochChannel* ch) {
                     return std::make_unique<C5Replayer>(
                         c, ch,
                         C5Options{/*workers=*/3, /*watermark_period_us=*/500});
                   }});
  specs.push_back({"serial", [](const Catalog* c, EpochChannel* ch) {
                     return std::make_unique<SerialReplayer>(c, ch);
                   }});
  return specs;
}

TEST(ChaosTest, AllReplayersConvergeUnderChaos) {
  constexpr int kTables = 5;
  for (int round = 0; round < g_chaos_iters; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    obs::MetricsRegistry::Instance().ResetAll();

    std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
    LogicalClock clock;
    PrimaryDb db(catalog.get(), &clock);
    LogShipper shipper(/*epoch_size=*/8, /*retention_capacity=*/8192);
    db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

    // The acceptance profile: 5% drop, 5% duplicate, 1% corruption, plus a
    // dash of reordering. Seeds are fixed per (round, replayer), so a
    // failure reproduces exactly.
    FaultProfile profile;
    profile.drop = 0.05;
    profile.duplicate = 0.05;
    profile.corrupt = 0.01;
    profile.reorder = 0.03;

    auto specs = ChaosReplayerSpecs(kTables);
    std::vector<std::unique_ptr<FaultInjectingChannel>> channels;
    std::vector<std::unique_ptr<Replayer>> replayers;
    for (size_t i = 0; i < specs.size(); ++i) {
      FaultProfile p = profile;
      p.seed = test::DeriveSeed(1000u * static_cast<uint64_t>(round + 1) + i);
      channels.push_back(
          std::make_unique<FaultInjectingChannel>(p, /*capacity=*/4096));
      shipper.AttachChannel(channels.back().get());
      replayers.push_back(specs[i].make(catalog.get(), channels.back().get()));
      replayers.back()->SetEpochSource(&shipper);
      if (auto* base = dynamic_cast<ReplayerBase*>(replayers.back().get())) {
        base->SetRecoveryOptions(FastRecovery());
      }
    }
    for (auto& r : replayers) ASSERT_TRUE(r->Start().ok());

    RunRandomWorkload(&db, kTables, 600,
                      test::DeriveSeed(100u * static_cast<uint64_t>(round) + 9));
    shipper.Finish();
    for (auto& r : replayers) r->Stop();

    uint64_t faults = 0;
    for (auto& ch : channels) faults += ch->faults_injected();
    EXPECT_GT(faults, 0u);

    // Zero silent loss: every replayer is digest-equal to the primary.
    Timestamp final_ts = db.last_commit_ts();
    uint64_t expected = db.store().DigestAt(final_ts);
    size_t expected_rows = db.store().VisibleRowCount(final_ts);
    for (size_t i = 0; i < replayers.size(); ++i) {
      EXPECT_TRUE(replayers[i]->error().ok())
          << specs[i].label << ": " << replayers[i]->error().ToString();
      EXPECT_EQ(replayers[i]->store()->DigestAt(final_ts), expected)
          << specs[i].label;
      EXPECT_EQ(replayers[i]->store()->VisibleRowCount(final_ts),
                expected_rows)
          << specs[i].label;
      EXPECT_EQ(replayers[i]->stats().txns.load(), 600u) << specs[i].label;
    }

    // The recovery machinery demonstrably ran.
    EXPECT_GT(shipper.retransmits(), 0u);
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
    EXPECT_GT(snap.counters.at("shipper.retransmits"), 0u);
    EXPECT_GT(snap.counters.at("replay.epochs_duplicate_dropped"), 0u);
    EXPECT_GT(snap.counters.at("replay.epochs_retried"), 0u);

    // Conserved accounting with many consumers on one lane: retransmits and
    // link-level faults never leak into the produced/shipped/dropped books.
    EXPECT_EQ(shipper.epochs_produced(),
              shipper.epochs_shipped() + shipper.epochs_dropped());
    EXPECT_EQ(shipper.shard_produced(0),
              shipper.shard_shipped(0) + shipper.shard_dropped(0));
  }
}

TEST(ChaosTest, HeartbeatsSurviveChaos) {
  constexpr int kTables = 4;
  for (int round = 0; round < g_chaos_iters; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
    LogicalClock clock;
    PrimaryDb db(catalog.get(), &clock);
    LogShipper shipper(/*epoch_size=*/32, /*retention_capacity=*/8192);
    FaultProfile profile;
    profile.drop = 0.05;
    profile.duplicate = 0.05;
    profile.reorder = 0.03;
    profile.corrupt = 0.01;
    profile.seed = test::DeriveSeed(77u + static_cast<uint64_t>(round));
    FaultInjectingChannel channel(profile, /*capacity=*/4096);
    shipper.AttachChannel(&channel);
    db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
    shipper.StartHeartbeats([&db] { return db.AcquireHeartbeatTs(); },
                            /*interval_us=*/1'000);

    AetsOptions options;
    options.replay_threads = 2;
    options.grouping = GroupingMode::kPerTable;
    AetsReplayer replayer(catalog.get(), &channel, options);
    replayer.SetEpochSource(&shipper);
    replayer.SetRecoveryOptions(FastRecovery());
    ASSERT_TRUE(replayer.Start().ok());

    for (int burst = 0; burst < 3; ++burst) {
      RunRandomWorkload(&db, kTables, 100,
                        test::DeriveSeed(200u * static_cast<uint64_t>(round) + burst));
      // Idle gap: heartbeats (also subject to the faulty link) must keep
      // advancing visibility, with losses repaired through retention.
      Timestamp qts = clock.Now();
      EXPECT_GE(WaitVisible(replayer, {0, 1, 2, 3}, qts), 0);
    }
    shipper.Finish();
    replayer.Stop();

    EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
    Timestamp final_ts = db.last_commit_ts();
    EXPECT_EQ(replayer.store()->DigestAt(final_ts),
              db.store().DigestAt(final_ts));
    // Heartbeat epochs are produced/shipped through the same conserved books
    // as data epochs.
    EXPECT_EQ(shipper.epochs_produced(),
              shipper.epochs_shipped() + shipper.epochs_dropped());
  }
}

}  // namespace
}  // namespace aets

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  aets::test::InitSeedFromArgs(&argc, argv);
  aets::test::InstallSeedBanner();
  if (const char* env = std::getenv("AETS_CHAOS_ITERS")) {
    g_chaos_iters = std::max(1, std::atoi(env));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--chaos_iters=";
    if (arg.rfind(prefix, 0) == 0) {
      g_chaos_iters = std::max(1, std::atoi(arg.c_str() + prefix.size()));
    }
  }
  return RUN_ALL_TESTS();
}
