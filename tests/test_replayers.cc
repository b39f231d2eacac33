// Replayer correctness: every parallel replayer (AETS in several grouping
// configurations, TPLR-ungrouped, ATR, C5) must produce a backup state
// identical to the primary and the serial oracle, publish monotonic
// visibility timestamps, and satisfy Algorithm 3. Includes a parameterized
// random-workload equivalence sweep and failure injection.

#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "aets/baselines/atr_replayer.h"
#include "aets/log/codec.h"
#include "aets/baselines/c5_replayer.h"
#include "aets/baselines/serial_replayer.h"
#include "aets/baselines/tplr_replayer.h"
#include "aets/obs/metrics.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replication/log_shipper.h"
#include "aets/storage/gc_daemon.h"
#include "aets/workload/driver.h"
#include "aets/workload/tpcc.h"
#include "test_seed.h"

namespace aets {
namespace {

// Runs `num_txns` of a random multi-table workload on the primary and ships
// it to every provided replayer; returns the primary digest at the final
// commit timestamp.
struct Pipeline {
  explicit Pipeline(const Catalog* catalog, size_t epoch_size = 16)
      : catalog(catalog), clock(), db(catalog, &clock), shipper(epoch_size) {
    db.SetCommitSink([this](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  }

  EpochChannel* AddChannel() {
    channels.push_back(std::make_unique<EpochChannel>(1024));
    shipper.AttachChannel(channels.back().get());
    return channels.back().get();
  }

  const Catalog* catalog;
  LogicalClock clock;
  PrimaryDb db;
  LogShipper shipper;
  std::vector<std::unique_ptr<EpochChannel>> channels;
};

// A small random workload over `num_tables` tables with inserts, updates,
// deletes, and multi-table transactions.
void RunRandomWorkload(PrimaryDb* db, int num_tables, int num_txns,
                       uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < num_txns; ++i) {
    PrimaryTxn txn = db->Begin();
    int writes = static_cast<int>(rng.UniformInt(1, 6));
    for (int w = 0; w < writes; ++w) {
      TableId table = static_cast<TableId>(rng.UniformInt(0, num_tables - 1));
      int64_t key = rng.UniformInt(0, 199);
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

std::vector<double> RatesForTables(int num_tables) {
  std::vector<double> rates(static_cast<size_t>(num_tables), 0.0);
  // Half the tables are hot with varying rates.
  for (int t = 0; t < num_tables / 2; ++t) {
    rates[static_cast<size_t>(t)] = 10.0 * (t + 1) * (t + 1);
  }
  return rates;
}

// Builds one of each replayer configuration under test.
std::vector<std::unique_ptr<Replayer>> MakeAllReplayers(
    const Catalog* catalog, Pipeline* pipeline, int num_tables) {
  std::vector<std::unique_ptr<Replayer>> replayers;
  std::vector<double> rates = RatesForTables(num_tables);

  {
    AetsOptions options;
    options.replay_threads = 4;
    options.commit_threads = 2;
    options.grouping = GroupingMode::kPerTable;
    options.initial_rates = rates;
    replayers.push_back(std::make_unique<AetsReplayer>(
        catalog, pipeline->AddChannel(), options));
  }
  {
    AetsOptions options;
    options.replay_threads = 3;
    options.commit_threads = 2;
    options.grouping = GroupingMode::kByAccessRate;
    options.initial_rates = rates;
    replayers.push_back(std::make_unique<AetsReplayer>(
        catalog, pipeline->AddChannel(), options));
  }
  {
    AetsOptions options;
    options.replay_threads = 4;
    options.commit_threads = 2;
    options.grouping = GroupingMode::kStatic;
    options.static_hot_groups = {{0, 1}, {2}};
    options.initial_rates = rates;
    replayers.push_back(std::make_unique<AetsReplayer>(
        catalog, pipeline->AddChannel(), options));
  }
  replayers.push_back(
      MakeTplrReplayer(catalog, pipeline->AddChannel(), /*threads=*/4));
  replayers.push_back(std::make_unique<AtrReplayer>(
      catalog, pipeline->AddChannel(), AtrOptions{/*workers=*/4}));
  replayers.push_back(std::make_unique<C5Replayer>(
      catalog, pipeline->AddChannel(),
      C5Options{/*workers=*/4, /*watermark_period_us=*/500}));
  replayers.push_back(
      std::make_unique<SerialReplayer>(catalog, pipeline->AddChannel()));
  return replayers;
}

TEST(ReplayerEquivalenceTest, AllReplayersMatchPrimaryOnRandomWorkload) {
  constexpr int kTables = 6;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  Pipeline pipeline(catalog.get());
  auto replayers = MakeAllReplayers(catalog.get(), &pipeline, kTables);
  for (auto& r : replayers) ASSERT_TRUE(r->Start().ok());

  RunRandomWorkload(&pipeline.db, kTables, /*num_txns=*/800,
                    test::DeriveSeed(42));
  pipeline.shipper.Finish();
  for (auto& r : replayers) r->Stop();

  Timestamp final_ts = pipeline.db.last_commit_ts();
  uint64_t expected = pipeline.db.store().DigestAt(final_ts);
  size_t expected_rows = pipeline.db.store().VisibleRowCount(final_ts);
  for (auto& r : replayers) {
    EXPECT_EQ(r->store()->DigestAt(final_ts), expected) << r->name();
    EXPECT_EQ(r->store()->VisibleRowCount(final_ts), expected_rows)
        << r->name();
    EXPECT_EQ(r->GlobalVisibleTs(), final_ts) << r->name();
    EXPECT_EQ(r->stats().txns.load(), 800u) << r->name();
  }
}

// Parameterized sweep over seeds and epoch sizes.
class ReplayerEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(ReplayerEquivalenceSweep, DigestsMatch) {
  auto [seed, epoch_size] = GetParam();
  constexpr int kTables = 5;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  Pipeline pipeline(catalog.get(), static_cast<size_t>(epoch_size));
  auto replayers = MakeAllReplayers(catalog.get(), &pipeline, kTables);
  for (auto& r : replayers) ASSERT_TRUE(r->Start().ok());

  RunRandomWorkload(&pipeline.db, kTables, /*num_txns=*/300, seed);
  pipeline.shipper.Finish();
  for (auto& r : replayers) r->Stop();

  Timestamp final_ts = pipeline.db.last_commit_ts();
  uint64_t expected = pipeline.db.store().DigestAt(final_ts);
  for (auto& r : replayers) {
    EXPECT_EQ(r->store()->DigestAt(final_ts), expected)
        << r->name() << " seed=" << seed << " epoch=" << epoch_size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReplayerEquivalenceSweep,
    ::testing::Combine(::testing::Values(1u, 7u, 99u),
                       ::testing::Values(1, 8, 64, 1024)));

TEST(ReplayerEquivalenceTest, TpccWorkloadMatches) {
  TpccConfig config;
  config.warehouses = 1;
  config.items = 100;
  config.customers_per_district = 10;
  config.init_orders_per_district = 3;
  TpccWorkload tpcc(config);
  Pipeline pipeline(&tpcc.catalog(), /*epoch_size=*/32);
  auto replayers =
      MakeAllReplayers(&tpcc.catalog(),
                       &pipeline, static_cast<int>(tpcc.catalog().num_tables()));
  for (auto& r : replayers) ASSERT_TRUE(r->Start().ok());

  Rng rng(5);
  tpcc.Load(&pipeline.db, &rng);
  OltpDriver driver(&tpcc, &pipeline.db, 5);
  driver.Run(400);
  pipeline.shipper.Finish();
  for (auto& r : replayers) r->Stop();

  Timestamp final_ts = pipeline.db.last_commit_ts();
  uint64_t expected = pipeline.db.store().DigestAt(final_ts);
  for (auto& r : replayers) {
    EXPECT_EQ(r->store()->DigestAt(final_ts), expected) << r->name();
  }
}

TEST(VisibilityTest, PerGroupPublishBeforeEpochEnd) {
  // With per-table groups, a table's data becomes visible when its group
  // commits, which Algorithm 3 observes through tg_cmt_ts.
  std::unique_ptr<Catalog> catalog(MakeCatalog(2));
  Pipeline pipeline(catalog.get(), /*epoch_size=*/4);
  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  options.initial_rates = {100.0, 0.0};  // table 0 hot, table 1 cold
  AetsReplayer replayer(catalog.get(), pipeline.AddChannel(), options);
  ASSERT_TRUE(replayer.Start().ok());

  RunRandomWorkload(&pipeline.db, 2, 64, 3);
  Timestamp qts = pipeline.db.last_commit_ts();
  pipeline.shipper.Finish();

  // Algorithm 3 for a query on both tables must eventually unblock with all
  // data visible.
  int64_t waited = WaitVisible(replayer, {0, 1}, qts);
  EXPECT_GE(waited, 0);
  EXPECT_TRUE(IsVisible(replayer, {0, 1}, qts));
  replayer.Stop();
  EXPECT_GE(replayer.TableVisibleTs(0), qts);
  EXPECT_EQ(replayer.GlobalVisibleTs(), qts);
}

TEST(VisibilityTest, WatermarkIsMonotonic) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(3));
  Pipeline pipeline(catalog.get(), /*epoch_size=*/8);
  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  options.initial_rates = RatesForTables(3);
  AetsReplayer replayer(catalog.get(), pipeline.AddChannel(), options);
  ASSERT_TRUE(replayer.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  std::thread monitor([&] {
    Timestamp last_global = 0;
    std::vector<Timestamp> last_table(3, 0);
    while (!stop.load()) {
      Timestamp g = replayer.GlobalVisibleTs();
      if (g < last_global) violated.store(true);
      last_global = g;
      for (TableId t = 0; t < 3; ++t) {
        Timestamp ts = replayer.TableVisibleTs(t);
        if (ts < last_table[t]) violated.store(true);
        last_table[t] = ts;
      }
    }
  });
  RunRandomWorkload(&pipeline.db, 3, 500, 9);
  pipeline.shipper.Finish();
  replayer.Stop();
  stop.store(true);
  monitor.join();
  EXPECT_FALSE(violated.load());
}

TEST(FailureInjectionTest, CorruptedPayloadSetsError) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(2));
  EpochChannel channel;
  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  AetsReplayer replayer(catalog.get(), &channel, options);
  ASSERT_TRUE(replayer.Start().ok());

  // Hand-craft an epoch and corrupt one byte mid-payload.
  Epoch epoch;
  TxnLog txn;
  txn.txn_id = 1;
  txn.commit_ts = 1;
  txn.records = {LogRecord::Begin(1, 1, 1),
                 LogRecord::Dml(LogRecordType::kInsert, 2, 1, 1, 0, 1,
                                {{0, Value(int64_t{1})}}),
                 LogRecord::Commit(3, 1, 1)};
  epoch.txns.push_back(txn);
  ShippedEpoch shipped = EncodeEpoch(epoch);
  auto corrupted = std::make_shared<std::string>(*shipped.payload);
  (*corrupted)[corrupted->size() / 2] ^= 0x10;
  shipped.payload = corrupted;
  channel.Send(shipped);
  channel.Close();
  replayer.Stop();
  EXPECT_TRUE(replayer.error().IsCorruption()) << replayer.error().ToString();
}

TEST(FailureInjectionTest, OutOfOrderEpochRejected) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(2));
  EpochChannel channel;
  AetsOptions options;
  options.replay_threads = 1;
  options.grouping = GroupingMode::kSingle;
  AetsReplayer replayer(catalog.get(), &channel, options);
  ASSERT_TRUE(replayer.Start().ok());

  // Epoch id 3 when 0 is expected.
  channel.Send(MakeHeartbeatEpoch(3, 100));
  channel.Close();
  replayer.Stop();
  EXPECT_TRUE(replayer.error().IsCorruption());
}

TEST(FailureInjectionTest, SerialReplayerDetectsCorruption) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(1));
  EpochChannel channel;
  SerialReplayer replayer(catalog.get(), &channel);
  ASSERT_TRUE(replayer.Start().ok());
  channel.Send(MakeHeartbeatEpoch(5, 1));  // wrong first epoch id
  channel.Close();
  replayer.Stop();
  EXPECT_TRUE(replayer.error().IsCorruption());
}

// Models a socket-backed EpochSource whose first NACK for each id hits a
// read timeout: the fetch returns nullopt even though the shipper still
// retains the epoch. In-process, a retention miss is definitive loss; over
// TCP the very same nullopt can be a transient I/O timeout, so the replayer
// must retry before latching.
class TimeoutOnceSource : public EpochSource {
 public:
  explicit TimeoutOnceSource(EpochSource* inner) : inner_(inner) {}

  std::optional<ShippedEpoch> FetchEpoch(EpochId id) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (timed_out_.insert(id).second) {
        ++misses_;
        return std::nullopt;  // simulated read timeout on the NACK RPC
      }
    }
    return inner_->FetchEpoch(id);
  }
  EpochId NextEpochId() const override { return inner_->NextEpochId(); }
  EpochId FloorEpochId() const override { return inner_->FloorEpochId(); }

  int misses() const {
    std::lock_guard<std::mutex> lk(mu_);
    return misses_;
  }

 private:
  EpochSource* inner_;
  mutable std::mutex mu_;
  std::set<EpochId> timed_out_;
  int misses_ = 0;
};

// Ships a workload with one heartbeat in the middle, then replays it with
// `drop_index` removed from the stream so the replayer must NACK it back.
// Returns the primary's final digest for comparison.
struct NackScenario {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Pipeline> pipeline;
  std::vector<ShippedEpoch> epochs;
  size_t heartbeat_index = 0;

  explicit NackScenario(uint64_t seed) {
    catalog.reset(MakeCatalog(2));
    pipeline = std::make_unique<Pipeline>(catalog.get(), /*epoch_size=*/8);
    EpochChannel* tap = pipeline->AddChannel();
    RunRandomWorkload(&pipeline->db, 2, 60, seed);
    pipeline->shipper.ShipHeartbeat(pipeline->db.AcquireHeartbeatTs());
    RunRandomWorkload(&pipeline->db, 2, 60, seed + 1);
    pipeline->shipper.Finish();
    while (auto epoch = tap->TryReceive()) epochs.push_back(std::move(*epoch));
    for (size_t i = 0; i < epochs.size(); ++i) {
      if (epochs[i].is_heartbeat()) {
        heartbeat_index = i;
        break;
      }
    }
  }

};

TEST(RecoveryTest, TransientNackTimeoutOnHeartbeatDoesNotPoisonReplayer) {
  // A heartbeat epoch dropped by the link plus ONE timed-out NACK fetch: the
  // epoch is still in retention, so the replayer must retry (with backoff)
  // and recover instead of latching a terminal Corruption.
  NackScenario scenario(test::DeriveSeed(77));
  ASSERT_GT(scenario.epochs.size(), scenario.heartbeat_index + 1);
  ASSERT_TRUE(scenario.epochs[scenario.heartbeat_index].is_heartbeat());

  EpochChannel channel(1024);
  for (size_t i = 0; i < scenario.epochs.size(); ++i) {
    if (i != scenario.heartbeat_index) {
      ASSERT_TRUE(channel.Send(scenario.epochs[i]));
    }
  }
  channel.Close();

  SerialReplayer replayer(scenario.catalog.get(), &channel);
  TimeoutOnceSource source(&scenario.pipeline->shipper);
  replayer.SetEpochSource(&source);
  ReplayRecoveryOptions options;
  options.max_retries = 4;
  replayer.SetRecoveryOptions(options);
  ASSERT_TRUE(replayer.Start().ok());
  replayer.Stop();

  EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
  EXPECT_GE(source.misses(), 1);
  Timestamp final_ts = scenario.pipeline->db.last_commit_ts();
  EXPECT_EQ(replayer.store()->DigestAt(final_ts),
            scenario.pipeline->db.store().DigestAt(final_ts));
}

TEST(RecoveryTest, TransientNackTimeoutAfterCloseDoesNotPoisonReplayer) {
  // The link swallows the LAST epoch, so recovery happens after the channel
  // closed; the one timed-out fetch must be retried there too.
  NackScenario scenario(test::DeriveSeed(79));
  ASSERT_GT(scenario.epochs.size(), 2u);

  EpochChannel channel(1024);
  for (size_t i = 0; i + 1 < scenario.epochs.size(); ++i) {
    ASSERT_TRUE(channel.Send(scenario.epochs[i]));
  }
  channel.Close();

  SerialReplayer replayer(scenario.catalog.get(), &channel);
  TimeoutOnceSource source(&scenario.pipeline->shipper);
  replayer.SetEpochSource(&source);
  ReplayRecoveryOptions options;
  options.max_retries = 4;
  replayer.SetRecoveryOptions(options);
  ASSERT_TRUE(replayer.Start().ok());
  replayer.Stop();

  EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
  EXPECT_GE(source.misses(), 1);
  Timestamp final_ts = scenario.pipeline->db.last_commit_ts();
  EXPECT_EQ(replayer.store()->DigestAt(final_ts),
            scenario.pipeline->db.store().DigestAt(final_ts));
}

TEST(ReplayerLifecycleTest, StartValidatesOptions) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(1));
  EpochChannel channel;
  AetsOptions options;
  options.replay_threads = 0;
  AetsReplayer replayer(catalog.get(), &channel, options);
  EXPECT_TRUE(replayer.Start().IsInvalidArgument());
  channel.Close();
}

// Threads of this process right now.
size_t ProcessThreadCount() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator()));
}

TEST(ReplayerLifecycleTest, StartedReplayerRunsOnlyItsBudgetedThreads) {
  // One epoch at a time (DESIGN.md §9): a started AetsReplayer runs its
  // main loop, replay_threads replay workers, commit_threads - 1 commit
  // workers (the main loop is the other committer) and the column-merge
  // thread — and no dedicated commit thread.
  std::unique_ptr<Catalog> catalog(MakeCatalog(2));
  EpochChannel channel;
  AetsOptions options;
  options.replay_threads = 3;
  options.commit_threads = 2;
  AetsReplayer replayer(catalog.get(), &channel, options);
  ASSERT_NE(replayer.column_store(), nullptr);
  const size_t before = ProcessThreadCount();
  ASSERT_TRUE(replayer.Start().ok());
  const size_t expected = 1 + static_cast<size_t>(options.replay_threads) +
                          static_cast<size_t>(options.commit_threads - 1) + 1;
  EXPECT_EQ(ProcessThreadCount() - before, expected);
  channel.Close();
  replayer.Stop();
}

TEST(ReplayerLifecycleTest, HeartbeatAdvancesAllTables) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(3));
  EpochChannel channel;
  AetsOptions options;
  options.replay_threads = 1;
  options.grouping = GroupingMode::kPerTable;
  AetsReplayer replayer(catalog.get(), &channel, options);
  ASSERT_TRUE(replayer.Start().ok());
  channel.Send(MakeHeartbeatEpoch(0, 500));
  channel.Close();
  replayer.Stop();
  EXPECT_EQ(replayer.GlobalVisibleTs(), 500u);
  for (TableId t = 0; t < 3; ++t) EXPECT_EQ(replayer.TableVisibleTs(t), 500u);
  EXPECT_TRUE(replayer.error().ok());
}

// Property sweep: the full live pipeline — heartbeats flushing partial
// epochs, concurrent GC on the backup, dynamic regrouping — still converges
// to the primary state for every seed.
class LivePipelineSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LivePipelineSweep, HeartbeatsAndGcPreserveEquivalence) {
  constexpr int kTables = 4;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/32);
  EpochChannel channel(1024);
  shipper.AttachChannel(&channel);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  shipper.StartHeartbeats([&db] { return db.AcquireHeartbeatTs(); },
                          /*interval_us=*/1'000);

  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kByAccessRate;
  options.initial_rates = RatesForTables(kTables);
  AetsReplayer replayer(catalog.get(), &channel, options);
  ASSERT_TRUE(replayer.Start().ok());
  GcDaemon gc(replayer.store(), [&] { return replayer.GlobalVisibleTs(); },
              /*retention=*/20, /*interval_us=*/300);
  gc.Start();

  for (int burst = 0; burst < 5; ++burst) {
    RunRandomWorkload(&db, kTables, 120, GetParam() * 100 + burst);
    // Idle gap: heartbeats flush the partial epoch; queries at "now" must
    // unblock without the shipper finishing.
    Timestamp qts = clock.Now();
    int64_t waited = WaitVisible(replayer, {0, 1, 2, 3}, qts);
    EXPECT_GE(waited, 0);
  }
  shipper.Finish();
  replayer.Stop();
  gc.Stop();

  Timestamp final_ts = db.last_commit_ts();
  EXPECT_EQ(replayer.store()->DigestAt(final_ts),
            db.store().DigestAt(final_ts));
  EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LivePipelineSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------------
// One epoch at a time (DESIGN.md §9): failures inside an epoch's apply
// ---------------------------------------------------------------------------

// One transaction inserting `marker` into `table`'s string column at
// `commit_ts`. The marker makes the string's value bytes findable in the
// encoded payload, so tests can corrupt exactly the region the metadata
// dispatch skips.
TxnLog StringInsertTxn(TableId table, Timestamp commit_ts,
                       const std::string& marker) {
  TxnLog txn;
  txn.txn_id = commit_ts;
  txn.commit_ts = commit_ts;
  uint64_t lsn = commit_ts * 10;
  txn.records = {
      LogRecord::Begin(lsn, txn.txn_id, commit_ts),
      LogRecord::Dml(LogRecordType::kInsert, lsn + 1, txn.txn_id, commit_ts,
                     table, /*key=*/static_cast<int64_t>(commit_ts),
                     {{0, Value(static_cast<int64_t>(commit_ts))},
                      {1, Value(marker)}}),
      LogRecord::Commit(lsn + 2, txn.txn_id, commit_ts)};
  return txn;
}

// One hand-crafted data epoch holding StringInsertTxn(0, commit_ts, marker).
ShippedEpoch MakeStringInsertEpoch(EpochId id, Timestamp commit_ts,
                                   const std::string& marker) {
  Epoch epoch;
  epoch.epoch_id = id;
  epoch.txns.push_back(StringInsertTxn(/*table=*/0, commit_ts, marker));
  return EncodeEpoch(epoch);
}

// Flips one byte inside the epoch's copy of `marker` — i.e. inside a DML
// record's value bytes — and recomputes the epoch-level payload CRC. The
// epoch then passes the receive-side integrity check and the metadata
// dispatch (which skips value bytes and per-record checksums), and fails
// only in phase-1 translation, where DecodeView verifies the record frame.
void CorruptValueBytes(ShippedEpoch* shipped, const std::string& marker) {
  auto tampered = std::make_shared<std::string>(*shipped->payload);
  size_t pos = tampered->find(marker);
  ASSERT_NE(pos, std::string::npos);
  (*tampered)[pos] ^= 0x01;
  shipped->payload = tampered;
  shipped->payload_crc = Crc32c(tampered->data(), tampered->size());
  ASSERT_TRUE(shipped->PayloadIntact());
}

TEST(PipelineTest, ErrorLatchMidPipelineDrainsWithoutPublishing) {
  // Five epochs of one transaction each; epoch 2 carries value-byte
  // corruption that only phase-1 translation detects. Epochs 0-1 publish
  // and count, the latch trips inside epoch 2's apply, and from there on
  // nothing installs: epoch 2's row never lands, epochs 3-4 drain from the
  // channel unapplied, and every watermark stays at epoch 1's timestamp.
  constexpr int kTables = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  EpochChannel channel(64);
  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  AetsReplayer replayer(catalog.get(), &channel, options);
  ASSERT_TRUE(replayer.Start().ok());

  const std::string marker = "pipelatchmarker";
  for (EpochId id = 0; id < 5; ++id) {
    ShippedEpoch shipped = MakeStringInsertEpoch(id, /*commit_ts=*/id + 1,
                                                 marker);
    if (id == 2) CorruptValueBytes(&shipped, marker);
    channel.Send(shipped);
  }
  replayer.bell().WaitUntil([&] { return !replayer.error().ok(); });
  channel.Close();
  replayer.Stop();  // returns: the epochs behind the latch drain unapplied

  EXPECT_TRUE(replayer.error().IsCorruption()) << replayer.error().ToString();
  constexpr Timestamp kEpoch1Ts = 2;
  EXPECT_EQ(replayer.GlobalVisibleTs(), kEpoch1Ts);
  for (TableId t = 0; t < kTables; ++t) {
    EXPECT_EQ(replayer.TableVisibleTs(t), kEpoch1Ts) << "table " << t;
  }
  EXPECT_EQ(replayer.stats().epochs.load(), 2u);
  EXPECT_EQ(replayer.stats().txns.load(), 2u);
  // Epoch k inserts key k + 1 into table 0.
  const Memtable* table = replayer.store()->GetTable(0);
  for (int64_t key = 1; key <= 5; ++key) {
    EXPECT_EQ(table->ReadRow(key, 1000).has_value(), key <= 2) << "key " << key;
  }
}

TEST(PipelineTest, QuietTableWatermarkFrozenByStageFailure) {
  // Regression for the quiet-table watermark leak: with per-table groups,
  // a dimension table untouched by the epoch ("quiet") used to get its
  // tg_cmt_ts published unconditionally at epoch end, BEFORE the error
  // latch was consulted — so a stage failure in the same epoch left the
  // quiet table's watermark past the failure point, and Algorithm 3 would
  // serve a query a snapshot the epoch never earned. The publish now sits
  // after the HasError() check; the first case fails against the old order.
  //
  // The second case hands a committer a fragment nobody translates: table
  // 0 is the hot group and table 1 a cold one, and the single replay worker
  // runs the hot stage's task first. Its corrupt first record latches the
  // error, so the cold task claims nothing and the cold committer can only
  // get past its wait through the latch.
  struct Case {
    const char* name;
    int replay_threads;
    GroupingMode grouping;
    bool cold_txn;  // add a healthy transaction on table 1
  };
  const Case cases[] = {
      {"quiet table 1", 2, GroupingMode::kPerTable, false},
      {"unclaimed cold fragment", 1, GroupingMode::kStatic, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<Catalog> catalog(MakeCatalog(2));
    EpochChannel channel(8);
    AetsOptions options;
    options.replay_threads = c.replay_threads;
    options.grouping = c.grouping;
    options.static_hot_groups = {{0}};  // read by kStatic only
    AetsReplayer replayer(catalog.get(), &channel, options);
    ASSERT_TRUE(replayer.Start().ok());

    // The first transaction touches table 0 and carries the corruption.
    const std::string marker = "quietleakmarker";
    Epoch epoch;
    epoch.txns.push_back(StringInsertTxn(/*table=*/0, /*commit_ts=*/7, marker));
    if (c.cold_txn) {
      epoch.txns.push_back(StringInsertTxn(/*table=*/1, /*commit_ts=*/8,
                                           "coldtablerow"));
    }
    ShippedEpoch shipped = EncodeEpoch(epoch);
    CorruptValueBytes(&shipped, marker);
    channel.Send(shipped);
    channel.Close();
    replayer.Stop();

    EXPECT_TRUE(replayer.error().IsCorruption())
        << replayer.error().ToString();
    // The failed group's table froze...
    EXPECT_EQ(replayer.TableVisibleTs(0), kInvalidTimestamp);
    // ...and table 1 must NOT have been announced visible: not at the
    // epoch's max commit timestamp while quiet, nor at its own untranslated
    // transaction.
    EXPECT_EQ(replayer.TableVisibleTs(1), kInvalidTimestamp);
    EXPECT_EQ(replayer.GlobalVisibleTs(), kInvalidTimestamp);
  }
}

// One transaction at `commit_ts` writing rows `key` and `key + 1` into each
// of `tables`. The second row of `poison_table` carries `marker`, so
// corrupting it fails that group's fragment after its first record already
// translated.
TxnLog MultiTableTxn(const std::vector<TableId>& tables, Timestamp commit_ts,
                     int64_t key, TableId poison_table,
                     const std::string& marker) {
  TxnLog txn;
  txn.txn_id = commit_ts;
  txn.commit_ts = commit_ts;
  uint64_t lsn = commit_ts * 100;
  txn.records.push_back(LogRecord::Begin(lsn++, txn.txn_id, commit_ts));
  for (TableId t : tables) {
    for (int64_t k : {key, key + 1}) {
      std::string text =
          t == poison_table && k == key + 1 ? marker : "row" + std::to_string(k);
      txn.records.push_back(LogRecord::Dml(
          LogRecordType::kInsert, lsn++, txn.txn_id, commit_ts, t, k,
          {{0, Value(static_cast<int64_t>(commit_ts))}, {1, Value(text)}}));
    }
  }
  txn.records.push_back(LogRecord::Commit(lsn, txn.txn_id, commit_ts));
  return txn;
}

TEST(PipelineTest, StageFailureInlineOrPooledGroupPublishesNothing) {
  // Table 0 is the one-group hot stage, which the main loop commits
  // itself; tables 1-3 form a multi-group cold stage whose groups the
  // main loop and the commit pool's jobs claim; table 4 stays quiet.
  // Epoch 0 commits cleanly at ts 10. Epoch 1 (ts 20) carries a corrupt
  // record in one group — once in the hot group, once in a cold group. In
  // both cases the poisoned fragment's first row (translated before the
  // corrupt one) is never installed, the poisoned group's and the quiet
  // table's watermarks stay at 10, and the epoch publishes nothing: no
  // global watermark, no epoch count, no column generation.
  constexpr int kTables = 5;
  const std::vector<TableId> written = {0, 1, 2, 3};
  const std::string marker = "stagepoisonmarker";
  struct Case {
    const char* name;
    TableId poison;
  };
  for (const Case& c : {Case{"main-loop group", 0},
                        Case{"multi-group stage, first group", 1},
                        Case{"multi-group stage, last group", 3}}) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
    EpochChannel channel(8);
    AetsOptions options;
    options.replay_threads = 2;
    options.commit_threads = 3;
    options.grouping = GroupingMode::kStatic;
    options.static_hot_groups = {{0}};
    AetsReplayer replayer(catalog.get(), &channel, options);
    replayer.column_store()->Project(c.poison);
    ASSERT_TRUE(replayer.Start().ok());

    Epoch clean;
    clean.epoch_id = 0;
    clean.txns.push_back(MultiTableTxn(written, 10, /*key=*/1,
                                       /*poison_table=*/kTables, marker));
    channel.Send(EncodeEpoch(clean));
    Epoch bad;
    bad.epoch_id = 1;
    bad.txns.push_back(MultiTableTxn(written, 20, /*key=*/5, c.poison, marker));
    ShippedEpoch shipped = EncodeEpoch(bad);
    CorruptValueBytes(&shipped, marker);
    channel.Send(shipped);
    channel.Close();
    replayer.Stop();

    EXPECT_TRUE(replayer.error().IsCorruption()) << replayer.error().ToString();
    const Memtable* poisoned = replayer.store()->GetTable(c.poison);
    EXPECT_TRUE(poisoned->ReadRow(1, 10).has_value());  // epoch 0 landed
    EXPECT_FALSE(poisoned->ReadRow(5, 1000).has_value());
    EXPECT_FALSE(poisoned->ReadRow(6, 1000).has_value());
    EXPECT_EQ(replayer.TableVisibleTs(c.poison), 10u);
    EXPECT_EQ(replayer.TableVisibleTs(4), 10u);  // quiet table
    EXPECT_EQ(replayer.GlobalVisibleTs(), 10u);
    EXPECT_EQ(replayer.stats().epochs.load(), 1u);
    EXPECT_EQ(replayer.stats().txns.load(), 1u);
    EXPECT_EQ(replayer.column_store()->PublishedTs(c.poison), 10u);
  }
}

TEST(PipelineTest, SingleCommitThreadReplaysToPrimaryDigest) {
  // commit_threads = 1 leaves the main loop without a commit pool: it
  // commits every group of every stage itself, in turn.
  constexpr int kTables = 6;
  for (int replay_threads : {1, 3}) {
    SCOPED_TRACE(replay_threads);
    std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
    Pipeline pipeline(catalog.get(), /*epoch_size=*/8);
    AetsOptions options;
    options.replay_threads = replay_threads;
    options.commit_threads = 1;
    options.grouping = GroupingMode::kPerTable;
    options.initial_rates = RatesForTables(kTables);
    AetsReplayer replayer(catalog.get(), pipeline.AddChannel(), options);
    ASSERT_TRUE(replayer.Start().ok());
    RunRandomWorkload(&pipeline.db, kTables, /*num_txns=*/300,
                      test::DeriveSeed(83));
    pipeline.shipper.Finish();
    replayer.Stop();
    Timestamp final_ts = pipeline.db.last_commit_ts();
    ASSERT_TRUE(replayer.error().ok()) << replayer.error().ToString();
    EXPECT_EQ(replayer.GlobalVisibleTs(), final_ts);
    EXPECT_EQ(replayer.store()->DigestAt(final_ts),
              pipeline.db.store().DigestAt(final_ts));
    EXPECT_EQ(replayer.stats().txns.load(), 300u);
  }
}

// A NACK source that misses every fetch until released, then serves
// `epochs` by id: a gap the replayer can only wait out.
class HeldSource : public EpochSource {
 public:
  explicit HeldSource(std::vector<ShippedEpoch> epochs)
      : epochs_(std::move(epochs)) {}

  std::optional<ShippedEpoch> FetchEpoch(EpochId id) override {
    fetches_.fetch_add(1);
    if (!released_.load() || id >= epochs_.size()) return std::nullopt;
    return epochs_[id];
  }
  EpochId NextEpochId() const override { return epochs_.size(); }

  void Release() { released_.store(true); }
  uint64_t fetches() const { return fetches_.load(); }

 private:
  const std::vector<ShippedEpoch> epochs_;
  std::atomic<bool> released_{false};
  std::atomic<uint64_t> fetches_{0};
};

int64_t ProcessCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1'000;
}

TEST(ReplayRecoveryTest, GapWaitDoesNotBurnCpu) {
  // A gap whose NACK keeps missing, under a retry budget that never runs
  // out: the replayer alternates reorder windows and NACKs for as long as
  // the gap stays open. Between attempts it parks on the channel, so ~100 ms
  // of waiting costs the process a small fraction of that in CPU. Covers the
  // live-channel gap (epoch 1 arrived, epoch 0 did not) and the post-close
  // tail (nothing arrived).
  std::unique_ptr<Catalog> catalog(MakeCatalog(2));
  const std::vector<ShippedEpoch> epochs = {
      MakeStringInsertEpoch(0, /*commit_ts=*/1, "gapwaitzero"),
      MakeStringInsertEpoch(1, /*commit_ts=*/2, "gapwaitone")};
  for (bool closed_tail : {false, true}) {
    SCOPED_TRACE(closed_tail ? "closed channel, missing tail" : "live gap");
    EpochChannel channel;
    HeldSource source(epochs);
    SerialReplayer replayer(catalog.get(), &channel);
    replayer.SetEpochSource(&source);
    ReplayRecoveryOptions options;
    options.max_retries = 1 << 30;
    replayer.SetRecoveryOptions(options);
    ASSERT_TRUE(replayer.Start().ok());
    if (closed_tail) {
      channel.Close();
    } else {
      ASSERT_TRUE(channel.Send(epochs[1]));
    }
    while (source.fetches() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const int64_t cpu_start = ProcessCpuMicros();
    const int64_t wall_start = MonotonicMicros();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const int64_t cpu_us = ProcessCpuMicros() - cpu_start;
    const int64_t wall_us = MonotonicMicros() - wall_start;
    const uint64_t fetches = source.fetches();

    source.Release();
    channel.Close();
    replayer.Stop();
    EXPECT_LT(cpu_us, wall_us / 4)
        << "wall " << wall_us << " us, " << fetches << " NACK fetches";
    EXPECT_TRUE(replayer.error().ok()) << replayer.error().ToString();
    EXPECT_EQ(replayer.GlobalVisibleTs(), 2u);
  }
}

TEST(ReplayerStatsTest, PhaseBreakdownAccumulates) {
  std::unique_ptr<Catalog> catalog(MakeCatalog(4));
  Pipeline pipeline(catalog.get(), /*epoch_size=*/16);
  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  options.initial_rates = RatesForTables(4);
  AetsReplayer replayer(catalog.get(), pipeline.AddChannel(), options);
  ASSERT_TRUE(replayer.Start().ok());
  RunRandomWorkload(&pipeline.db, 4, 200, 17);
  pipeline.shipper.Finish();
  replayer.Stop();

  const ReplayStats& stats = replayer.stats();
  EXPECT_EQ(stats.txns.load(), 200u);
  EXPECT_GT(stats.records.load(), 0u);
  EXPECT_GT(stats.bytes.load(), 0u);
  EXPECT_GT(stats.dispatch_ns.load(), 0);
  EXPECT_GT(stats.replay_ns.load(), 0);
  EXPECT_GT(stats.commit_ns.load(), 0);
  // The replay phase dominates (paper Table II: > 98%). Allow slack on a
  // loaded CI machine but the ordering must hold.
  EXPECT_GT(stats.ReplayFraction(), stats.DispatchFraction());
  EXPECT_GT(stats.ReplayFraction(), stats.CommitFraction());
  double total = stats.DispatchFraction() + stats.ReplayFraction() +
                 stats.CommitFraction();
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ReplayerStatsTest, ObservabilityMetricsPopulatedAfterReplay) {
  // The aets::obs registry is process-wide; scope this test's readings.
  obs::MetricsRegistry::Instance().ResetAll();

  std::unique_ptr<Catalog> catalog(MakeCatalog(4));
  Pipeline pipeline(catalog.get(), /*epoch_size=*/16);
  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  options.initial_rates = RatesForTables(4);
  AetsReplayer replayer(catalog.get(), pipeline.AddChannel(), options);
  ASSERT_TRUE(replayer.Start().ok());
  RunRandomWorkload(&pipeline.db, 4, 200, 23);
  pipeline.shipper.Finish();

  // An OLAP query waiting for visibility populates the replay-lag series.
  Timestamp query_ts = pipeline.clock.Now();
  WaitVisible(replayer, {0, 1, 2, 3}, query_ts);
  replayer.Stop();

  obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();

  // Volume counters: every shipped txn was applied exactly once.
  EXPECT_GT(snap.counters.at("replay.epochs_applied"), 0u);
  EXPECT_EQ(snap.counters.at("replay.txns_applied"), 200u);
  EXPECT_GT(snap.counters.at("replay.records_applied"), 0u);
  EXPECT_GT(snap.counters.at("replay.bytes_applied"), 0u);
  EXPECT_EQ(snap.counters.at("shipper.txns_shipped"), 200u);

  // Replay lag: the published watermark reached the query timestamp, and
  // the visibility series recorded the wait.
  EXPECT_GE(snap.gauges.at("replay.global_visible_ts"),
            static_cast<int64_t>(query_ts));
  EXPECT_GT(snap.counters.at("visibility.queries"), 0u);
  EXPECT_GT(snap.histograms.at("visibility.wait_us").count, 0);

  // Per-stage latency series: the epoch span plus both replay stages ran
  // (RatesForTables(4) makes tables 0-1 hot and 2-3 cold).
  EXPECT_GT(snap.histograms.at("replay.epoch_apply_us").count, 0);
  EXPECT_GT(snap.histograms.at("span.replay.epoch").count, 0);
  EXPECT_GT(snap.histograms.at("span.replay.dispatch").count, 0);
  EXPECT_GT(snap.histograms.at("span.replay.stage1_hot").count, 0);
  EXPECT_GT(snap.histograms.at("span.replay.stage2_cold").count, 0);

  // Thread-allocator series: groups exist and per-group thread gauges were
  // published during the run.
  EXPECT_GT(snap.gauges.at("allocator.groups"), 0);
  ASSERT_TRUE(snap.gauges.count("allocator.group_threads.g0"));
  EXPECT_GE(snap.gauges.at("allocator.group_threads.g0"), 0);

  // Channel accounting balances: everything sent was received.
  EXPECT_GT(snap.counters.at("channel.epochs_sent"), 0u);
  EXPECT_EQ(snap.gauges.at("channel.depth"), 0);
}

}  // namespace
}  // namespace aets
