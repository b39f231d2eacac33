// Experiment-harness tests: recorded logs, batch replay, catch-up runs, the
// replayer factory, and the table printer — the machinery every paper bench
// stands on.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "aets/bench/harness.h"
#include "aets/workload/tpcc.h"
#include "test_seed.h"

namespace aets {
namespace {

TpccConfig TinyTpcc() {
  TpccConfig config;
  config.warehouses = 1;
  config.items = 40;
  config.customers_per_district = 5;
  config.init_orders_per_district = 1;
  return config;
}

TEST(HarnessTest, RecordWorkloadProducesOrderedEpochs) {
  TpccWorkload tpcc(TinyTpcc());
  RecordedLog log = RecordWorkload(&tpcc, /*num_txns=*/100, /*epoch_size=*/16,
                                   test::DeriveSeed(3));
  EXPECT_EQ(log.mix_txns, 100u);
  EXPECT_GT(log.load_txns, 0u);
  EXPECT_GT(log.final_ts, log.load_end_ts);
  EXPECT_FALSE(log.epochs.empty());
  EpochId expected = 0;
  uint64_t txns = 0;
  for (const auto& epoch : log.epochs) {
    EXPECT_EQ(epoch.epoch_id, expected++);
    EXPECT_FALSE(epoch.is_heartbeat());
    txns += epoch.num_txns;
  }
  EXPECT_EQ(txns, log.load_txns + log.mix_txns);
}

TEST(HarnessTest, ReplayRecordedMatchesForEveryKind) {
  TpccWorkload tpcc(TinyTpcc());
  RecordedLog log = RecordWorkload(&tpcc, 150, 32, 4);
  for (int shards : {1, 2}) {
    for (ReplayerKind kind :
         {ReplayerKind::kAets, ReplayerKind::kAetsNoTwoStage,
          ReplayerKind::kAetsNoac, ReplayerKind::kAetsSingleCommit,
          ReplayerKind::kTplr, ReplayerKind::kAtr, ReplayerKind::kC5,
          ReplayerKind::kSerial}) {
      SCOPED_TRACE(KindName(kind) + " shards=" + std::to_string(shards));
      ReplayerSpec spec;
      spec.kind = kind;
      spec.threads = 2;
      spec.grouping = GroupingMode::kStatic;
      spec.hot_groups = tpcc.DefaultHotGroups();
      spec.shard_count = shards;
      BatchReplayResult r = ReplayRecorded(log, &tpcc.catalog(), spec);
      EXPECT_EQ(r.name, KindName(kind));
      EXPECT_TRUE(r.state_matches_primary);
      EXPECT_GT(r.txns_per_sec, 0.0);
      EXPECT_GT(r.wall_us, 0);
      EXPECT_NEAR(r.dispatch_frac + r.replay_frac + r.commit_frac, 1.0, 1e-9);
    }
  }
}

TEST(HarnessDeathTest, LiveAndCatchUpRejectShardCount) {
  // RunLive and RunCatchUp replay through one bare replayer; a shard count
  // they would silently ignore stops instead.
  TpccWorkload tpcc(TinyTpcc());
  RecordedLog log = RecordWorkload(&tpcc, 20, 16, 8);
  ReplayerSpec spec;
  spec.shard_count = 2;
  EXPECT_DEATH(RunCatchUp(log, &tpcc, spec, CatchUpOptions{}),
               "shard_count must be 1");
  TpccConfig config = TinyTpcc();
  EXPECT_DEATH(RunLive(
                   [config]() -> std::unique_ptr<Workload> {
                     return std::make_unique<TpccWorkload>(config);
                   },
                   spec, LiveRunOptions{}),
               "shard_count must be 1");
}

TEST(HarnessTest, KindNamesAreDistinct) {
  EXPECT_EQ(KindName(ReplayerKind::kAets), "AETS");
  EXPECT_EQ(KindName(ReplayerKind::kTplr), "TPLR");
  EXPECT_EQ(KindName(ReplayerKind::kAtr), "ATR");
  EXPECT_EQ(KindName(ReplayerKind::kC5), "C5");
  EXPECT_EQ(KindName(ReplayerKind::kSerial), "Serial");
}

TEST(HarnessTest, TplrFactoryReportsItsName) {
  TpccWorkload tpcc(TinyTpcc());
  EpochChannel channel;
  ReplayerSpec spec;
  spec.kind = ReplayerKind::kTplr;
  auto replayer = MakeReplayer(spec, &tpcc.catalog(), &channel);
  EXPECT_EQ(replayer->name(), "TPLR");
  channel.Close();
}

TEST(HarnessTest, CatchUpRunRecordsDelays) {
  TpccWorkload tpcc(TinyTpcc());
  RecordedLog log = RecordWorkload(&tpcc, 200, 32, 5);
  ReplayerSpec spec;
  spec.kind = ReplayerKind::kAets;
  spec.threads = 2;
  spec.grouping = GroupingMode::kStatic;
  spec.hot_groups = tpcc.DefaultHotGroups();

  CatchUpOptions options;
  options.queries = 50;
  options.lead_txns = 32;
  CatchUpResult r = RunCatchUp(log, &tpcc, spec, options);
  EXPECT_TRUE(r.state_matches_primary);
  EXPECT_GE(r.mean_delay_us, 0.0);
  EXPECT_GE(r.p99_delay_us, r.p50_delay_us);
  EXPECT_GT(r.drain_wall_us, 0);
  EXPECT_EQ(r.per_query_mean_us.size(), tpcc.analytic_queries().size());
}

TEST(HarnessTest, CatchUpOnDelayCallbackFires) {
  TpccWorkload tpcc(TinyTpcc());
  RecordedLog log = RecordWorkload(&tpcc, 100, 16, 6);
  ReplayerSpec spec;
  spec.kind = ReplayerKind::kAtr;
  spec.threads = 1;
  CatchUpOptions options;
  options.queries = 20;
  std::atomic<uint64_t> calls{0};
  options.on_delay = [&](uint64_t index, int64_t delay) {
    EXPECT_LT(index, 20u);
    EXPECT_GE(delay, 0);
    calls.fetch_add(1);
  };
  (void)RunCatchUp(log, &tpcc, spec, options);
  EXPECT_EQ(calls.load(), 20u);
}

// Sets (or, with nullptr, unsets) an environment variable for one scope and
// restores the caller's value on exit, so a test does not depend on what the
// environment exports (CI sets AETS_BENCH_SCALE for every step).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value == nullptr) {
      unsetenv(name);
    } else {
      setenv(name, value, /*overwrite=*/1);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_, old_->c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(HarnessTest, ScaledRespectsFloor) {
  {
    // Without AETS_BENCH_SCALE set, Scaled is the identity with a floor.
    ScopedEnv unset("AETS_BENCH_SCALE", nullptr);
    EXPECT_EQ(Scaled(100, 10), 100u);
    EXPECT_GE(Scaled(0, 5), 5u);
  }
  {
    // With a scale exported, the floor still holds under the scaled value.
    ScopedEnv scale("AETS_BENCH_SCALE", "0.2");
    EXPECT_EQ(Scaled(100, 10), 20u);
    EXPECT_EQ(Scaled(100, 30), 30u);
    EXPECT_GE(Scaled(0, 5), 5u);
  }
}

TEST(HarnessTest, LiveRunEndToEnd) {
  ReplayerSpec spec;
  spec.kind = ReplayerKind::kAets;
  spec.threads = 2;
  spec.grouping = GroupingMode::kStatic;
  TpccConfig config = TinyTpcc();
  spec.hot_groups = TpccWorkload(config).DefaultHotGroups();

  LiveRunOptions options;
  options.oltp_txns = 150;
  options.olap_queries = 30;
  options.epoch_size = 32;
  options.heartbeat_interval_us = 2'000;
  LiveRunResult r = RunLive(
      [config]() -> std::unique_ptr<Workload> {
        return std::make_unique<TpccWorkload>(config);
      },
      spec, options);
  EXPECT_TRUE(r.state_matches_primary);
  EXPECT_EQ(r.queries, 30u);
}

}  // namespace
}  // namespace aets
