// Deterministic simulation harness with a snapshot-consistency oracle.
//
// Every scenario: record a seeded workload through a real PrimaryDb +
// LogShipper, build the single-threaded reference model, replay the stream
// into a replayer under test, and assert snapshot exactness, watermark
// monotonicity, transaction atomicity, and GC safety against the model
// (src/aets/sim/). All five replayers run the same scenarios.
//
// This binary has its own main(): `--sim_iters=N` (or AETS_SIM_ITERS) scales
// the scenario count; `--seed=N` (or AETS_TEST_SEED) re-seeds the whole
// suite, and every failure prints the seed plus the shrunk scenario.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "aets/baselines/atr_replayer.h"
#include "aets/baselines/c5_replayer.h"
#include "aets/baselines/serial_replayer.h"
#include "aets/baselines/tplr_replayer.h"
#include "aets/common/clock.h"
#include "aets/replay/aets_replayer.h"
#include "aets/sim/oracle.h"
#include "aets/sim/reference_model.h"
#include "aets/sim/scenario.h"
#include "test_seed.h"

static int g_sim_iters = 50;
// Backup shard count for the seeded sweeps (DESIGN.md §11). 0 keeps the
// built-in counts: N = 1 for the SimOracleTest sweeps and the N ∈ {2, 3, 4}
// matrix for the ShardedSimOracleTest sweeps. --shard_count=N (or
// AETS_SHARD_COUNT), N >= 1, pins every seeded sweep to N lanes; the skew
// and shrink tests keep their own counts. CI smoke runs pin N=3.
static int g_shard_count = 0;

namespace aets {
namespace {

using sim::ScenarioResult;
using sim::ScenarioSpec;
using sim::SimMode;

// ---------------------------------------------------------------------------
// The replayer factories under test (same shapes as the chaos suite).

struct SimReplayerSpec {
  const char* label;
  sim::ReplayerFactory make;
  /// Maintains a columnar projection the oracle's parity probe compares.
  bool columnar = false;
};

std::vector<SimReplayerSpec> AllReplayerSpecs() {
  std::vector<SimReplayerSpec> specs;
  specs.push_back({"aets-per-table", [](const Catalog* c, EpochChannel* ch) {
                     AetsOptions o;
                     o.replay_threads = 3;
                     o.commit_threads = 2;
                     o.grouping = GroupingMode::kPerTable;
                     return std::make_unique<AetsReplayer>(c, ch, o);
                   },
                   /*columnar=*/true});
  // Tiny column chunks: every generation splits into many chunks, so the
  // chaos scenarios drive the rebuild router (dirty keys across chunk
  // boundaries, all-delete fast path, compaction) and the oracle's
  // column-parity probe over multi-chunk snapshots.
  specs.push_back({"aets-tiny-chunks", [](const Catalog* c, EpochChannel* ch) {
                     AetsOptions o;
                     o.replay_threads = 3;
                     o.commit_threads = 2;
                     o.grouping = GroupingMode::kPerTable;
                     o.column_chunk_rows = 8;
                     return std::make_unique<AetsReplayer>(c, ch, o);
                   },
                   /*columnar=*/true});
  specs.push_back({"aets-by-rate", [](const Catalog* c, EpochChannel* ch) {
                     AetsOptions o;
                     o.replay_threads = 3;
                     o.commit_threads = 2;
                     o.grouping = GroupingMode::kByAccessRate;
                     o.initial_rates =
                         std::vector<double>(c->num_tables(), 5.0);
                     return std::make_unique<AetsReplayer>(c, ch, o);
                   },
                   /*columnar=*/true});
  specs.push_back({"tplr", [](const Catalog* c, EpochChannel* ch) {
                     return std::make_unique<AetsReplayer>(
                         c, ch, TplrBaselineOptions(/*replay_threads=*/3));
                   },
                   /*columnar=*/true});
  specs.push_back({"atr", [](const Catalog* c, EpochChannel* ch) {
                     AtrOptions o;
                     o.workers = 3;
                     return std::make_unique<AtrReplayer>(c, ch, o);
                   }});
  specs.push_back({"c5", [](const Catalog* c, EpochChannel* ch) {
                     C5Options o;
                     o.workers = 3;
                     o.watermark_period_us = 500;
                     return std::make_unique<C5Replayer>(c, ch, o);
                   }});
  specs.push_back({"serial", [](const Catalog* c, EpochChannel* ch) {
                     return std::make_unique<SerialReplayer>(c, ch);
                   }});
  return specs;
}

// Projection is on demand, so a columnar replayer whose tables never seed
// would pass every parity probe vacuously: each sweep must have compared
// columns at least once per columnar replayer.
void ExpectColumnsCompared(const std::vector<SimReplayerSpec>& specs,
                           const std::vector<uint64_t>& compared) {
  for (size_t k = 0; k < specs.size(); ++k) {
    if (specs[k].columnar) {
      EXPECT_GT(compared[k], 0u) << specs[k].label << ": no columnar probe";
    }
  }
}

std::string FailureReport(const char* label, const ScenarioSpec& spec,
                          const ScenarioResult& result) {
  std::string out = std::string(label) + " violated invariants on:\n" +
                    sim::DescribeScenario(spec) + "\n";
  for (const sim::Violation& v : result.violations) {
    out += "  [" + v.invariant + "] " + v.detail + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reference model sanity: it must agree with the serial oracle replayer by
// construction (two independent implementations of the same semantics).

TEST(ReferenceModelTest, AgreesWithSerialReplayerOnSeededWorkloads) {
  for (int i = 0; i < 5; ++i) {
    ScenarioSpec spec = sim::GenerateScenario(test::DeriveSeed(100 + i));
    spec.mode = SimMode::kLockstep;
    ScenarioResult result =
        sim::RunScenario(spec, [](const Catalog* c, EpochChannel* ch) {
          return std::make_unique<SerialReplayer>(c, ch);
        });
    EXPECT_TRUE(result.ok()) << FailureReport("serial", spec, result);
  }
}

// ---------------------------------------------------------------------------
// The differential oracle across all five replayers.

// The --shard_count pin, or one backup lane.
int SweepShards() { return g_shard_count > 0 ? g_shard_count : 1; }

TEST(SimOracleTest, SeededScenariosAllReplayersLockstep) {
  auto specs = AllReplayerSpecs();
  std::vector<uint64_t> compared(specs.size(), 0);
  for (int i = 0; i < g_sim_iters; ++i) {
    ScenarioSpec spec = sim::GenerateScenario(test::DeriveSeed(1000 + i));
    spec.mode = SimMode::kLockstep;
    spec.shard_count = SweepShards();
    for (size_t k = 0; k < specs.size(); ++k) {
      ScenarioResult result = sim::RunScenario(spec, specs[k].make);
      ASSERT_TRUE(result.ok()) << FailureReport(specs[k].label, spec, result);
      compared[k] += result.column_comparisons;
    }
  }
  ExpectColumnsCompared(specs, compared);
}

TEST(SimOracleTest, SeededScenariosAllReplayersConcurrent) {
  // Faulty link + prober threads + (scenario-dependent) live GC. Fewer
  // iterations: each run costs recovery windows and thread churn.
  auto specs = AllReplayerSpecs();
  std::vector<uint64_t> compared(specs.size(), 0);
  int iters = g_sim_iters / 5 + 1;
  for (int i = 0; i < iters; ++i) {
    ScenarioSpec spec = sim::GenerateScenario(test::DeriveSeed(2000 + i));
    spec.mode = SimMode::kConcurrent;
    spec.shard_count = SweepShards();
    for (size_t k = 0; k < specs.size(); ++k) {
      ScenarioResult result = sim::RunScenario(spec, specs[k].make);
      ASSERT_TRUE(result.ok()) << FailureReport(specs[k].label, spec, result);
      compared[k] += result.column_comparisons;
    }
  }
  ExpectColumnsCompared(specs, compared);
}

// ---------------------------------------------------------------------------
// Sharded replay: N backup shards behind the ShardedBackup facade, checked
// through the same oracle. Every cross-shard (qts, table-set) probe must
// match the shard-free reference model exactly (ISSUE 7 acceptance).

std::vector<int> ShardCounts() {
  if (g_shard_count > 0) return {g_shard_count};
  return {2, 3, 4};
}

TEST(ShardedSimOracleTest, SeededScenariosLockstep) {
  auto specs = AllReplayerSpecs();
  std::vector<uint64_t> compared(specs.size(), 0);
  int iters = g_sim_iters / 5 + 1;
  for (int shards : ShardCounts()) {
    for (int i = 0; i < iters; ++i) {
      ScenarioSpec spec = sim::GenerateScenario(test::DeriveSeed(4000 + i));
      spec.mode = SimMode::kLockstep;
      spec.shard_count = shards;
      for (size_t k = 0; k < specs.size(); ++k) {
        ScenarioResult result = sim::RunScenario(spec, specs[k].make);
        ASSERT_TRUE(result.ok())
            << "shards=" << shards << " "
            << FailureReport(specs[k].label, spec, result);
        compared[k] += result.column_comparisons;
      }
    }
  }
  ExpectColumnsCompared(specs, compared);
}

TEST(ShardedSimOracleTest, ConcurrentUnderAcceptanceFaultMix) {
  // The acceptance fault mix: 5% drop + 5% dup + 1% corrupt on every shard's
  // link (each lane draws its own seeded schedule), probers pinning
  // cross-shard snapshots throughout.
  auto specs = AllReplayerSpecs();
  std::vector<uint64_t> compared(specs.size(), 0);
  int iters = g_sim_iters / 10 + 1;
  for (int shards : ShardCounts()) {
    for (int i = 0; i < iters; ++i) {
      ScenarioSpec spec = sim::GenerateScenario(test::DeriveSeed(5000 + i));
      spec.mode = SimMode::kConcurrent;
      spec.shard_count = shards;
      spec.faults.drop = 0.05;
      spec.faults.duplicate = 0.05;
      spec.faults.reorder = 0.0;
      spec.faults.corrupt = 0.01;
      for (size_t k = 0; k < specs.size(); ++k) {
        ScenarioResult result = sim::RunScenario(spec, specs[k].make);
        ASSERT_TRUE(result.ok())
            << "shards=" << shards << " "
            << FailureReport(specs[k].label, spec, result);
        compared[k] += result.column_comparisons;
      }
    }
  }
  ExpectColumnsCompared(specs, compared);
}

// ---------------------------------------------------------------------------
// Bug injection: a tg_cmt_ts published one tick ahead of the replayed data
// (AetsOptions::test_tg_publish_skew) must be caught and shrunk to a
// minimal repro.

sim::ReplayerFactory SkewedAetsFactory() {
  return [](const Catalog* c, EpochChannel* ch) {
    AetsOptions o;
    o.replay_threads = 3;
    o.commit_threads = 2;
    o.grouping = GroupingMode::kPerTable;
    o.test_tg_publish_skew = 1;  // the injected off-by-one
    return std::make_unique<AetsReplayer>(c, ch, o);
  };
}

/// Finds the first generated scenario (over a fixed seed sequence) that
/// trips the oracle under the skewed replayer, shrinks it, and returns
/// (shrunk spec, description). Deterministic given the base seed.
bool FindAndShrinkSkewBug(ScenarioSpec* shrunk, std::string* description) {
  sim::ReplayerFactory factory = SkewedAetsFactory();
  for (int attempt = 0; attempt < 40; ++attempt) {
    ScenarioSpec spec = sim::GenerateScenario(test::DeriveSeed(3000 + attempt));
    spec.mode = SimMode::kLockstep;
    ScenarioResult result = sim::RunScenario(spec, factory);
    if (result.ok()) continue;
    *shrunk = sim::ShrinkScenario(spec, factory);
    *description = sim::DescribeScenario(*shrunk);
    return true;
  }
  return false;
}

TEST(SimOracleTest, InjectedWatermarkSkewIsCaughtAndShrunk) {
  ScenarioSpec shrunk;
  std::string description;
  ASSERT_TRUE(FindAndShrinkSkewBug(&shrunk, &description))
      << "no generated scenario tripped the injected visibility bug";

  ScenarioResult result = sim::RunScenario(shrunk, SkewedAetsFactory());
  EXPECT_FALSE(result.ok());
  std::fprintf(stderr, "[sim] minimal repro (%llu violations):\n%s\n",
               static_cast<unsigned long long>(result.total_violations),
               description.c_str());

  // Acceptance: the shrunk repro is tiny, and the clean replayer passes the
  // very same scenario (the violation is the injected bug, nothing else).
  EXPECT_LE(shrunk.epochs.size(), 3u) << description;
  EXPECT_LE(sim::CountTxns(shrunk), 4u) << description;
  ScenarioResult clean = sim::RunScenario(
      shrunk, [](const Catalog* c, EpochChannel* ch) {
        AetsOptions o;
        o.replay_threads = 3;
        o.commit_threads = 2;
        o.grouping = GroupingMode::kPerTable;
        return std::make_unique<AetsReplayer>(c, ch, o);
      });
  EXPECT_TRUE(clean.ok()) << FailureReport("aets-clean", shrunk, clean);
}

TEST(ShardedSimOracleTest, CrossShardSkewIsCaughtAndShrunk) {
  // The same injected off-by-one, but with every shard's replayer skewed and
  // the oracle probing through the ShardedBackup facade: the shrinker must
  // reduce a cross-shard violation just like a single-backup one (the shrunk
  // spec keeps its shard_count, so every shrink candidate re-runs sharded).
  sim::ReplayerFactory factory = SkewedAetsFactory();
  ScenarioSpec shrunk;
  bool found = false;
  for (int attempt = 0; attempt < 40 && !found; ++attempt) {
    ScenarioSpec spec = sim::GenerateScenario(test::DeriveSeed(6000 + attempt));
    spec.mode = SimMode::kLockstep;
    spec.shard_count = 2;
    ScenarioResult result = sim::RunScenario(spec, factory);
    if (result.ok()) continue;
    shrunk = sim::ShrinkScenario(spec, factory);
    found = true;
  }
  ASSERT_TRUE(found)
      << "no generated scenario tripped the injected bug under sharding";
  EXPECT_EQ(shrunk.shard_count, 2);
  std::string description = sim::DescribeScenario(shrunk);
  ScenarioResult result = sim::RunScenario(shrunk, factory);
  EXPECT_FALSE(result.ok()) << description;
  EXPECT_LE(shrunk.epochs.size(), 3u) << description;
  EXPECT_LE(sim::CountTxns(shrunk), 4u) << description;
  // The clean factory passes the exact shrunk sharded scenario.
  ScenarioResult clean = sim::RunScenario(
      shrunk, [](const Catalog* c, EpochChannel* ch) {
        AetsOptions o;
        o.replay_threads = 3;
        o.commit_threads = 2;
        o.grouping = GroupingMode::kPerTable;
        return std::make_unique<AetsReplayer>(c, ch, o);
      });
  EXPECT_TRUE(clean.ok()) << FailureReport("aets-clean", shrunk, clean);
}

// A lane whose own global watermark moves backwards must be caught even
// though the ShardedBackup facade hides it: the coordinator's global safe
// timestamp is a running maximum, so the facade's global watermark never
// drops. The oracle watches every lane's own watermark too.
class RegressingSerialReplayer : public SerialReplayer {
 public:
  using SerialReplayer::SerialReplayer;

  // Forgets its watermark once it has applied its second data epoch.
  Timestamp GlobalVisibleTs() const override {
    if (stats().epochs.load(std::memory_order_acquire) >= 2) {
      return kInvalidTimestamp;
    }
    return SerialReplayer::GlobalVisibleTs();
  }
};

TEST(SimOracleTest, LaneWatermarkRegressionIsCaught) {
  ScenarioSpec spec;
  spec.seed = test::DeriveSeed(7000);
  spec.num_tables = 2;
  spec.mode = SimMode::kLockstep;
  spec.shard_count = 1;
  for (int64_t key = 1; key <= 3; ++key) {
    sim::EpochPlan epoch;
    epoch.txns.push_back({{sim::WritePlan{sim::WritePlan::kInsert, 0, key}}});
    spec.epochs.push_back(std::move(epoch));
  }
  ScenarioResult result =
      sim::RunScenario(spec, [](const Catalog* c, EpochChannel* ch) {
        return std::make_unique<RegressingSerialReplayer>(c, ch);
      });
  ASSERT_FALSE(result.ok()) << sim::DescribeScenario(spec);
  EXPECT_EQ(result.first_invariant, sim::kInvariantMonotonicity)
      << FailureReport("regressing-serial", spec, result);
  // The clean replayer passes the very same scenario.
  ScenarioResult clean =
      sim::RunScenario(spec, [](const Catalog* c, EpochChannel* ch) {
        return std::make_unique<SerialReplayer>(c, ch);
      });
  EXPECT_TRUE(clean.ok()) << FailureReport("serial", spec, clean);
}

TEST(SimOracleTest, ShrinkingIsDeterministic) {
  // The whole find+shrink pipeline replayed twice from the same base seed
  // must produce the identical minimal counterexample.
  ScenarioSpec first_spec, second_spec;
  std::string first_desc, second_desc;
  ASSERT_TRUE(FindAndShrinkSkewBug(&first_spec, &first_desc));
  ASSERT_TRUE(FindAndShrinkSkewBug(&second_spec, &second_desc));
  EXPECT_EQ(first_desc, second_desc);
  // And re-running the shrunk spec reproduces the same first invariant.
  ScenarioResult a = sim::RunScenario(first_spec, SkewedAetsFactory());
  ScenarioResult b = sim::RunScenario(first_spec, SkewedAetsFactory());
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.first_invariant, b.first_invariant);
}

}  // namespace
}  // namespace aets

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  aets::test::InitSeedFromArgs(&argc, argv);
  aets::test::InstallSeedBanner();
  if (const char* env = std::getenv("AETS_SIM_ITERS")) {
    g_sim_iters = std::atoi(env);
  }
  if (const char* env = std::getenv("AETS_SHARD_COUNT")) {
    g_shard_count = std::atoi(env);
  }
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sim_iters=", 12) == 0) {
      g_sim_iters = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--shard_count=", 14) == 0) {
      g_shard_count = std::atoi(argv[i] + 14);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (g_sim_iters < 1) g_sim_iters = 1;
  if (g_shard_count < 0) g_shard_count = 0;
  return RUN_ALL_TESTS();
}
