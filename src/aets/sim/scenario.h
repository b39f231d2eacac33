#ifndef AETS_SIM_SCENARIO_H_
#define AETS_SIM_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aets/catalog/catalog.h"
#include "aets/replay/replayer.h"
#include "aets/replication/channel.h"
#include "aets/replication/fault_injection.h"
#include "aets/sim/oracle.h"

namespace aets {
namespace sim {

/// One planned write. Values are derived deterministically from the write's
/// position in the scenario, so re-recording a (possibly shrunk) spec always
/// produces the same log bytes and commit timestamps.
struct WritePlan {
  enum Kind { kInsert = 0, kUpdate = 1, kDelete = 2 };
  Kind kind = kInsert;
  TableId table = 0;
  int64_t key = 0;
};

struct TxnPlan {
  std::vector<WritePlan> writes;
};

/// One epoch boundary in the shipped stream: the transactions sealed into
/// it, optionally followed by a heartbeat epoch.
struct EpochPlan {
  std::vector<TxnPlan> txns;
  bool heartbeat_after = false;
};

enum class SimMode {
  /// Single stepper thread: ship one epoch to every shard, wait until each
  /// shard consumed it, run the oracle between epochs. Fully deterministic — the mode the
  /// shrinker and the injected-bug acceptance test rely on.
  kLockstep,
  /// Free-running: a fault-injecting link and (optionally) a live GC daemon
  /// per shard, and concurrent prober threads. Invariant checks stay sound under the
  /// races; the violation verdict is still seed-reproducible because the
  /// fault schedule and all probe draws are seeded.
  kConcurrent,
};

/// A complete simulation scenario: workload plan x fault plan x schedule
/// perturbation, all derived from one seed.
struct ScenarioSpec {
  uint64_t seed = 0;
  size_t num_tables = 4;
  SimMode mode = SimMode::kLockstep;
  std::vector<EpochPlan> epochs;

  /// Fault plan (kConcurrent only; the lockstep links are clean). Shard s
  /// seeds its link with faults.seed + 0x9E3779B97F4A7C15 * s.
  FaultProfile faults;
  /// Run a GC daemon against every shard during kConcurrent replay.
  bool with_gc = false;
  Timestamp gc_retention = 8;
  int probe_threads = 2;

  /// Backup shards (DESIGN.md §11), N >= 1: the stream is re-recorded
  /// through a LogShipper split by a hash shard map over the catalog, one
  /// replayer per shard is built behind a ShardedBackup, and the oracle
  /// probes cross-shard snapshots through the facade. The factory is
  /// invoked once per shard, in shard order 0..N-1 (a test that must
  /// perturb one specific shard can count invocations). N = 1 is the
  /// single-backup case, run through the same one-lane facade.
  int shard_count = 1;
};

/// Builds a replayer under test on the given catalog + channel (same shape
/// as the chaos suite's specs). The factory also decides any injected fault
/// (e.g. AetsOptions::test_tg_publish_skew) — the shrinker re-runs it on
/// every candidate.
using ReplayerFactory =
    std::function<std::unique_ptr<Replayer>(const Catalog*, EpochChannel*)>;

struct ScenarioResult {
  uint64_t total_violations = 0;
  /// First violation's invariant name ("" when clean) — the shrinker keeps a
  /// candidate only when this matches the original failure.
  std::string first_invariant;
  std::vector<Violation> violations;
  /// Column-parity probes that compared a generation (see
  /// ConsistencyOracle::column_comparisons); timing-dependent, unlike the
  /// violations.
  uint64_t column_comparisons = 0;

  bool ok() const { return total_violations == 0; }
};

/// Derives a full scenario from `seed` (workload shape, epoch boundaries,
/// heartbeat placement, fault probabilities, GC and probe plan). The mode
/// defaults to kLockstep; callers flip `mode` to exercise the concurrent
/// harness with the same workload.
ScenarioSpec GenerateScenario(uint64_t seed);

/// Records the scenario's log stream through a real PrimaryDb + LogShipper,
/// builds the reference model, replays the stream into `factory`'s replayer
/// under the scenario's mode, and returns every invariant violation the
/// oracle found. Deterministic for kLockstep specs: identical specs yield
/// identical results. The replay side always runs spec.shard_count shards
/// behind a ShardedBackup; the reference model consumes the unsharded
/// stream (the ground truth is shard-free by construction).
ScenarioResult RunScenario(const ScenarioSpec& spec,
                           const ReplayerFactory& factory);

/// Greedy delta-debugging shrink: repeatedly drops epochs, then
/// transactions, then single writes, keeping a removal only if the scenario
/// still fails with the same first invariant. Returns the minimal failing
/// spec (== `spec` if it does not fail). Deterministic. Intended for
/// kLockstep specs.
ScenarioSpec ShrinkScenario(const ScenarioSpec& spec,
                            const ReplayerFactory& factory);

/// Stable human-readable rendering (printed as the minimal repro; also
/// compared verbatim by the shrink-determinism test).
std::string DescribeScenario(const ScenarioSpec& spec);

size_t CountTxns(const ScenarioSpec& spec);
size_t CountWrites(const ScenarioSpec& spec);

}  // namespace sim
}  // namespace aets

#endif  // AETS_SIM_SCENARIO_H_
