#ifndef AETS_SIM_ORACLE_H_
#define AETS_SIM_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "aets/replay/sharded_backup.h"
#include "aets/sim/reference_model.h"

namespace aets {
namespace sim {

/// One invariant violation. `invariant` is a stable machine-matchable name
/// (the shrinker matches on it); `detail` is the human-readable evidence.
struct Violation {
  std::string invariant;
  std::string detail;
};

/// Invariant names reported by the oracle.
inline constexpr char kInvariantSnapshotExact[] = "snapshot-exactness";
inline constexpr char kInvariantMonotonicity[] = "watermark-monotonicity";
inline constexpr char kInvariantTornTxn[] = "torn-transaction";
inline constexpr char kInvariantGcSafety[] = "gc-reclaimed-visible-version";
inline constexpr char kInvariantColumnParity[] = "column-row-divergence";
inline constexpr char kInvariantConvergence[] = "final-convergence";
inline constexpr char kInvariantReplayerError[] = "replayer-error";

/// Thread-safe bounded collector shared by the oracle and its probe
/// threads. Keeps the first `cap` violations (the interesting one is almost
/// always the first).
class ViolationLog {
 public:
  explicit ViolationLog(size_t cap = 16) : cap_(cap) {}

  void Report(std::string invariant, std::string detail);

  bool empty() const;
  size_t total() const { return total_.load(std::memory_order_acquire); }
  std::vector<Violation> TakeSnapshot() const;
  /// The first violation's invariant name, or "" when clean.
  std::string FirstInvariant() const;
  std::string Describe() const;

 private:
  mutable std::mutex mu_;
  std::vector<Violation> violations_;
  std::atomic<uint64_t> total_{0};
  size_t cap_;
};

/// The snapshot-consistency oracle: checks a live backup (N >= 1 replayer
/// lanes behind a ShardedBackup) against the fully-built ReferenceModel.
/// Snapshot probes read through the facade; the monotonicity probe also
/// watches each lane's own global watermark, which the facade's coordinator
/// (a running maximum) would otherwise hide. All checks are sound under concurrency —
/// they only rely on state the published watermarks promise is immutable —
/// so probe threads may call them while replay, heartbeats, and GC race
/// underneath. `gc_floor` is the largest GC watermark ever passed to the
/// store: snapshots below it are legitimately folded, so value probes stay
/// at or above it.
class ConsistencyOracle {
 public:
  ConsistencyOracle(const ReferenceModel* model, ShardedBackup* backup,
                    ViolationLog* log);

  /// Raises the floor below which snapshot probes are invalid (call from
  /// the GC pass hook with the truncation watermark).
  void RaiseGcFloor(Timestamp watermark);
  Timestamp gc_floor() const {
    return gc_floor_.load(std::memory_order_acquire);
  }

  /// Snapshot exactness: `table`'s full visible row set at `qts` equals the
  /// model's. Precondition: qts <= TableVisibleTs(table) (or the global
  /// watermark) at some point before the call, and qts >= gc_floor.
  bool CheckTableSnapshot(TableId table, Timestamp qts);

  /// Per-table and global watermark self-consistency: reads each published
  /// watermark w and verifies the state the watermark promises (every
  /// transaction <= w applied on that table) against the model at w. This
  /// is the probe that catches a watermark published ahead of the data.
  bool CheckWatermarks();

  /// Algorithm-3 probe: if the replayer claims `qts` visible on `tables`,
  /// their snapshot row sets must match the model exactly.
  bool CheckVisibleProbe(const std::vector<TableId>& tables, Timestamp qts);

  /// No-torn-transaction probe for one recorded footprint: once visible,
  /// all of the transaction's writes are reflected at qts >= commit_ts;
  /// at qts == commit_ts - 1 none of them are (reads still match the model,
  /// which excludes the transaction).
  bool CheckTxnAtomicity(const TxnFootprint& txn);

  /// Watermark monotonicity: per-table watermarks, the facade's global
  /// watermark, and every lane's own global watermark never move backwards
  /// across calls. Call repeatedly (probe threads poll it).
  bool ObserveMonotonicity();

  /// GC-never-reclaims-visible-versions: after a GC pass truncated below
  /// `horizon`, every snapshot at or above it that the watermarks promise
  /// must still read exactly (call from the GC post-pass hook).
  bool CheckGcSafety(Timestamp horizon);

  /// Terminal check after the stream is fully replayed: the global
  /// watermark reached the model's max visible timestamp and every table's
  /// final row set is exact.
  bool CheckConverged();

  /// Column-parity probes that found a generation to compare. Projection is
  /// on demand, so a replayer whose tables never seed would pass the probe
  /// vacuously; the sweeps assert this is above zero.
  uint64_t column_comparisons() const {
    return column_comparisons_.load(std::memory_order_relaxed);
  }

 private:
  /// Compares replayer vs model rows of `table` at `qts`; reports with
  /// `invariant` on mismatch. Skips (returns true) when GC raced past qts.
  /// When the row scan is exact and the replayer maintains a columnar
  /// projection of `table`, also runs the column-parity probe below.
  bool CompareTable(TableId table, Timestamp qts, const char* invariant);

  /// Column-parity probe (DESIGN.md §13): the columnar snapshot at `qts`
  /// (chunks minus tombstones plus the residual top-up) must yield exactly
  /// `rows` — the row-store ScanVisible result — and the same XOR digest as
  /// Memtable::DigestAt(qts). Skips when no generation covers qts (the
  /// first probe of a table projects it) or GC raced past it.
  bool CompareColumns(TableId table, Timestamp qts,
                      const std::map<int64_t, Row>& rows);

  const ReferenceModel* model_;
  ShardedBackup* backup_;
  ViolationLog* log_;
  std::atomic<Timestamp> gc_floor_{0};
  std::atomic<uint64_t> column_comparisons_{0};

  std::mutex mono_mu_;
  std::vector<Timestamp> last_table_ts_;
  Timestamp last_global_ts_ = 0;
  std::vector<Timestamp> last_lane_global_ts_;
};

}  // namespace sim
}  // namespace aets

#endif  // AETS_SIM_ORACLE_H_
