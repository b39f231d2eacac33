#ifndef AETS_BENCH_HARNESS_H_
#define AETS_BENCH_HARNESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aets/baselines/atr_replayer.h"
#include "aets/baselines/c5_replayer.h"
#include "aets/baselines/serial_replayer.h"
#include "aets/baselines/tplr_replayer.h"
#include "aets/common/histogram.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replay/sharded_backup.h"
#include "aets/replication/log_shipper.h"
#include "aets/workload/driver.h"
#include "aets/workload/workload.h"

/// \file
/// Shared experiment harness for the paper-reproduction benchmarks: replayer
/// factories, a recorded-log batch replay (throughput/replay-time
/// experiments), a live HTAP run (visibility-delay experiments), and table
/// printing. All benches scale with AETS_BENCH_SCALE (default 1.0) and
/// AETS_BENCH_THREADS so the suite stays runnable on small machines.

namespace aets {

/// Parses harness-wide command-line flags and registers the metrics dump.
/// Call first thing in main(). Flags:
///   --metrics-json <path>   write the obs::MetricsRegistry JSON snapshot
///                           (metrics + recent spans) to <path> at exit.
/// The AETS_METRICS_JSON env var is the flagless equivalent (works for
/// binaries without harness wiring, e.g. the google-benchmark micros); the
/// flag wins when both are set. Unknown flags abort with a usage message.
void BenchInit(int argc, char** argv);

/// Multiplier applied to transaction/query counts (env AETS_BENCH_SCALE).
double BenchScale();

/// Worker-thread default for comparison benches (env AETS_BENCH_THREADS).
int BenchThreads(int fallback);

/// Scales `n` by BenchScale() with a floor of `min_value`.
uint64_t Scaled(uint64_t n, uint64_t min_value = 1);

/// The replayer configurations the paper compares.
enum class ReplayerKind {
  kAets,            // full framework
  kAetsNoTwoStage,  // ablation: single stage
  kAetsNoac,        // ablation: allocation ignores access rates (AETS-NOAC)
  kAetsSingleCommit,  // ablation: one commit thread for all groups
  kTplr,            // two-phase replay, ungrouped (paper's TPLR baseline)
  kAtr,
  kC5,
  kSerial,
};

std::string KindName(ReplayerKind kind);

/// Everything needed to build a replayer for one experiment run.
struct ReplayerSpec {
  ReplayerKind kind = ReplayerKind::kAets;
  int threads = 4;
  int commit_threads = 4;
  /// AETS grouping configuration (ignored by ATR/C5/Serial).
  GroupingMode grouping = GroupingMode::kPerTable;
  std::vector<std::vector<TableId>> hot_groups;  // for kStatic
  std::vector<double> rates;
  std::function<std::vector<double>()> rate_provider;
  /// Rebuild the grouping when provided rates change (see AetsOptions).
  bool regroup_on_rate_change = true;
  double dbscan_eps = 0.3;
  /// Backup shard count for ReplayRecorded (DESIGN.md §11), N >= 1: the
  /// recorded stream is split into N per-shard sub-epoch lanes
  /// (ShardMap::Hash over the catalog) and replayed through N replayers of
  /// `kind` behind a ShardedBackup, with `threads`/`commit_threads` treated
  /// as TOTAL budgets divided across shards by SplitThreadBudget (each must
  /// be >= N). N = 1 is one lane behind the same facade. RunLive and
  /// RunCatchUp replay through one bare replayer and reject N != 1.
  int shard_count = 1;
};

/// Builds a replayer of spec.kind for the paper comparisons. Every kind
/// pays the same side costs: AETS and TPLR run with the columnar projection
/// off, like ATR, C5 and Serial, which maintain none.
std::unique_ptr<Replayer> MakeReplayer(const ReplayerSpec& spec,
                                       const Catalog* catalog,
                                       EpochChannel* channel);

/// Builds `map->num_shards()` replayers of spec.kind — shard i reading from
/// `shard_channels[i]` and, for the AETS-engine kinds, named `<name>.s<i>` —
/// behind a ShardedBackup: spec.threads and spec.commit_threads are total
/// budgets split across shards by SplitShardThreads (each shard's share of
/// spec.rates). `map` must outlive the returned backup.
std::unique_ptr<ShardedBackup> MakeShardedReplayer(
    const ReplayerSpec& spec, const Catalog* catalog, const ShardMap* map,
    const std::vector<EpochChannel*>& shard_channels);

/// A pre-generated log: the paper's RQ2 methodology ("once the log entries
/// were generated, we replicated them into the main memory of the replica in
/// epoch mode").
struct RecordedLog {
  std::vector<ShippedEpoch> epochs;
  uint64_t load_txns = 0;
  uint64_t mix_txns = 0;
  Timestamp load_end_ts = kInvalidTimestamp;  // last load-phase commit ts
  Timestamp final_ts = kInvalidTimestamp;
  uint64_t primary_digest = 0;
  double primary_txns_per_sec = 0;  // txn mix rate during generation
};

/// Loads the workload and runs `num_txns` of its OLTP mix, recording every
/// shipped epoch.
RecordedLog RecordWorkload(Workload* workload, uint64_t num_txns,
                           size_t epoch_size, uint64_t seed);

/// Re-ships a recorded log through a sharded LogShipper and returns the N
/// per-shard sub-epoch streams (result[s] is shard s's lane, epoch ids
/// aligned with log.epochs; one shard gets log.epochs itself, payloads
/// shared). Done once up front so the split cost never lands inside a
/// replay measurement.
std::vector<std::vector<ShippedEpoch>> ShardRecordedLog(const RecordedLog& log,
                                                        const ShardMap& map);

/// XOR of TableStore::Mix(t, digest of table t read through StoreForTable)
/// over the whole catalog: equals TableStore::DigestAt on a single-store
/// replayer, and the cross-shard equivalent under a ShardedBackup (each
/// table's versions live in its owning shard's store).
uint64_t ReplicaDigestAt(Replayer* replayer, const Catalog* catalog,
                         Timestamp ts);

/// Result of draining a recorded log through one replayer.
struct BatchReplayResult {
  std::string name;
  double txns_per_sec = 0;
  int64_t wall_us = 0;
  int64_t stage1_wall_us = 0;  // hot-stage wall (AETS only)
  int64_t stage2_wall_us = 0;  // cold-stage wall (AETS only)
  double dispatch_frac = 0;
  double replay_frac = 0;
  double commit_frac = 0;
  /// Share of busy time spent blocked on ordering synchronization (subset
  /// of replay_frac; nonzero for ATR's operation-sequence check).
  double sync_frac = 0;
  bool state_matches_primary = false;
};

BatchReplayResult ReplayRecorded(const RecordedLog& log, const Catalog* catalog,
                                 const ReplayerSpec& spec);

/// Options for a live HTAP run: OLTP streams into the replayer while the
/// OLAP driver issues real-time queries (Algorithm 3) and measures the
/// visibility delay.
struct LiveRunOptions {
  uint64_t oltp_txns = 5000;
  uint64_t olap_queries = 500;
  size_t epoch_size = 256;
  uint64_t seed = 7;
  int64_t think_us = 0;
  int64_t heartbeat_interval_us = 5'000;
  /// The shipper's age bound (0 = only the size trigger seals an epoch).
  int64_t max_epoch_age_us = LogShipper::kDefaultMaxEpochAgeUs;
};

struct LiveRunResult {
  std::string name;
  double mean_delay_us = 0;
  double p50_delay_us = 0;
  double p95_delay_us = 0;
  double p99_delay_us = 0;
  uint64_t queries = 0;
  /// Mean visibility delay per analytic-query template (Fig. 10's series).
  std::vector<double> per_query_mean_us;
  /// Committed transactions per second of wall time, from the OLTP start
  /// until the backup has applied the last of them.
  double txns_per_sec = 0;
  bool state_matches_primary = false;
};

/// `make_workload` must build a FRESH workload each call so runs are
/// independent and identically seeded.
LiveRunResult RunLive(const std::function<std::unique_ptr<Workload>()>& make_workload,
                      const ReplayerSpec& spec, const LiveRunOptions& options);

/// Catch-up visibility experiment (the paper's Fig. 1 scenario and the
/// methodology behind Figs. 8(c)/9(c)/10/12): the replayer drains a recorded
/// backlog while real-time analytic queries arrive with snapshot timestamps
/// spread uniformly over the recorded commit range. Each query's visibility
/// delay is the Algorithm 3 wait until its tables publish its snapshot.
/// Prioritized (two-stage, rate-weighted) replay unblocks hot-table queries
/// long before the cold log is finished.
struct CatchUpOptions {
  uint64_t queries = 400;
  uint64_t seed = 7;
  /// Freshness demand: each query's snapshot is `lead_txns` commit
  /// timestamps ahead of the replayer's current global watermark (a
  /// real-time query asks for data the backup has not replayed yet). The
  /// delay is how long Algorithm 3 blocks until the query's tables publish
  /// that snapshot — hot-prioritized replay answers hot queries early.
  /// Pacing on the global watermark asks for a fixed fresh point:
  /// prioritized replay publishes it on hot groups after only the hot share
  /// of the backlog — the paper's Fig. 1 effect. Queries form a continuous
  /// stream, so every query immediately demands the next `lead_txns` of
  /// freshness.
  uint64_t lead_txns = 256;
  /// Called once per query, in issue order, before sampling the template;
  /// returns the workload phase in [0,1). Defaults to drain progress.
  std::function<double()> phase_fn;
  /// Called once per query with (query index, visibility delay in us).
  std::function<void(uint64_t, int64_t)> on_delay;
};

struct CatchUpResult {
  std::string name;
  double mean_delay_us = 0;
  double p50_delay_us = 0;
  double p95_delay_us = 0;
  double p99_delay_us = 0;
  int64_t drain_wall_us = 0;
  std::vector<double> per_query_mean_us;
  bool state_matches_primary = false;
};

CatchUpResult RunCatchUp(const RecordedLog& log, Workload* workload,
                         const ReplayerSpec& spec,
                         const CatchUpOptions& options);

/// Fixed-width console table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> row);
  void Print() const;

  static std::string Fmt(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace aets

#endif  // AETS_BENCH_HARNESS_H_
