#ifndef AETS_REPLAY_AETS_REPLAYER_H_
#define AETS_REPLAY_AETS_REPLAYER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "aets/catalog/catalog.h"
#include "aets/common/thread_pool.h"
#include "aets/log/shipped_epoch.h"
#include "aets/obs/metrics.h"
#include "aets/replay/replayer_base.h"
#include "aets/replay/table_group.h"
#include "aets/replay/thread_allocator.h"
#include "aets/replication/channel.h"
#include "aets/storage/checkpoint.h"
#include "aets/storage/table_store.h"

namespace aets {

/// Grouping policy selector for AetsOptions.
enum class GroupingMode {
  kPerTable,       // one group per table (CH-benCHmark configuration)
  kByAccessRate,   // DBSCAN clustering on access rate (BusTracker)
  kStatic,         // caller-provided hot groups (TPC-C configuration)
  kSingle,         // everything in one group (the ungrouped-TPLR baseline)
};

/// Configuration of the AETS framework. The ablation switches (`two_stage`,
/// `adaptive_alloc`, `commit_threads = 1`) degrade AETS into the paper's
/// comparison points.
struct AetsOptions {
  // ---- Parallelism: threads, pipeline, shards (DESIGN.md §9, §11) -------
  // One replayer's concurrency is replay_threads × commit_threads ×
  // pipeline_depth. The third axis, shard_count, lives OUTSIDE this struct:
  // a ShardedBackup (replay/sharded_backup.h) runs N replayers built from
  // one configuration, treating replay_threads and commit_threads as TOTAL
  // budgets divided across shards by SplitShardThreads — so backups with
  // different shard counts configured from the same options consume the
  // same thread resources.

  /// Total replay worker threads (T in Section IV-B).
  int replay_threads = 4;
  /// Group commits in parallel at most; each group's commit runs on one
  /// thread. The commit context counts as one of them (it claims a stage's
  /// groups alongside the pool), so the pool holds commit_threads - 1
  /// workers. 1 models a single commit thread.
  int commit_threads = 4;
  /// Cross-epoch pipeline depth (DESIGN.md §9): how many epochs may sit
  /// between dispatch/translation and commit at once. 1 reproduces the fully
  /// serial main loop; 2–4 overlap epoch N+1's dispatch + phase-1
  /// translation with epoch N's phase-2 commit. Watermark publication stays
  /// strictly epoch-ordered at any depth.
  int pipeline_depth = 2;

  // ---- Two-stage replay & allocation (Section IV-B ablations) -----------

  /// Replay hot groups in stage one, cold groups in stage two.
  bool two_stage = true;
  /// Weigh the thread allocation by access rate (false = AETS-NOAC).
  bool adaptive_alloc = true;

  // ---- Grouping ---------------------------------------------------------

  GroupingMode grouping = GroupingMode::kPerTable;
  /// Hot groups for GroupingMode::kStatic.
  std::vector<std::vector<TableId>> static_hot_groups;
  /// DBSCAN neighbor radius in log10(rate) space for kByAccessRate.
  double dbscan_eps = 0.3;

  /// Called at each epoch start for the predicted per-table access rates
  /// (the Table Access Rate Predictor feeding component 2 of Fig. 3). When
  /// null, `initial_rates` is used throughout.
  std::function<std::vector<double>()> rate_provider;
  std::vector<double> initial_rates;
  /// Re-run the grouping policy whenever the provided rates change (the
  /// adaptive workload-shift path; static groupings ignore this).
  bool regroup_on_rate_change = true;

  // ---- Columnar projections (DESIGN.md §13) -----------------------------

  /// Maintain watermark-versioned columnar chunks incrementally at epoch
  /// commit, so analytic scans (ChQueryExecutor, QueryServer) run
  /// vectorized over column vectors instead of walking version chains.
  /// False restores the pure row-store backup (all scans take the row
  /// path).
  bool column_store_enabled = true;
  /// Target rows per columnar base chunk (storage::ColumnStoreOptions).
  size_t column_chunk_rows = 4096;
  /// Display name (baselines built on this engine override it).
  std::string name = "AETS";

  /// TEST-ONLY fault hook: added to the commit timestamp when the commit
  /// path publishes tg_cmt_ts. Any non-zero value announces visibility the
  /// group has not earned — the off-by-one the simulation oracle must catch
  /// (and shrink to a minimal scenario). Never set outside tests.
  Timestamp test_tg_publish_skew = 0;
};

/// The AETS framework (paper Fig. 3): log parser + dispatcher, fine-grained
/// table grouping, adaptive thread resource allocation, the TPLR two-phase
/// parallel replay algorithm with per-group commit threads, and the
/// visibility timestamps of Algorithm 3.
///
/// One AetsReplayer drives one backup node: it pulls encoded epochs from its
/// channel in order, dispatches + phase-1-translates each epoch on the main
/// loop thread (PrepareEpoch), and installs + publishes it on the commit
/// context (CommitEpoch) — with pipeline_depth > 1 the two phases of
/// adjacent epochs overlap (DESIGN.md §9).
class AetsReplayer : public ReplayerBase {
 public:
  AetsReplayer(const Catalog* catalog, EpochChannel* channel,
               AetsOptions options);
  ~AetsReplayer() override;

  Timestamp TableVisibleTs(TableId table) const override;
  Timestamp GlobalVisibleTs() const override;

  /// Current grouping (for tests / diagnostics).
  std::vector<TableGroup> groups() const;

  /// Bootstraps this backup from a checkpoint image instead of replaying
  /// history: loads the rows, publishes the snapshot timestamp, and arms
  /// the epoch sequence at the checkpoint's next epoch id. Must be called
  /// before Start(), on a fresh replayer.
  Status Bootstrap(const std::string& checkpoint_path);

  /// Writes a checkpoint of the backup state at the global watermark, with
  /// the epoch cursor as the image's next epoch id. Callable stopped or
  /// running; a running backup must be quiescent at the moment of the call
  /// (the channel drained and the watermark caught up to the primary: flush
  /// an epoch, then wait on GlobalVisibleTs()). The MVCC scan at the
  /// published watermark is always consistent — the risk of calling this
  /// mid-apply is only that the image lands at an older watermark than
  /// intended, never that it is torn. Fails before any watermark exists.
  Status WriteCheckpoint(const std::string& path) const;

 protected:
  Status StartWorkers() override;
  void StopWorkers() override;
  std::unique_ptr<PreparedEpoch> PrepareEpoch(
      const ShippedEpoch& epoch) override;
  bool CommitEpoch(const ShippedEpoch& epoch,
                   std::unique_ptr<PreparedEpoch> prepared) override;
  void ProcessHeartbeat(const ShippedEpoch& epoch) override;

 private:
  /// A translated-but-uncommitted cell: the TPLR phase-1 output. Holds the
  /// pinned Memtable node and the version to append at commit, plus the
  /// owning table so the commit path can feed the column store's dirty set.
  struct PendingCell {
    MemNode* node;
    VersionCell cell;
    TableId table;
  };

  /// One transaction's log records routed to one group ("minor pieces" of a
  /// transaction, Section III-C). Offsets point into the epoch payload; the
  /// full value decode happens in phase 1, in parallel.
  struct Fragment {
    TxnId txn_id = kInvalidTxnId;
    Timestamp commit_ts = kInvalidTimestamp;
    std::vector<size_t> offsets;
    std::vector<PendingCell> cells;
    std::atomic<bool> translated{false};
    /// Set when translation failed mid-fragment: the cells are incomplete
    /// and must never be committed (a partial transaction is worse than a
    /// stalled watermark).
    std::atomic<bool> poisoned{false};
  };

  /// Per-group per-epoch replay state: the fragment list doubles as the
  /// commit_order_queue (it is built in primary commit order), and the
  /// per-fragment translated flags implement the waiting_commit_list.
  struct GroupEpochState {
    std::vector<std::unique_ptr<Fragment>> fragments;
    std::atomic<size_t> next_claim{0};
    size_t bytes = 0;
  };

  /// An immutable grouping generation. Each prepared epoch pins the
  /// generation it was dispatched under, so a regroup triggered while later
  /// epochs prepare can never invalidate the group/table lists a commit (or
  /// an in-flight translate task) still reads.
  struct GroupingSnapshot {
    std::vector<TableGroup> groups;
    std::vector<int> table_to_group;
  };

  /// Everything PrepareEpoch hands across the pipeline to CommitEpoch. Its
  /// destructor parks on the work bell until every translate job launched
  /// for this epoch returned, so neither a dropped (post-error-latch) item
  /// nor a committed one whose jobs found nothing left to claim can leave
  /// a worker touching freed state.
  struct PreparedAets : PreparedEpoch {
    explicit PreparedAets(WatermarkBell* bell) : work_bell(bell) {}
    ~PreparedAets() override;

    WatermarkBell* work_bell;
    std::shared_ptr<const GroupingSnapshot> grouping;
    /// Pins the wire bytes the fragments' offsets point into.
    std::shared_ptr<const std::string> payload;
    std::vector<GroupEpochState> gstate;
    std::vector<int> hot_groups;
    std::vector<int> cold_groups;
    /// Groups that received no log entries this epoch; their tables publish
    /// max_commit_ts only after the epoch commits cleanly.
    std::vector<int> quiet_groups;
    /// Phase-1 tasks, each the groups one replay worker translates in
    /// order: hot stage first, then cold. Complete before the first submit;
    /// replay jobs claim them through next_task.
    std::vector<std::vector<int>> tasks;
    std::atomic<size_t> next_task{0};
    /// Replay jobs launched for this epoch that have not returned.
    std::atomic<int> outstanding_translate{0};
    int64_t apply_start_us = 0;
  };

  void RefreshRates();
  void RebuildGroups(const std::vector<double>& rates);
  std::shared_ptr<const GroupingSnapshot> grouping_snapshot() const;
  bool DispatchEpoch(const ShippedEpoch& epoch,
                     const GroupingSnapshot& grouping,
                     std::vector<GroupEpochState>* gstate);
  /// Plans the stage's thread allocation and appends its phase-1 translate
  /// tasks to prep->tasks.
  void PlanTranslate(PreparedAets* prep, const std::vector<int>& member_groups);
  /// Hands the planned translate tasks to the replay pool
  /// (asynchronously — the commit stage, possibly epochs later,
  /// synchronizes on the per-fragment translated flags).
  void LaunchTranslate(PreparedAets* prep);
  /// Runs the stage's phase-2 group commits and waits for them to finish.
  void CommitStage(PreparedAets* prep, const std::vector<int>& member_groups);
  void TranslateGroup(const std::string& payload, GroupEpochState* gs);
  void CommitGroup(GroupEpochState* gs, const TableGroup& group);

  AetsOptions options_;

  std::vector<std::atomic<Timestamp>> table_ts_;
  std::atomic<Timestamp> global_ts_{kInvalidTimestamp};

  mutable std::mutex groups_mu_;
  std::shared_ptr<const GroupingSnapshot> grouping_;
  std::vector<double> current_rates_;

  /// Observability (resolved once per instrument; aggregated process-wide).
  obs::Counter* regroup_metric_;
  obs::Counter* realloc_metric_;
  obs::Gauge* watermark_metric_;
  obs::Gauge* num_groups_metric_;
  Histogram* epoch_apply_us_metric_;
  /// Per-group thread-count gauges (`allocator.group_threads.g<i>`),
  /// re-resolved on regroup; `last_alloc_` detects reallocation events.
  /// Touched only by the main replay thread.
  std::vector<obs::Gauge*> group_thread_gauges_;
  std::vector<int> last_alloc_;

  std::unique_ptr<ThreadPool> replay_pool_;
  /// commit_threads - 1 workers; null at commit_threads = 1.
  std::unique_ptr<ThreadPool> commit_pool_;
};

}  // namespace aets

#endif  // AETS_REPLAY_AETS_REPLAYER_H_
