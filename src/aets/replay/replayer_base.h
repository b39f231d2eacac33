#ifndef AETS_REPLAY_REPLAYER_BASE_H_
#define AETS_REPLAY_REPLAYER_BASE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "aets/catalog/catalog.h"
#include "aets/log/shipped_epoch.h"
#include "aets/obs/metrics.h"
#include "aets/replay/replayer.h"
#include "aets/replication/channel.h"
#include "aets/replication/epoch_source.h"
#include "aets/storage/column_store.h"
#include "aets/storage/table_store.h"

namespace aets {

/// Tuning knobs of the epoch-loss recovery protocol (see MainLoop below and
/// DESIGN.md "Failure model & recovery"). Each recovery round first waits
/// one fixed 50 us reorder window on the channel's condition variable, so a
/// reordering still in flight can land before the gap is NACKed; the same
/// timed wait is the pause between NACK misses.
struct ReplayRecoveryOptions {
  /// Recovery rounds (reorder wait + NACK) per gap without progress before
  /// the sticky error latch trips. Also bounds consecutive NACK fetch
  /// misses: a nullopt from the source can be a transient I/O timeout on a
  /// socket-backed NACK RPC, not proof of eviction, so a gap only latches
  /// after this many missed attempts with a reorder window in between.
  int max_retries = 8;
  /// Bound on buffered out-of-order epochs; exceeding it means the stream is
  /// unrecoverable (or the peer is misbehaving) and latches an error.
  size_t max_pending = 1024;
};

/// The scaffolding every replayer shares — previously copy-pasted across
/// AETS, ATR, C5, and the serial oracle. Owns:
///
///  - the epoch-ordered main loop: payload-CRC verification on receive,
///    epoch-id sequencing, wall-clock stats, heartbeat routing, and the
///    per-epoch volume counters and metrics;
///  - the cross-epoch pipeline (DESIGN.md §9): each in-order epoch is split
///    into a prepare phase (PrepareEpoch — dispatch/decode/translate launch,
///    runs on the main loop thread) and a commit phase (CommitEpoch — version
///    install + watermark publication). With pipeline_depth > 1 a dedicated
///    commit thread consumes a bounded in-order queue of prepared epochs, so
///    receive/CRC/dispatch/translation of epoch N+1 overlaps the commit of
///    epoch N. The queue bound is the backpressure: when depth epochs are in
///    flight the main loop blocks in ApplyNext (counted in
///    ReplayStats::pipeline_stalls / pipeline.stalls). Commit order — and
///    therefore every watermark publication — stays strictly epoch-ordered
///    because the single commit context pops the queue FIFO;
///  - the loss-recovery protocol. The channel may drop, duplicate, reorder,
///    or corrupt epochs; the loop skips already-applied ids (duplicates),
///    buffers early arrivals, and fills gaps by first waiting a bounded
///    reorder window on the channel and then NACK-fetching the missing id
///    from the attached EpochSource (the shipper's retention buffer). After
///    the channel closes, any tail the link swallowed is pulled the same
///    way, so a finished replayer is either byte-equal to the primary or
///    has a latched error — never silently short. Without an EpochSource
///    the pre-recovery behavior stands: any anomaly is terminal;
///  - the work bell every replay-internal wait parks on;
///  - the sticky error latch, with a lock-free HasError() fast check the
///    hot loops poll. Tripping it rings both bells, so a wait whose
///    predicate reads HasError() wakes on it. Once it trips, the main loop
///    stops applying and drains the channel without installing anything
///    (the channel is bounded, so halting receives outright could deadlock
///    the producer). Epochs already in the pipeline drain through the
///    commit thread without committing or publishing, and their prepared
///    state unwinds cleanly (subclasses quiesce in-flight translation in
///    their PreparedEpoch destructor);
///  - race-safe Start()/Stop(): lifecycle transitions are serialized by a
///    mutex, Stop() is idempotent, and a failed StartWorkers() leaves the
///    replayer cleanly un-started.
///
/// Subclasses implement PrepareEpoch/CommitEpoch/ProcessHeartbeat, and
/// optionally StartWorkers/StopWorkers for their thread pools. Their
/// destructors must call Stop() (so the virtual StopWorkers still
/// dispatches).
class ReplayerBase : public Replayer {
 public:
  ReplayerBase(const Catalog* catalog, EpochChannel* channel, std::string name);
  ~ReplayerBase() override;

  void SetEpochSource(EpochSource* source) override;
  /// Shrinks/extends the recovery windows (tests). Before Start() only.
  void SetRecoveryOptions(const ReplayRecoveryOptions& options);

  /// Bounds the number of epochs in flight between prepare and commit
  /// (1 = fully serial, i.e. the pre-pipeline behavior). Before Start()
  /// only; Start() rejects values < 1.
  void SetPipelineDepth(int depth);
  int pipeline_depth() const { return pipeline_depth_; }

  /// Test-only: invoked on the commit context right before each pipeline
  /// item (data epoch or heartbeat) commits. A blocking hook models a slow
  /// committer, letting tests freeze the commit stage while the prepare
  /// stage runs ahead. Before Start() only.
  void SetCommitHookForTest(std::function<void(const ShippedEpoch&)> hook);

  Status Start() final;
  void Stop() final;

  TableStore* store() override { return &store_; }
  const ReplayStats& stats() const override { return stats_; }
  std::string name() const override { return name_; }

  /// Attaches a columnar projection store (DESIGN.md §13) over this
  /// replayer's TableStore. Its tables are projected on demand: once a query
  /// has projected one, the base posts each committed data epoch's
  /// watermark to a background merge thread, which coalesces requests and
  /// publishes generations off the replay critical path, and a newly
  /// projected table wakes it to seed at the last committed watermark. The
  /// subclass's commit path must feed it via column_store()->NoteDirty
  /// before each watermark store, else published chunks go stale silently.
  /// Before Start() only.
  void EnableColumnStore(storage::ColumnStoreOptions options);

  /// The attached column store, or nullptr. Non-const flavor for the
  /// subclass commit path (NoteDirty) and for callers that project tables
  /// before replay.
  storage::ColumnStore* column_store() { return column_store_.get(); }
  const storage::ColumnStore* ColumnStoreForTable(
      TableId /*table*/) const override {
    return column_store_.get();
  }

  Status error() const override;

  /// The next epoch id the main loop expects — i.e. every id below it has
  /// been admitted into the replay pipeline (prepared, though with
  /// pipeline_depth > 1 not necessarily committed yet; poll stats().epochs
  /// for commit progress). Safe to poll from other threads.
  EpochId next_expected_epoch() const {
    return expected_epoch_.load(std::memory_order_acquire);
  }

 protected:
  /// Opaque per-epoch state carried from PrepareEpoch to CommitEpoch.
  /// Destroying it must quiesce anything the prepare phase left in flight
  /// (e.g. translation tasks still claiming fragments) — a dropped pipeline
  /// item after an error latch is destroyed without CommitEpoch running.
  struct PreparedEpoch {
    virtual ~PreparedEpoch() = default;
  };

  /// Validates options and spawns worker pools; a failure aborts Start()
  /// without marking the replayer started. Called under the lifecycle lock.
  virtual Status StartWorkers() { return Status::OK(); }

  /// Tears down worker pools after the main loop joined.
  virtual void StopWorkers() {}

  /// Phase A of one data epoch: metadata dispatch, decode, and launching
  /// any phase-1 translation. Runs on the main loop thread, possibly while
  /// an earlier epoch is still committing — it must not install versions or
  /// publish watermarks. On failure, latch with SetError(); the returned
  /// state is then discarded without CommitEpoch.
  virtual std::unique_ptr<PreparedEpoch> PrepareEpoch(
      const ShippedEpoch& epoch) = 0;

  /// Phase B of one data epoch: version install and watermark publication.
  /// Runs on the commit context (the commit thread when pipeline_depth > 1,
  /// inline otherwise), strictly in epoch order, one epoch at a time. On
  /// failure, latch with SetError() and return false — the base then skips
  /// the per-epoch stats/metrics and stops applying. Returns true when the
  /// epoch's watermarks published: a later epoch's prepare may latch the
  /// error right after, and this epoch still counts and publishes columns.
  virtual bool CommitEpoch(const ShippedEpoch& epoch,
                           std::unique_ptr<PreparedEpoch> prepared) = 0;

  /// Publishes a heartbeat timestamp to the visibility watermark(s). Runs on
  /// the commit context, ordered with CommitEpoch — a heartbeat never
  /// overtakes the data epoch shipped before it.
  virtual void ProcessHeartbeat(const ShippedEpoch& epoch) = 0;

  /// Latches the sticky error and rings both bells.
  void SetError(Status status);

  /// Records `ts` as committed — every version at or below it installed and
  /// noted — and, once any table is projected, posts it to the column-merge
  /// worker. kInvalidTimestamp re-posts the newest committed watermark (a
  /// first projection's seed request). No-op without a column store; before
  /// Start() the request waits for the worker.
  void RequestColumnPublish(Timestamp ts);

  /// Max-guarded store of a visibility watermark, then a ring of the bell
  /// so parked WaitVisible callers re-check.
  void PublishWatermark(std::atomic<Timestamp>& slot, Timestamp ts) {
    StoreMaxTimestamp(slot, ts);
    bell().Ring();
  }

  /// Lock-free check for the hot loops (translate claims, commit waits).
  bool HasError() const {
    return error_flag_.load(std::memory_order_acquire);
  }

  bool started() const { return started_.load(std::memory_order_acquire); }

  const Catalog* catalog_;
  EpochChannel* channel_;
  TableStore store_;
  ReplayStats stats_;
  /// Rung after each change a replay-internal wait reads.
  WatermarkBell work_bell_;
  /// The next epoch id expected from the channel. Only the main loop writes
  /// it while running; Bootstrap arms it before Start(). Atomic so external
  /// observers (next_expected_epoch) can poll replay progress.
  std::atomic<EpochId> expected_epoch_{0};

 private:
  /// Early arrivals parked while a gap is open, keyed by epoch id.
  using PendingMap = std::map<EpochId, ShippedEpoch>;

  /// One in-order unit of the prepare→commit hand-off. Heartbeats flow
  /// through the same queue (prepared == nullptr) so their publication
  /// cannot overtake a data epoch still committing.
  struct PipelineItem {
    ShippedEpoch epoch;
    std::unique_ptr<PreparedEpoch> prepared;
  };

  void MainLoop();
  /// Classifies one received epoch: corrupt payloads are dropped (a loss the
  /// NACK path repairs), stale ids are counted as duplicates, early ids are
  /// parked in `pending`, and the expected id is applied — followed by every
  /// now-contiguous parked successor.
  void Ingest(ShippedEpoch epoch, PendingMap* pending, bool retransmitted);
  /// Prepares the epoch at expected_epoch_, advances the sequence, and hands
  /// the prepared item to the commit context — inline at depth 1, otherwise
  /// via the bounded pipeline queue (blocking when depth epochs are already
  /// in flight).
  void ApplyNext(ShippedEpoch epoch, bool retransmitted);
  /// Commits (or, post-latch, drains) one pipeline item and maintains the
  /// per-epoch stats/metrics. Runs on the commit context.
  void CommitItem(PipelineItem item);
  /// Commit-thread body at pipeline_depth > 1: pops the queue FIFO until it
  /// is closed and drained.
  void CommitLoop();
  /// Fills the gap at expected_epoch_ until no epoch is parked and every id
  /// below `end` is applied: a bounded reorder wait on the channel, then a
  /// NACK via the EpochSource, then the error latch once max_retries rounds
  /// pass without progress. MainLoop calls it with end = 0 while the channel
  /// is live, and with the source's NextEpochId() once it has closed.
  void FillGaps(PendingMap* pending, EpochId end);

  std::string name_;

  /// Columnar projections maintained at epoch-commit granularity; nullptr
  /// unless EnableColumnStore was called. Published only by the single
  /// commit context, read by any query thread.
  std::unique_ptr<storage::ColumnStore> column_store_;

  EpochSource* source_ = nullptr;
  ReplayRecoveryOptions recovery_;
  int pipeline_depth_ = 1;
  std::function<void(const ShippedEpoch&)> commit_hook_;

  /// Observability: stats_ exported as `replay.*` under this replayer's
  /// name; gauges resolved once and aggregated process-wide.
  obs::ExportedCounters exported_;
  obs::Gauge* pipeline_depth_metric_;
  obs::Gauge* pipeline_occupancy_metric_;

  /// Prepare→commit hand-off (pipeline_depth > 1 only). Occupancy is
  /// pipe_.size() + in_commit_; ApplyNext blocks while it equals the depth.
  std::mutex pipe_mu_;
  std::condition_variable pipe_ready_cv_;
  std::condition_variable pipe_space_cv_;
  std::deque<PipelineItem> pipe_;
  int in_commit_ = 0;
  bool pipe_closed_ = false;

  std::thread main_thread_;
  std::thread commit_thread_;
  std::mutex lifecycle_mu_;
  std::atomic<bool> started_{false};

  /// Background column-merge worker (column_store_ set only): the commit
  /// context posts the newest applied watermark via RequestColumnPublish and
  /// moves on; this thread coalesces the requests — when replay outruns it,
  /// intermediate watermarks collapse into one rebuild at the latest — and
  /// runs ColumnStore::Publish off the replay critical path. Queries stay
  /// exact in the gap through the residual top-up. The worker drains every
  /// posted request before it exits, so a stopped backup is fully chunked.
  /// While no table is projected, nothing is posted and the thread sleeps.
  void ColumnMergeLoop();
  std::thread column_thread_;
  std::mutex col_mu_;
  std::condition_variable col_cv_;
  /// The newest posted watermark: every version at or below it is
  /// installed and noted. A first projection's seed publishes at it.
  Timestamp col_committed_ = kInvalidTimestamp;
  Timestamp col_requested_ = kInvalidTimestamp;
  bool col_stop_ = false;

  mutable std::mutex error_mu_;
  Status error_;
  std::atomic<bool> error_flag_{false};
};

}  // namespace aets

#endif  // AETS_REPLAY_REPLAYER_BASE_H_
