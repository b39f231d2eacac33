#include "aets/replay/replayer_base.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "aets/common/clock.h"

namespace aets {

// How long a recovery round waits on the channel for the gap head before
// NACKing it, and how long it pauses after a NACK miss.
constexpr std::chrono::microseconds kReorderWindow{50};

ReplayerBase::ReplayerBase(const Catalog* catalog, EpochChannel* channel,
                           std::string name)
    : catalog_(catalog),
      channel_(channel),
      store_(*catalog),
      name_(std::move(name)),
      exported_(name_,
                {{"replay.epochs_applied", &stats_.epochs},
                 {"replay.txns_applied", &stats_.txns},
                 {"replay.records_applied", &stats_.records},
                 {"replay.bytes_applied", &stats_.bytes},
                 {"replay.heartbeats_applied", &stats_.heartbeats},
                 {"replay.epochs_retried", &stats_.epochs_retried},
                 {"replay.epochs_duplicate_dropped",
                  &stats_.duplicates_dropped},
                 {"replay.epochs_corrupt_dropped", &stats_.corrupt_dropped},
                 {"replay.commit_waits", &stats_.commit_waits},
                 {"replay.conflict_retries", &stats_.conflict_retries}}) {}

ReplayerBase::~ReplayerBase() {
  // Backstop only: by now the derived part is gone, so StopWorkers() would
  // not dispatch — derived destructors must call Stop() themselves.
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (main_thread_.joinable()) main_thread_.join();
}

void ReplayerBase::SetEpochSource(EpochSource* source) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_.load(std::memory_order_relaxed)) return;
  source_ = source;
}

void ReplayerBase::SetRecoveryOptions(const ReplayRecoveryOptions& options) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_.load(std::memory_order_relaxed)) return;
  recovery_ = options;
}

void ReplayerBase::EnableColumnStore(storage::ColumnStoreOptions options) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_.load(std::memory_order_relaxed)) return;
  column_store_ = std::make_unique<storage::ColumnStore>(
      catalog_, &store_, options, name_,
      [this] { RequestColumnPublish(kInvalidTimestamp); });
}

void ReplayerBase::SetCommitHookForTest(
    std::function<void(const ShippedEpoch&)> hook) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_.load(std::memory_order_relaxed)) return;
  commit_hook_ = std::move(hook);
}

Status ReplayerBase::Start() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("already started");
  }
  Status s = StartWorkers();
  if (!s.ok()) return s;
  started_.store(true, std::memory_order_release);
  if (column_store_ != nullptr) {
    col_stop_ = false;
    column_thread_ = std::thread([this] { ColumnMergeLoop(); });
  }
  main_thread_ = std::thread([this] { MainLoop(); });
  return Status::OK();
}

void ReplayerBase::Stop() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (!started_.load(std::memory_order_relaxed)) return;
  if (main_thread_.joinable()) main_thread_.join();
  if (column_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(col_mu_);
      col_stop_ = true;
    }
    col_cv_.notify_one();
    column_thread_.join();
  }
  StopWorkers();
  started_.store(false, std::memory_order_release);
}

Status ReplayerBase::error() const {
  std::lock_guard<std::mutex> lk(error_mu_);
  return error_;
}

void ReplayerBase::SetError(Status status) {
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    if (error_.ok()) error_ = std::move(status);
    error_flag_.store(true, std::memory_order_release);
  }
  work_bell_.Ring();
  bell().Ring();
}

void ReplayerBase::ApplyNext(const ShippedEpoch& epoch, bool retransmitted) {
  ++expected_epoch_;
  if (retransmitted) {
    stats_.epochs_retried.fetch_add(1, std::memory_order_relaxed);
  }
  if (stats_.wall_start_us.load() == 0) {
    stats_.wall_start_us.store(MonotonicMicros());
  }
  if (commit_hook_) commit_hook_(epoch);
  if (epoch.is_heartbeat()) {
    ProcessHeartbeat(epoch);
    stats_.heartbeats.fetch_add(1, std::memory_order_relaxed);
  } else if (ApplyEpoch(epoch)) {
    // Hand the epoch's dirty keys to the column-merge worker. The request is
    // posted after every watermark of the epoch published, so the
    // asynchronous rebuild reads fully-installed version chains at
    // max_commit_ts; a failed epoch posts nothing and its dirty keys stay
    // pending (queries resolve them through the residual path).
    RequestColumnPublish(epoch.max_commit_ts);
    stats_.epochs.fetch_add(1, std::memory_order_relaxed);
    stats_.records.fetch_add(epoch.num_records, std::memory_order_relaxed);
    stats_.bytes.fetch_add(epoch.ByteSize(), std::memory_order_relaxed);
  }
  stats_.wall_end_us.store(MonotonicMicros());
}

void ReplayerBase::Ingest(ShippedEpoch epoch, PendingMap* pending,
                          bool retransmitted) {
  if (!epoch.PayloadIntact()) {
    // Damaged in flight. The epoch is a loss, not an error: the clean copy
    // lives in the shipper's retention buffer and the gap machinery will
    // NACK it back. Without a source there is no way to recover — latch.
    stats_.corrupt_dropped.fetch_add(1, std::memory_order_relaxed);
    if (source_ == nullptr) {
      SetError(Status::Corruption(
          "epoch " + std::to_string(epoch.epoch_id) +
          " payload checksum mismatch (no retransmission source)"));
    }
    return;
  }
  if (epoch.epoch_id < expected_epoch_) {
    // Already applied — a link-level duplicate or a redundant retransmit.
    stats_.duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (epoch.epoch_id > expected_epoch_) {
    if (source_ == nullptr) {
      SetError(Status::Corruption(
          "epoch out of order: expected " + std::to_string(expected_epoch_) +
          ", got " + std::to_string(epoch.epoch_id) +
          " (no retransmission source)"));
      return;
    }
    auto [it, inserted] = pending->emplace(epoch.epoch_id, std::move(epoch));
    if (!inserted) {
      stats_.duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
    } else if (pending->size() > recovery_.max_pending) {
      SetError(Status::Corruption(
          "reorder buffer overflow: " + std::to_string(pending->size()) +
          " epochs parked waiting for epoch " +
          std::to_string(expected_epoch_)));
    }
    return;
  }
  ApplyNext(epoch, retransmitted);
  // The arrival may have been the gap head — drain every parked successor
  // that is now contiguous.
  while (!HasError()) {
    auto it = pending->find(expected_epoch_);
    if (it == pending->end()) break;
    ShippedEpoch next = std::move(it->second);
    pending->erase(it);
    ApplyNext(next, false);
  }
}

void ReplayerBase::FillGaps(PendingMap* pending, EpochId end) {
  // source_ is non-null past the loop test: Ingest latches instead of
  // parking without one, and MainLoop passes a non-zero `end` only with one.
  int rounds_without_progress = 0;
  while (!HasError() && (!pending->empty() || expected_epoch_ < end)) {
    EpochId gap = expected_epoch_;
    // Reorder window: once an epoch beyond the gap is parked, the missing one
    // may be queued right behind it (or held back by the link), so wait on
    // the channel before NACKing. After a missed round the same wait is the
    // pause before the next NACK; a closed, drained channel waits it out.
    // The window also bounds how long a queued backlog is ingested into the
    // pending buffer before the gap is NACKed.
    if (!pending->empty() || rounds_without_progress > 0) {
      const auto deadline = std::chrono::steady_clock::now() + kReorderWindow;
      while (expected_epoch_ == gap && !HasError() &&
             std::chrono::steady_clock::now() < deadline) {
        auto epoch = channel_->ReceiveUntil(deadline);
        if (!epoch) break;
        Ingest(std::move(*epoch), pending, false);
      }
      if (HasError()) return;
      if (expected_epoch_ > gap) {
        rounds_without_progress = 0;
        continue;
      }
    }
    // NACK: re-fetch the gap head from the shipper's retention buffer.
    bool fetch_missed = false;
    if (auto epoch = source_->FetchEpoch(gap)) {
      Ingest(std::move(*epoch), pending, true);
      if (expected_epoch_ > gap) {
        rounds_without_progress = 0;
        continue;
      }
    } else if (gap < source_->FloorEpochId()) {
      // Not a loss: truncation dropped this id because a checkpoint image
      // covers it. The distinct code lets the operator bootstrap from the
      // image instead of treating the backup as corrupt.
      SetError(Status::BelowCheckpoint(
          "epoch " + std::to_string(gap) +
          " is below the durable log's truncation floor " +
          std::to_string(source_->FloorEpochId()) +
          "; a checkpoint image covers it — bootstrap from that image"));
      return;
    } else {
      // A miss is not proof of loss: over a socket source the same nullopt
      // also covers a timed-out NACK RPC, and latching on the first one
      // would poison the replayer on a transient stall. Burn a retry round
      // (the next round's reorder window is the pause) and only conclude
      // eviction once the budget is spent.
      fetch_missed = true;
    }
    if (++rounds_without_progress >= recovery_.max_retries) {
      if (fetch_missed) {
        SetError(Status::Corruption(
            "epoch " + std::to_string(gap) +
            " lost in transit and evicted from the shipper's retention "
            "buffer (" + std::to_string(recovery_.max_retries) +
            " NACK attempts); re-bootstrap from a checkpoint"));
      } else {
        SetError(Status::Corruption(
            "epoch gap at " + std::to_string(gap) + " persisted after " +
            std::to_string(recovery_.max_retries) + " recovery rounds"));
      }
      return;
    }
  }
}

void ReplayerBase::MainLoop() {
  PendingMap pending;
  while (auto epoch = channel_->Receive()) {
    // Once the error latch trips, stop applying but keep draining: the
    // channel is bounded, so refusing to receive could block the shipper
    // forever. Nothing received after the failure point is installed and no
    // watermark moves.
    if (HasError()) continue;
    Ingest(std::move(*epoch), &pending, false);
    FillGaps(&pending, /*end=*/0);
  }
  // The channel is closed and drained, so the shipper has finished: every id
  // below its NextEpochId() was handed to the link, and whatever is still
  // unapplied was swallowed by it. Pull the remainder straight from
  // retention through the same loop.
  if (source_ != nullptr && !HasError()) {
    FillGaps(&pending, source_->NextEpochId());
  }
}

void ReplayerBase::RequestColumnPublish(Timestamp ts) {
  if (column_store_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(col_mu_);
    col_committed_ = std::max(col_committed_, ts);
    // Unprojected tables need no generation. A projection racing this check
    // re-posts under col_mu_ after raising the count, so either this post
    // sees the count or that re-post sees col_committed_.
    if (col_committed_ == kInvalidTimestamp ||
        !column_store_->AnyProjected()) {
      return;
    }
    col_requested_ = col_committed_;
  }
  col_cv_.notify_one();
}

void ReplayerBase::ColumnMergeLoop() {
  for (;;) {
    Timestamp ts;
    {
      std::unique_lock<std::mutex> lk(col_mu_);
      col_cv_.wait(lk, [&] {
        return col_stop_ || col_requested_ != kInvalidTimestamp;
      });
      if (col_requested_ == kInvalidTimestamp) return;  // stopped and drained
      ts = col_requested_;
      col_requested_ = kInvalidTimestamp;
    }
    // Reading at `ts` is stable against concurrent commits (MVCC reads at a
    // fixed timestamp) and the poster's mutex hand-off ordered every version
    // <= ts before this call. When several requests queued up while a
    // rebuild ran, the coalesced `ts` is the latest — one rebuild covers
    // them all.
    column_store_->Publish(ts);
  }
}

}  // namespace aets
