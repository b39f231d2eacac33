#ifndef AETS_REPLICATION_CHANNEL_H_
#define AETS_REPLICATION_CHANNEL_H_

#include <chrono>
#include <optional>

#include "aets/common/clock.h"
#include "aets/common/queue.h"
#include "aets/log/shipped_epoch.h"
#include "aets/obs/metrics.h"

namespace aets {

/// In-process stand-in for the primary->backup network link: a bounded
/// blocking queue of encoded epochs, delivered in send order. The link is
/// NOT assumed reliable by the consumers: replayers verify each epoch's
/// payload CRC and the epoch-id sequence on receive, tolerate duplicates,
/// and recover drops/reorderings through the shipper's retention buffer
/// (see EpochSource and DESIGN.md "Failure model & recovery"). Loss,
/// duplication, reordering, delay, and corruption are exercised by
/// FaultInjectingChannel in tests/test_fault_injection.cc.
///
/// The receive-side methods are non-virtual on purpose: a faulty link only
/// mutates what the sender puts on the wire, so FaultInjectingChannel
/// overrides Send (and Close, to flush its reorder slot) while delivery
/// stays the plain queue pop.
///
/// Instrumented: `channel.depth` (epochs queued across all channels, the
/// replay backlog), `channel.recv_wait_us` (consumer time blocked per
/// receive — replayer starvation), `channel.epochs_sent`.
class EpochChannel {
 public:
  explicit EpochChannel(size_t capacity = 128)
      : queue_(capacity),
        depth_metric_(obs::GetGauge("channel.depth")),
        sent_metric_(obs::GetCounter("channel.epochs_sent")),
        recv_wait_us_metric_(obs::GetHistogram("channel.recv_wait_us")) {}

  virtual ~EpochChannel() = default;

  EpochChannel(const EpochChannel&) = delete;
  EpochChannel& operator=(const EpochChannel&) = delete;

  /// Hands one epoch to the link. False means the channel is closed — the
  /// caller must count the failure; pretending a rejected epoch was shipped
  /// is exactly the silent-loss bug this layer exists to prevent.
  virtual bool Send(ShippedEpoch epoch) { return Enqueue(std::move(epoch)); }

  /// Blocks for the next epoch; nullopt when the channel is closed and
  /// drained.
  std::optional<ShippedEpoch> Receive() {
    int64_t start = MonotonicMicros();
    std::optional<ShippedEpoch> epoch = queue_.Pop();
    if (epoch) {
      depth_metric_->Add(-1);
      recv_wait_us_metric_->Record(MonotonicMicros() - start);
    }
    return epoch;
  }

  std::optional<ShippedEpoch> TryReceive() {
    return ReceiveUntil(std::chrono::steady_clock::now());
  }

  /// Waits for the next epoch until `deadline`; nullopt on timeout. A closed
  /// channel waits out the deadline too (BlockingQueue::PopUntil): the
  /// replayer's reorder window and NACK-miss pause are this one wait.
  std::optional<ShippedEpoch> ReceiveUntil(
      std::chrono::steady_clock::time_point deadline) {
    std::optional<ShippedEpoch> epoch = queue_.PopUntil(deadline);
    if (epoch) depth_metric_->Add(-1);
    return epoch;
  }

  virtual void Close() { queue_.Close(); }

  size_t PendingEpochs() const { return queue_.Size(); }

 protected:
  /// Actual delivery onto the queue, shared by Send overrides.
  bool Enqueue(ShippedEpoch epoch) {
    bool ok = queue_.Push(std::move(epoch));
    if (ok) {
      sent_metric_->Add(1);
      depth_metric_->Add(1);
    }
    return ok;
  }

 private:
  BlockingQueue<ShippedEpoch> queue_;
  obs::Gauge* depth_metric_;
  obs::Counter* sent_metric_;
  Histogram* recv_wait_us_metric_;
};

}  // namespace aets

#endif  // AETS_REPLICATION_CHANNEL_H_
