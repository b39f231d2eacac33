#ifndef AETS_REPLAY_REPLAYER_H_
#define AETS_REPLAY_REPLAYER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "aets/catalog/catalog.h"
#include "aets/common/clock.h"
#include "aets/common/status.h"
#include "aets/common/watermark_bell.h"
#include "aets/storage/table_store.h"

namespace aets {

/// Counters shared by all replayer implementations. The dispatch/replay/
/// commit nanosecond breakdown reproduces the paper's Table II.
struct ReplayStats {
  std::atomic<uint64_t> epochs{0};
  std::atomic<uint64_t> txns{0};
  std::atomic<uint64_t> records{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<int64_t> dispatch_ns{0};
  std::atomic<int64_t> replay_ns{0};
  std::atomic<int64_t> commit_ns{0};
  /// Wall time spent in the two stages (AETS only): stage 1 replays the
  /// hot (first-class) groups, stage 2 the cold groups.
  std::atomic<int64_t> stage1_wall_ns{0};
  std::atomic<int64_t> stage2_wall_ns{0};
  /// Time replay workers spent blocked on ordering synchronization (ATR's
  /// operation-sequence-check waits). Grows with worker count; drives the
  /// scalability analysis of Fig. 11.
  std::atomic<int64_t> sync_wait_ns{0};
  std::atomic<int64_t> wall_start_us{0};
  std::atomic<int64_t> wall_end_us{0};
  /// Degraded-mode counters of the loss-recovery protocol: epochs recovered
  /// through the shipper's retention buffer (NACK retransmits), duplicate
  /// epoch ids skipped, and payloads whose CRC failed on receive. All zero
  /// on a healthy link.
  std::atomic<uint64_t> epochs_retried{0};
  std::atomic<uint64_t> duplicates_dropped{0};
  std::atomic<uint64_t> corrupt_dropped{0};
  /// Heartbeat epochs routed through ProcessHeartbeat. Together with
  /// `epochs` this tells an external stepper when a shipped epoch has been
  /// fully consumed (the simulation harness waits on it).
  std::atomic<uint64_t> heartbeats{0};
  /// Times the main loop blocked handing a prepared epoch to a full commit
  /// pipeline (pipeline_depth epochs already in flight) — the backpressure
  /// events of the cross-epoch pipeline, DESIGN.md §9.
  std::atomic<uint64_t> pipeline_stalls{0};
  /// Phase-2 commits that found the next transaction in commit order not yet
  /// translated (AETS) or applied (ATR) and parked on the work bell for it.
  std::atomic<uint64_t> commit_waits{0};
  /// ATR operation-sequence checks that found an earlier operation on the
  /// same record still uninstalled and parked until it landed.
  std::atomic<uint64_t> conflict_retries{0};

  int64_t WallMicros() const {
    // An error latched before the first epoch leaves both marks at zero; a
    // clamped difference keeps downstream throughput math out of inf/NaN.
    int64_t us = wall_end_us.load() - wall_start_us.load();
    return us < 0 ? 0 : us;
  }
  /// Replayed transactions per second of wall time.
  double TxnsPerSec() const {
    int64_t us = WallMicros();
    return us <= 0 ? 0.0 : static_cast<double>(txns.load()) * 1e6 /
                               static_cast<double>(us);
  }
  double DispatchFraction() const {
    int64_t total = dispatch_ns.load() + replay_ns.load() + commit_ns.load();
    return total <= 0 ? 0.0
                      : static_cast<double>(dispatch_ns.load()) /
                            static_cast<double>(total);
  }
  double ReplayFraction() const {
    int64_t total = dispatch_ns.load() + replay_ns.load() + commit_ns.load();
    return total <= 0 ? 0.0
                      : static_cast<double>(replay_ns.load()) /
                            static_cast<double>(total);
  }
  double CommitFraction() const {
    int64_t total = dispatch_ns.load() + replay_ns.load() + commit_ns.load();
    return total <= 0 ? 0.0
                      : static_cast<double>(commit_ns.load()) /
                            static_cast<double>(total);
  }
};

/// Common interface of the backup-side log replayers: AETS and the three
/// baselines (ATR, C5, ungrouped TPLR) plus the serial oracle. A replayer
/// consumes encoded epochs from its channel, installs versions into its
/// TableStore, and publishes visibility timestamps that Algorithm 3 reads.
class EpochSource;

namespace storage {
class ColumnStore;
}  // namespace storage

class Replayer {
 public:
  virtual ~Replayer() = default;

  /// Attaches the primary-side retransmission source (the NACK back-channel
  /// of the recovery protocol; LogShipper implements it). Optional — without
  /// one, any gap or corrupt payload on the channel is a terminal error.
  /// Must be called before Start(). Default: ignored.
  virtual void SetEpochSource(EpochSource* /*source*/) {}

  /// Spawns the replay machinery; returns once threads are running.
  virtual Status Start() = 0;

  /// Blocks until the channel is closed and fully drained, then joins all
  /// threads. After Stop(), the backup state is final.
  virtual void Stop() = 0;

  /// Publish timestamp of the table: the commit timestamp of the latest
  /// transaction visible on this table's group (tg_cmt_ts in the paper).
  virtual Timestamp TableVisibleTs(TableId table) const = 0;

  /// Maximum timestamp T such that every transaction with commit_ts <= T is
  /// fully replayed across all tables (global_cmt_ts in the paper).
  virtual Timestamp GlobalVisibleTs() const = 0;

  virtual TableStore* store() = 0;

  /// The store holding `table`'s versions. Single-backup replayers keep every
  /// table in one store (the default); the ShardedBackup facade routes to the
  /// owning shard's store. Snapshot readers (OLAP scans, the sim oracle) must
  /// use this instead of store() so their reads stay correct under sharding.
  virtual TableStore* StoreForTable(TableId /*table*/) { return store(); }

  /// The columnar projection covering `table`, or nullptr when this
  /// replayer maintains none (disabled, or a baseline without the commit
  /// hook) — callers fall back to the row path. The ShardedBackup facade
  /// routes to the owning shard's store.
  virtual const storage::ColumnStore* ColumnStoreForTable(
      TableId /*table*/) const {
    return nullptr;
  }

  virtual const ReplayStats& stats() const = 0;
  virtual std::string name() const = 0;

  /// Sticky error (unrecoverable loss, corrupted record, pending-buffer
  /// overflow). OK while healthy or fully recovered; a replayer without an
  /// error latch is always OK.
  virtual Status error() const { return Status::OK(); }

  /// The bell rung right after every advance of TableVisibleTs or
  /// GlobalVisibleTs; WaitVisible parks on it. Implementations must Ring()
  /// it after each watermark store, or waiters sleep through the advance.
  /// ReplayerBase also rings it when its error latch trips.
  WatermarkBell& bell() const { return *bell_; }

  /// Makes this replayer ring `bell` instead of its own (ShardedBackup
  /// points every shard at the facade's bell, so an advance on any shard
  /// wakes its waiters). `bell` must outlive this replayer. Before Start()
  /// only.
  void ShareBell(WatermarkBell* bell) { bell_ = bell; }

 private:
  WatermarkBell own_bell_;
  WatermarkBell* bell_ = &own_bell_;
};

/// Algorithm 3 (Visibility at backup): blocks until every table in `tables`
/// is visible at snapshot `qts` — i.e. min tg_cmt_ts over the accessed
/// groups reaches qts, or the global watermark does. A blocked query parks
/// on the replayer's WatermarkBell and re-checks after each ring. Returns
/// the wall time waited in microseconds (the query's visibility delay).
int64_t WaitVisible(const Replayer& replayer, const std::vector<TableId>& tables,
                    Timestamp qts);

/// Non-blocking variant: true when `qts` is already visible on all `tables`.
bool IsVisible(const Replayer& replayer, const std::vector<TableId>& tables,
               Timestamp qts);

}  // namespace aets

#endif  // AETS_REPLAY_REPLAYER_H_
