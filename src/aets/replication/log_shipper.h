#ifndef AETS_REPLICATION_LOG_SHIPPER_H_
#define AETS_REPLICATION_LOG_SHIPPER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "aets/catalog/shard_map.h"
#include "aets/common/clock.h"
#include "aets/log/epoch.h"
#include "aets/log/shipped_epoch.h"
#include "aets/obs/metrics.h"
#include "aets/replication/channel.h"
#include "aets/replication/epoch_source.h"
#include "aets/storage/segment_store.h"

namespace aets {

/// Batches the primary's committed transactions into fixed-size epochs,
/// encodes each sealed epoch, and fans it out to every attached backup
/// channel (paper Section III-B: epochs are sealed on transaction
/// boundaries, sized by transaction count, and shipped in commit order).
///
/// An optional sealer thread (StartHeartbeats) bounds how long an epoch
/// waits to fill: it seals and ships the open epoch once its first
/// transaction is `max_epoch_age_us` old, whichever of age and size comes
/// first. When the primary goes idle it ships heartbeat epochs so the
/// backups' global_cmt_ts keeps advancing (paper Section V-B, 50 ms
/// default).
///
/// Sharded replication (DESIGN.md §11): with a ShardMap installed the
/// shipper routes every sealed epoch through N per-shard lanes. Each lane
/// carries a *sub-epoch* — the same epoch id, holding exactly the
/// transactions (trimmed to this shard's DML records) that touch the
/// shard's tables. A shard untouched by an epoch receives a synthetic
/// heartbeat at the epoch's max commit timestamp instead, so every lane
/// observes the full, gapless epoch id sequence and every shard's
/// watermarks keep pace with the primary. Data sub-epochs carry the FULL
/// epoch's max_commit_ts so quiet tables and the per-shard global
/// watermark advance as far as the unsharded stream would. Without a
/// ShardMap there is exactly one lane and the wire stream is byte-identical
/// to the pre-sharding shipper.
///
/// Fault tolerance: every delivered epoch (heartbeats included) is kept in a
/// bounded retention buffer — one buffer whose entries hold all N per-shard
/// sub-epochs, serving N independent NACK streams through shard_source(i).
/// Epochs rejected by every channel of a lane (closed link) are counted as
/// dropped on that lane, not shipped; the conservation invariant is
/// `epochs_produced() == epochs_shipped() + epochs_dropped()`, where each
/// accessor sums its per-lane counter over all shards.
class LogShipper : public EpochSource {
 public:
  /// Invoked (outside the shipper lock) when a lane's segment store first
  /// exceeds its disk_budget_bytes: `shard` is the over-budget lane,
  /// `next_epoch_id` the id the next epoch will carry, `disk_bytes` the
  /// lane's footprint at the moment it tripped. The receiver is expected to
  /// checkpoint that shard's backup and call SegmentStore::TruncateBelow;
  /// the trigger re-arms only once the store drops back under budget, so a
  /// slow checkpointer sees one request per over-budget episode, not one
  /// per epoch.
  using CheckpointTrigger =
      std::function<void(int shard, EpochId next_epoch_id,
                         uint64_t disk_bytes)>;

  /// `retention_capacity` bounds the NACK window: a backup that falls more
  /// than this many epochs behind can no longer recover a loss and must
  /// re-bootstrap from a checkpoint.
  explicit LogShipper(size_t epoch_size, size_t retention_capacity = 128);
  ~LogShipper() override;

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  /// Installs the table→shard partition and sizes the per-shard lanes. Must
  /// be called before any channel/segment-store attach and before the first
  /// epoch ships; `map` must outlive the shipper. Without this call the
  /// shipper runs unsharded (one lane, legacy wire format).
  void SetShardMap(const ShardMap* map);

  /// Number of shard lanes (1 without a ShardMap).
  int shard_count() const;

  /// Attaches a backup channel to shard 0 (the whole stream when unsharded).
  void AttachChannel(EpochChannel* channel);

  /// Attaches a backup channel to one shard's lane. Every channel of a lane
  /// receives every sub-epoch routed to that shard.
  void AttachShardChannel(int shard, EpochChannel* channel);

  /// Removes `channel` from every lane it is attached to (no-op when absent).
  /// After this returns no further Send touches the channel, so a transport
  /// endpoint (e.g. the network tier's per-subscriber staging channel) may
  /// safely destroy channels whose subscriber is gone instead of leaking
  /// them for the shipper's lifetime.
  void DetachChannel(EpochChannel* channel);

  /// True once Finish() sealed the stream — transports use this to tell a
  /// final end-of-stream apart from their own shutdown.
  bool finished() const;

  /// Attaches the durable tier (DESIGN.md §10) to shard 0. Every delivered
  /// epoch — heartbeats included — is appended to `store` at deliver time,
  /// so the sequential segment log always holds the full epoch sequence.
  /// The RAM retention buffer then *spills* on overflow instead of losing:
  /// evicting a durable entry is a RAM→disk-only transition, and FetchEpoch
  /// falls through to the store for evicted ids, turning the old terminal
  /// eviction error into a disk fetch.
  ///
  /// An append failure (full disk) marks that epoch non-durable and counts
  /// `spill_failures`; evicting a non-durable entry is the legacy terminal
  /// loss — graceful degradation, not an abort.
  ///
  /// Call before the first epoch ships; `store` must be empty or positioned
  /// at this shipper's next epoch id, and must outlive the shipper.
  void AttachSegmentStore(SegmentStore* store);

  /// Per-shard durable tier: each lane can have its own segment store (its
  /// own directory), holding that shard's sub-epoch sequence. Same contract
  /// as AttachSegmentStore.
  void AttachShardSegmentStore(int shard, SegmentStore* store);

  /// Installs the disk-budget callback (see CheckpointTrigger). Lanes whose
  /// stores carry disk_budget_bytes == 0 never fire it.
  void SetCheckpointTrigger(CheckpointTrigger trigger);

  /// Commit-sink entry point: call in primary commit order.
  void OnCommit(TxnLog txn);

  /// The default age bound of the sealer thread: long enough that an
  /// epoch still batches a few transactions at OLTP rates, short enough
  /// that the fill wait no longer dominates the commit-to-visible lag.
  static constexpr int64_t kDefaultMaxEpochAgeUs = 2'000;

  /// Starts the sealer thread. It seals and ships the open epoch once it is
  /// `max_epoch_age_us` old (0: only the size trigger seals), and ships a
  /// heartbeat epoch after every `interval_us` without a commit. It parks
  /// on a condition variable between deadlines; OnCommit wakes it at most
  /// once per epoch, on the epoch's first transaction, and only when it is
  /// parked past that epoch's age deadline. `ts_source` must return a
  /// timestamp below every future commit and above every already-sunk commit
  /// (PrimaryDb::AcquireHeartbeatTs). Called without the shipper lock held.
  /// Idempotent: only the first call starts a thread; calls after Finish()
  /// are ignored.
  void StartHeartbeats(std::function<Timestamp()> ts_source,
                       int64_t interval_us = 50'000,
                       int64_t max_epoch_age_us = kDefaultMaxEpochAgeUs);

  /// Seals and ships the currently open partial epoch, if any. The
  /// deterministic simulation harness uses this to place epoch boundaries
  /// exactly where a scenario script says, instead of on the size trigger.
  void FlushEpoch();

  /// Flushes the open epoch, then ships one heartbeat epoch carrying `ts`
  /// (to every shard lane, same epoch id). `ts` must satisfy the
  /// StartHeartbeats contract (above every sunk commit, below every future
  /// one); kInvalidTimestamp is ignored. The simulation harness calls this
  /// in place of the wall-clock heartbeat thread.
  void ShipHeartbeat(Timestamp ts);

  /// Wakes and joins the sealer thread, seals and ships the final partial
  /// epoch, and closes all channels on all lanes. Idempotent.
  void Finish();

  /// EpochSource: the replayers' NACK path, served from the retention
  /// buffer. Equivalent to shard_source(0) — the whole stream when
  /// unsharded. Successful fetches count as retransmits.
  std::optional<ShippedEpoch> FetchEpoch(EpochId id) override;
  EpochId NextEpochId() const override;
  /// Shard 0's truncation floor (see ShardFloorEpochId).
  EpochId FloorEpochId() const override;

  /// The durable truncation floor of one lane: its segment store's
  /// first_epoch() when a store is attached, 0 otherwise. A NACK
  /// for an id below this that misses RAM is "already checkpointed", not
  /// loss — the replayer reports BelowCheckpoint instead of Corruption.
  EpochId ShardFloorEpochId(int shard) const;

  /// Per-shard NACK back-channel: serves shard `shard`'s sub-epoch stream
  /// out of the shared retention buffer (falling through to that lane's
  /// segment store for evicted ids). The returned source is owned by the
  /// shipper and valid for its lifetime.
  EpochSource* shard_source(int shard);

  /// Fetches shard `shard`'s sub-epoch with id `id` (what shard_source
  /// serves). Counts as a retransmit on that lane when found.
  std::optional<ShippedEpoch> FetchShardEpoch(int shard, EpochId id);

  /// Sub-epochs delivered across all lanes (data and heartbeat frames; one
  /// per epoch id per shard). Unsharded this is the classic "epochs shipped
  /// plus heartbeats" count.
  EpochId epochs_shipped() const { return SumLanes(&Lane::shipped); }
  /// Heartbeat epoch *ids* shipped (idle heartbeats; synthetic per-shard
  /// fillers inside data epochs are counted in epochs_shipped per lane, not
  /// here).
  uint64_t heartbeats_shipped() const {
    return heartbeats_.load(std::memory_order_relaxed);
  }
  /// Channel-level Send() rejections (closed channel), across all lanes.
  uint64_t send_failures() const { return SumLanes(&Lane::send_failures); }
  /// Sub-epochs that reached zero attached channels on their lane — lost at
  /// the send side.
  uint64_t epochs_dropped() const { return SumLanes(&Lane::dropped); }
  /// Sub-epochs re-served through the NACK path (RAM or disk), all lanes.
  uint64_t retransmits() const { return SumLanes(&Lane::retransmits); }
  /// Every sub-epoch that entered delivery, heartbeats included (one per
  /// epoch id per lane). The conservation invariant
  /// `produced == shipped + dropped` always holds, globally and per shard;
  /// spills are a disjoint dimension (where a produced epoch lives), never
  /// double-counted against shipped.
  uint64_t epochs_produced() const { return SumLanes(&Lane::produced); }
  /// Durable sub-epochs evicted from the RAM retention buffer (now
  /// disk-only), all lanes.
  uint64_t epochs_spilled() const { return SumLanes(&Lane::spilled); }
  /// Segment-store appends that failed (disk full); those sub-epochs are
  /// RAM-only and evicting them is the legacy terminal loss.
  uint64_t spill_failures() const {
    return SumLanes(&Lane::spill_failures);
  }
  /// Durable sub-epochs evicted from RAM after truncation had already
  /// dropped them from disk: checkpoint-covered, so NOT counted as spilled
  /// (a spill promises a disk fetch; these promise a checkpoint image). The
  /// conserved `produced == shipped + dropped` invariant is untouched
  /// either way.
  uint64_t spills_below_floor() const {
    return SumLanes(&Lane::spills_below_floor);
  }
  /// CheckpointTrigger firings across all lanes (one per over-budget
  /// episode per lane).
  uint64_t budget_triggers() const {
    return SumLanes(&Lane::budget_triggers);
  }

  /// Per-shard views of the conserved accounting (`produced == shipped +
  /// dropped` holds for each shard independently).
  uint64_t shard_produced(int s) const { return LaneValue(s, &Lane::produced); }
  uint64_t shard_shipped(int s) const { return LaneValue(s, &Lane::shipped); }
  uint64_t shard_dropped(int s) const { return LaneValue(s, &Lane::dropped); }
  uint64_t shard_spilled(int s) const { return LaneValue(s, &Lane::spilled); }

 private:
  /// One shard's delivery lane: its channels, optional durable tier, and
  /// the per-shard half of every counter. The counters are written only
  /// under mu_ (see Bump); they are atomics so the metrics registry can
  /// read them without the shipper lock, exported as `shipper.*` and
  /// `segment.*` with a `lane<i>` scope.
  struct Lane {
    explicit Lane(int shard);

    std::vector<EpochChannel*> channels;
    SegmentStore* segment_store = nullptr;
    std::atomic<uint64_t> produced{0};
    std::atomic<uint64_t> shipped{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> send_failures{0};
    std::atomic<uint64_t> spilled{0};
    std::atomic<uint64_t> spill_failures{0};
    std::atomic<uint64_t> spills_below_floor{0};
    std::atomic<uint64_t> retransmits{0};
    std::atomic<uint64_t> budget_triggers{0};
    /// Data sub-epochs only (heartbeats carry no transactions or payload).
    std::atomic<uint64_t> txns_shipped{0};
    std::atomic<uint64_t> bytes_shipped{0};
    /// One CheckpointTrigger per over-budget episode: disarmed on fire,
    /// re-armed when the store drops back under budget.
    bool budget_trigger_armed = true;
    obs::ExportedCounters exported;
  };

  /// Adds to a counter whose only writer holds mu_: a plain load/store, no
  /// read-modify-write on the commit-sink path.
  static void Bump(std::atomic<uint64_t>& counter, uint64_t delta = 1) {
    counter.store(counter.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
  }
  /// The sum of one Lane counter over all lanes, and one lane's value.
  uint64_t SumLanes(std::atomic<uint64_t> Lane::*counter) const;
  uint64_t LaneValue(int shard, std::atomic<uint64_t> Lane::*counter) const;

  /// EpochSource view of one lane.
  class ShardSource : public EpochSource {
   public:
    ShardSource(LogShipper* owner, int shard) : owner_(owner), shard_(shard) {}
    std::optional<ShippedEpoch> FetchEpoch(EpochId id) override {
      return owner_->FetchShardEpoch(shard_, id);
    }
    EpochId NextEpochId() const override { return owner_->NextEpochId(); }
    EpochId FloorEpochId() const override {
      return owner_->ShardFloorEpochId(shard_);
    }

   private:
    LogShipper* owner_;
    int shard_;
  };

  /// Invokes every trigger queued under the lock by DeliverLocked. Must be
  /// called WITHOUT mu_ held — the receiver typically checkpoints and
  /// truncates, which re-enters the store.
  void FirePendingTriggers();
  void ShipLocked(Epoch epoch);
  /// Splits a sealed epoch into per-lane sub-epochs (identity when
  /// unsharded; synthetic heartbeats for untouched shards otherwise).
  std::vector<ShippedEpoch> SplitLocked(const Epoch& epoch) const;
  /// Retains all `subs` under `id` and fans each out on its lane; returns
  /// the number of lanes that accepted (a lane with no channels counts as
  /// accepted, matching the unsharded contract).
  size_t DeliverLocked(EpochId id, std::vector<ShippedEpoch> subs);
  /// The sealer thread: age seals and idle heartbeats, parked on
  /// sealer_cv_ until the nearer of the two deadlines or Finish().
  void SealerLoop();
  /// Flushes the open epoch and, unless `ts` is kInvalidTimestamp, ships
  /// one heartbeat epoch carrying `ts` to every lane. Takes mu_ itself, so
  /// callers acquire `ts` (the primary's commit mutex) before the shipper
  /// lock. False once Finish() has run.
  bool FlushAndHeartbeat(Timestamp ts);

  mutable std::mutex mu_;
  EpochBuilder builder_;
  const ShardMap* shard_map_ = nullptr;  // null = unsharded (one lane)
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<ShardSource>> sources_;
  /// Heartbeat epoch ids shipped; written under mu_.
  std::atomic<uint64_t> heartbeats_{0};
  obs::ExportedCounters exported_;
  bool finished_ = false;

  /// Recently delivered epochs, contiguous ids, newest at the back. Sized
  /// by `retention_capacity_`; payloads are shared so retention costs one
  /// ShippedEpoch header per entry per lane, not a payload copy. `durable`
  /// records, per lane, whether the segment-store append succeeded at
  /// deliver time. One buffer serves all N NACK streams.
  struct Retained {
    EpochId id = 0;
    std::vector<ShippedEpoch> sub;   // one per lane
    std::vector<uint8_t> durable;    // one per lane
  };
  std::deque<Retained> retained_;
  size_t retention_capacity_;

  /// Disk-budget checkpoint requests. Queued under mu_ at deliver time,
  /// drained by FirePendingTriggers() after every public entry point
  /// releases the lock.
  struct PendingTrigger {
    int shard;
    EpochId next_epoch;
    uint64_t disk_bytes;
  };
  CheckpointTrigger checkpoint_trigger_;
  std::vector<PendingTrigger> pending_triggers_;

  /// Batch latency: first-commit-in-epoch to ship.
  Histogram* batch_latency_us_metric_;
  int64_t epoch_open_us_ = 0;  // first OnCommit of the open epoch; 0 = none

  /// Sealer state, guarded by mu_ (the interval and source are fixed before
  /// the thread starts; sealer_thread_ is assigned under mu_ and joined
  /// only after stop_sealer_ is set). max_epoch_age_us_ stays 0 without a
  /// sealer, so OnCommit only wakes a thread that exists.
  std::condition_variable sealer_cv_;
  int64_t last_activity_us_ = 0;  // last commit or heartbeat
  int64_t max_epoch_age_us_ = 0;
  int64_t sealer_wake_at_us_ = 0;  // while parked: when it wakes; else 0
  bool stop_sealer_ = false;
  int64_t heartbeat_interval_us_ = 50'000;
  std::function<Timestamp()> heartbeat_ts_source_;
  std::thread sealer_thread_;
};

}  // namespace aets

#endif  // AETS_REPLICATION_LOG_SHIPPER_H_
