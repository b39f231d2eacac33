#include "aets/replication/log_shipper.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "aets/common/macros.h"

namespace aets {

LogShipper::Lane::Lane(int shard)
    : exported("lane" + std::to_string(shard),
               {{"shipper.epochs_produced", &produced},
                {"shipper.epochs_shipped", &shipped},
                {"shipper.epochs_dropped", &dropped},
                {"shipper.send_failures", &send_failures},
                {"shipper.retransmits", &retransmits},
                {"shipper.txns_shipped", &txns_shipped},
                {"shipper.bytes_shipped", &bytes_shipped},
                {"segment.spills", &spilled},
                {"segment.spill_failures", &spill_failures},
                {"segment.spills_below_floor", &spills_below_floor},
                {"segment.budget_triggers", &budget_triggers}}) {}

LogShipper::LogShipper(size_t epoch_size, size_t retention_capacity)
    : builder_(epoch_size),
      exported_("", {{"shipper.heartbeats_shipped", &heartbeats_}}),
      retention_capacity_(retention_capacity),
      batch_latency_us_metric_(obs::GetHistogram("shipper.batch_latency_us")) {
  AETS_CHECK(retention_capacity_ > 0);
  lanes_.push_back(std::make_unique<Lane>(0));
  sources_.push_back(std::make_unique<ShardSource>(this, 0));
}

LogShipper::~LogShipper() { Finish(); }

void LogShipper::SetShardMap(const ShardMap* map) {
  std::lock_guard<std::mutex> lk(mu_);
  AETS_CHECK(map != nullptr && map->num_shards() >= 1);
  AETS_CHECK_MSG(builder_.next_epoch_id() == 0 && retained_.empty() &&
                     !finished_,
                 "shard map must be installed before the first epoch ships");
  for (const auto& lane : lanes_) {
    AETS_CHECK_MSG(lane->channels.empty() && lane->segment_store == nullptr,
                   "shard map must be installed before channels or stores");
  }
  shard_map_ = map;
  lanes_.clear();
  sources_.clear();
  for (int s = 0; s < map->num_shards(); ++s) {
    lanes_.push_back(std::make_unique<Lane>(s));
    sources_.push_back(std::make_unique<ShardSource>(this, s));
  }
}

int LogShipper::shard_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(lanes_.size());
}

void LogShipper::AttachChannel(EpochChannel* channel) {
  AttachShardChannel(0, channel);
}

void LogShipper::AttachShardChannel(int shard, EpochChannel* channel) {
  std::lock_guard<std::mutex> lk(mu_);
  AETS_CHECK(shard >= 0 && shard < static_cast<int>(lanes_.size()));
  lanes_[shard]->channels.push_back(channel);
}

void LogShipper::DetachChannel(EpochChannel* channel) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& lane : lanes_) {
    lane->channels.erase(
        std::remove(lane->channels.begin(), lane->channels.end(), channel),
        lane->channels.end());
  }
}

bool LogShipper::finished() const {
  std::lock_guard<std::mutex> lk(mu_);
  return finished_;
}

void LogShipper::AttachSegmentStore(SegmentStore* store) {
  AttachShardSegmentStore(0, store);
}

void LogShipper::AttachShardSegmentStore(int shard, SegmentStore* store) {
  std::lock_guard<std::mutex> lk(mu_);
  AETS_CHECK(shard >= 0 && shard < static_cast<int>(lanes_.size()));
  AETS_CHECK_MSG(store == nullptr || store->empty() ||
                     store->next_epoch() == builder_.next_epoch_id(),
                 "segment store out of step with the epoch sequence");
  lanes_[shard]->segment_store = store;
}

void LogShipper::SetCheckpointTrigger(CheckpointTrigger trigger) {
  std::lock_guard<std::mutex> lk(mu_);
  checkpoint_trigger_ = std::move(trigger);
}

void LogShipper::FirePendingTriggers() {
  std::vector<PendingTrigger> fire;
  CheckpointTrigger trigger;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (pending_triggers_.empty()) return;
    fire.swap(pending_triggers_);
    trigger = checkpoint_trigger_;
  }
  if (!trigger) return;
  for (const PendingTrigger& t : fire) {
    trigger(t.shard, t.next_epoch, t.disk_bytes);
  }
}

void LogShipper::OnCommit(TxnLog txn) {
  bool wake_sealer = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (finished_) return;
    const int64_t now = MonotonicMicros();
    last_activity_us_ = now;
    if (epoch_open_us_ == 0) {
      // A new epoch opened. Wake the sealer only if it is parked past this
      // epoch's age deadline (toward a heartbeat); under load it already
      // wakes in time for an older deadline and re-arms for this one.
      epoch_open_us_ = now;
      wake_sealer = max_epoch_age_us_ > 0 &&
                    now + max_epoch_age_us_ < sealer_wake_at_us_;
    }
    auto sealed = builder_.AddTxn(std::move(txn));
    if (sealed) {
      ShipLocked(std::move(*sealed));
      wake_sealer = false;
    }
  }
  if (wake_sealer) sealer_cv_.notify_one();
  FirePendingTriggers();
}

void LogShipper::StartHeartbeats(std::function<Timestamp()> ts_source,
                                 int64_t interval_us,
                                 int64_t max_epoch_age_us) {
  AETS_CHECK(interval_us > 0 && max_epoch_age_us >= 0);
  std::lock_guard<std::mutex> lk(mu_);
  // stop_sealer_ first: once it is set, Finish may be joining the thread.
  if (stop_sealer_ || finished_ || sealer_thread_.joinable()) return;
  heartbeat_ts_source_ = std::move(ts_source);
  heartbeat_interval_us_ = interval_us;
  max_epoch_age_us_ = max_epoch_age_us;
  last_activity_us_ = MonotonicMicros();
  sealer_thread_ = std::thread([this] { SealerLoop(); });
}

void LogShipper::SealerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_sealer_) {
    const int64_t now = MonotonicMicros();
    const bool aging = epoch_open_us_ != 0 && max_epoch_age_us_ > 0;
    const int64_t seal_at = epoch_open_us_ + max_epoch_age_us_;
    if (aging && now >= seal_at) {
      auto sealed = builder_.Flush();
      if (sealed) ShipLocked(std::move(*sealed));
      lk.unlock();
      FirePendingTriggers();
      lk.lock();
      continue;
    }
    const int64_t heartbeat_at = last_activity_us_ + heartbeat_interval_us_;
    if (now >= heartbeat_at) {
      lk.unlock();
      // Acquire the heartbeat timestamp without the shipper lock: the source
      // holds the primary's commit mutex, so locking it under mu_ while a
      // committing transaction waits to deliver into OnCommit would invert
      // the lock order. Everything committed below hb_ts has already been
      // sunk when the source returns, and the flush ships it.
      Timestamp hb_ts = heartbeat_ts_source_();
      if (!FlushAndHeartbeat(hb_ts)) return;
      lk.lock();
      continue;
    }
    sealer_wake_at_us_ = aging ? std::min(seal_at, heartbeat_at)
                               : heartbeat_at;
    sealer_cv_.wait_for(lk,
                        std::chrono::microseconds(sealer_wake_at_us_ - now));
    sealer_wake_at_us_ = 0;
  }
}

bool LogShipper::FlushAndHeartbeat(Timestamp ts) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (finished_) return false;
    auto sealed = builder_.Flush();
    if (sealed) ShipLocked(std::move(*sealed));
    if (ts != kInvalidTimestamp) {
      EpochId id = builder_.ConsumeEpochId();
      std::vector<ShippedEpoch> subs(lanes_.size(), MakeHeartbeatEpoch(id, ts));
      if (DeliverLocked(id, std::move(subs)) > 0) Bump(heartbeats_);
    }
    last_activity_us_ = MonotonicMicros();
  }
  FirePendingTriggers();
  return true;
}

void LogShipper::FlushEpoch() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (finished_) return;
    auto sealed = builder_.Flush();
    if (sealed) ShipLocked(std::move(*sealed));
  }
  FirePendingTriggers();
}

void LogShipper::ShipHeartbeat(Timestamp ts) {
  if (ts != kInvalidTimestamp) FlushAndHeartbeat(ts);
}

void LogShipper::Finish() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_sealer_ = true;
  }
  sealer_cv_.notify_all();
  if (sealer_thread_.joinable()) sealer_thread_.join();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (finished_) return;
    finished_ = true;
    auto sealed = builder_.Flush();
    if (sealed) ShipLocked(std::move(*sealed));
    for (auto& lane : lanes_) {
      for (auto* ch : lane->channels) ch->Close();
      // Clean-shutdown durability: force the active segment out regardless
      // of the per-epoch fsync policy (one fsync at the end is always
      // affordable).
      if (lane->segment_store != nullptr) lane->segment_store->Sync();
    }
  }
  FirePendingTriggers();
}

std::vector<ShippedEpoch> LogShipper::SplitLocked(const Epoch& epoch) const {
  std::vector<ShippedEpoch> subs;
  subs.reserve(lanes_.size());
  if (lanes_.size() == 1) {
    subs.push_back(EncodeEpoch(epoch));
    return subs;
  }
  // Route each transaction's DML records to the shards that own their
  // tables. A transaction spanning k shards becomes k trimmed TxnLogs (same
  // txn_id and commit_ts, bounded by copies of the original BEGIN/COMMIT
  // markers); row_seq sequences stay valid per shard because every row lives
  // on exactly one shard. The split is complete — every DML lands on exactly
  // one shard — so commit order and timestamps are preserved lane-by-lane.
  const Timestamp full_max = epoch.max_commit_ts();
  std::vector<Epoch> per_shard(lanes_.size());
  for (size_t s = 0; s < per_shard.size(); ++s) {
    per_shard[s].epoch_id = epoch.epoch_id;
  }
  std::vector<TxnLog*> open(lanes_.size());
  for (const TxnLog& txn : epoch.txns) {
    std::fill(open.begin(), open.end(), nullptr);
    const LogRecord* begin = nullptr;
    const LogRecord* commit = nullptr;
    if (!txn.records.empty()) {
      if (txn.records.front().type == LogRecordType::kBegin) {
        begin = &txn.records.front();
      }
      if (txn.records.back().type == LogRecordType::kCommit) {
        commit = &txn.records.back();
      }
    }
    for (const LogRecord& rec : txn.records) {
      if (!rec.is_dml()) continue;
      int s = shard_map_->shard_of(rec.table_id);
      TxnLog*& sub = open[static_cast<size_t>(s)];
      if (sub == nullptr) {
        Epoch& pe = per_shard[static_cast<size_t>(s)];
        pe.txns.emplace_back();
        sub = &pe.txns.back();
        sub->txn_id = txn.txn_id;
        sub->commit_ts = txn.commit_ts;
        sub->records.push_back(begin != nullptr ? *begin
                                                : LogRecord::Begin(rec.lsn,
                                                                   txn.txn_id,
                                                                   txn.commit_ts));
      }
      sub->records.push_back(rec);
    }
    for (size_t s = 0; s < open.size(); ++s) {
      if (open[s] == nullptr) continue;
      open[s]->records.push_back(
          commit != nullptr
              ? *commit
              : LogRecord::Commit(open[s]->records.back().lsn, txn.txn_id,
                                  txn.commit_ts));
    }
  }
  for (size_t s = 0; s < per_shard.size(); ++s) {
    if (per_shard[s].txns.empty()) {
      // Untouched shard: ship a synthetic heartbeat at the epoch's max commit
      // timestamp so this lane's epoch sequence stays gapless and its
      // watermarks advance with the primary.
      subs.push_back(MakeHeartbeatEpoch(epoch.epoch_id, full_max));
    } else {
      ShippedEpoch sub = EncodeEpoch(per_shard[s]);
      // A shard's last transaction may commit before the epoch's global max;
      // publishing the full-epoch max keeps quiet tables on this shard as
      // fresh as the unsharded stream would. Safe to patch after encoding:
      // the CRC covers the payload only, and commit order equals timestamp
      // order so everything at or below full_max is already in this epoch.
      sub.max_commit_ts = full_max;
      subs.push_back(std::move(sub));
    }
  }
  return subs;
}

size_t LogShipper::DeliverLocked(EpochId id, std::vector<ShippedEpoch> subs) {
  AETS_CHECK(subs.size() == lanes_.size());
  Retained entry;
  entry.id = id;
  entry.durable.assign(lanes_.size(), 0);
  // The durable append happens at deliver time, before fan-out: the segment
  // log is the log of record, and an epoch must be on disk before a backup
  // can have seen it. The payload is shared, so this costs one sequential
  // write per lane, not a copy held in RAM.
  for (size_t s = 0; s < lanes_.size(); ++s) {
    Lane& lane = *lanes_[s];
    Bump(lane.produced);
    if (lane.segment_store != nullptr) {
      Status st = lane.segment_store->Append(subs[s]);
      if (st.ok()) {
        entry.durable[s] = 1;
      } else {
        Bump(lane.spill_failures);
      }
      // Disk-budget edge detection: fire one checkpoint request per
      // over-budget episode. The callback runs outside mu_ (see
      // FirePendingTriggers); queueing here keeps the edge atomic with the
      // append that crossed the line.
      if (lane.segment_store->over_budget()) {
        if (lane.budget_trigger_armed) {
          lane.budget_trigger_armed = false;
          Bump(lane.budget_triggers);
          pending_triggers_.push_back(PendingTrigger{
              static_cast<int>(s), id + 1, lane.segment_store->disk_bytes()});
        }
      } else {
        lane.budget_trigger_armed = true;
      }
    }
  }
  // Retain before fan-out: a replayer may NACK the very epoch whose Send it
  // raced with (duplicate fetch is harmless, a missed fetch is not).
  entry.sub = std::move(subs);
  retained_.push_back(std::move(entry));
  if (retained_.size() > retention_capacity_) {
    // Eviction of a durable entry is a spill — the sub-epoch moves to
    // disk-only and stays fetchable. Evicting a non-durable entry (no store
    // attached, or its append failed) is the legacy loss of NACK coverage.
    // A durable entry that truncation already dropped from disk is neither:
    // it is checkpoint-covered, so the eviction promises an image rather
    // than a disk fetch and must not inflate the spill count. None of these
    // outcomes touches produced/shipped/dropped — conservation holds under
    // truncation by construction.
    for (size_t s = 0; s < lanes_.size(); ++s) {
      if (!retained_.front().durable[s]) continue;
      Lane& lane = *lanes_[s];
      if (lane.segment_store != nullptr &&
          retained_.front().id < lane.segment_store->first_epoch()) {
        Bump(lane.spills_below_floor);
      } else {
        Bump(lane.spilled);
      }
    }
    retained_.pop_front();
  }
  size_t lanes_delivered = 0;
  const Retained& kept = retained_.back();
  for (size_t s = 0; s < lanes_.size(); ++s) {
    Lane& lane = *lanes_[s];
    const ShippedEpoch& sub = kept.sub[s];
    size_t delivered = 0;
    for (auto* ch : lane.channels) {
      if (ch->Send(sub)) {
        ++delivered;
      } else {
        Bump(lane.send_failures);
      }
    }
    if (!lane.channels.empty() && delivered == 0) {
      Bump(lane.dropped);
      continue;
    }
    Bump(lane.shipped);
    ++lanes_delivered;
    if (!sub.is_heartbeat()) {
      Bump(lane.txns_shipped, sub.num_txns);
      Bump(lane.bytes_shipped, sub.ByteSize());
    }
  }
  return lanes_delivered;
}

void LogShipper::ShipLocked(Epoch epoch) {
  if (epoch_open_us_ != 0) {
    batch_latency_us_metric_->Record(MonotonicMicros() - epoch_open_us_);
    epoch_open_us_ = 0;
  }
  EpochId id = epoch.epoch_id;
  DeliverLocked(id, SplitLocked(epoch));
}

std::optional<ShippedEpoch> LogShipper::FetchEpoch(EpochId id) {
  return FetchShardEpoch(0, id);
}

std::optional<ShippedEpoch> LogShipper::FetchShardEpoch(int shard, EpochId id) {
  std::lock_guard<std::mutex> lk(mu_);
  AETS_CHECK(shard >= 0 && shard < static_cast<int>(lanes_.size()));
  Lane& lane = *lanes_[static_cast<size_t>(shard)];
  if (!retained_.empty() && id >= retained_.front().id &&
      id <= retained_.back().id) {
    Bump(lane.retransmits);
    return retained_[id - retained_.front().id].sub[static_cast<size_t>(shard)];
  }
  // Evicted from RAM: with the durable tier attached, the NACK path falls
  // through to a disk fetch (counted in segment.fetches_from_disk) and the
  // old terminal eviction error never fires for durable epochs.
  if (lane.segment_store != nullptr) {
    auto from_disk = lane.segment_store->Read(id);
    if (from_disk) {
      Bump(lane.retransmits);
      return from_disk;
    }
  }
  return std::nullopt;
}

EpochId LogShipper::NextEpochId() const {
  std::lock_guard<std::mutex> lk(mu_);
  return builder_.next_epoch_id();
}

EpochId LogShipper::FloorEpochId() const { return ShardFloorEpochId(0); }

EpochId LogShipper::ShardFloorEpochId(int shard) const {
  std::lock_guard<std::mutex> lk(mu_);
  AETS_CHECK(shard >= 0 && shard < static_cast<int>(lanes_.size()));
  const Lane& lane = *lanes_[static_cast<size_t>(shard)];
  if (lane.segment_store == nullptr) return 0;
  return lane.segment_store->first_epoch();
}

EpochSource* LogShipper::shard_source(int shard) {
  std::lock_guard<std::mutex> lk(mu_);
  AETS_CHECK(shard >= 0 && shard < static_cast<int>(sources_.size()));
  return sources_[static_cast<size_t>(shard)].get();
}

uint64_t LogShipper::SumLanes(std::atomic<uint64_t> Lane::*counter) const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t total = 0;
  for (const auto& lane : lanes_) {
    total += ((*lane).*counter).load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LogShipper::LaneValue(int shard,
                               std::atomic<uint64_t> Lane::*counter) const {
  std::lock_guard<std::mutex> lk(mu_);
  AETS_CHECK(shard >= 0 && shard < static_cast<int>(lanes_.size()));
  return ((*lanes_[static_cast<size_t>(shard)]).*counter)
      .load(std::memory_order_relaxed);
}

}  // namespace aets
