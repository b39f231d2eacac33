#include "aets/baselines/serial_replayer.h"

#include <utility>

#include "aets/common/macros.h"
#include "aets/log/shipped_epoch.h"
#include "aets/obs/trace.h"

namespace aets {

SerialReplayer::SerialReplayer(const Catalog* catalog, EpochChannel* channel,
                               int pipeline_depth)
    : ReplayerBase(catalog, channel, "Serial") {
  SetPipelineDepth(pipeline_depth);
}

SerialReplayer::~SerialReplayer() { Stop(); }

Timestamp SerialReplayer::TableVisibleTs(TableId) const {
  return watermark_.load(std::memory_order_acquire);
}

Timestamp SerialReplayer::GlobalVisibleTs() const {
  return watermark_.load(std::memory_order_acquire);
}

void SerialReplayer::ProcessHeartbeat(const ShippedEpoch& epoch) {
  PublishWatermark(watermark_, epoch.heartbeat_ts);
}

std::unique_ptr<ReplayerBase::PreparedEpoch> SerialReplayer::PrepareEpoch(
    const ShippedEpoch& shipped) {
  AETS_TRACE_SPAN("replay.prepare");
  auto prep = std::make_unique<PreparedSerial>();
  ScopedTimerNs timer(&stats_.dispatch_ns);
  auto epoch = DecodeEpoch(shipped);
  if (!epoch.ok()) {
    SetError(epoch.status());
    return prep;
  }
  prep->epoch = std::move(*epoch);
  return prep;
}

bool SerialReplayer::CommitEpoch(const ShippedEpoch& shipped,
                                 std::unique_ptr<PreparedEpoch> prepared) {
  auto* prep = static_cast<PreparedSerial*>(prepared.get());
  AETS_TRACE_SPAN("replay.epoch");
  ScopedTimerNs timer(&stats_.replay_ns);
  for (const auto& txn : prep->epoch.txns) {
    for (const auto& rec : txn.records) {
      if (!rec.is_dml()) continue;
      store_.GetTable(rec.table_id)->ApplyCommitted(rec, txn.commit_ts);
    }
    // Max-guarded: the previous sub-epoch's patched header max may already
    // exceed this shard's next commit timestamp.
    PublishWatermark(watermark_, txn.commit_ts);
    stats_.txns.fetch_add(1, std::memory_order_relaxed);
  }
  // A sharded sub-epoch's header max_commit_ts is the FULL epoch's max —
  // this shard's last transaction may commit earlier. Advancing to the
  // header max after a clean replay keeps the shard's watermark in step
  // with the primary (no-op unsharded: the last txn IS the header max).
  if (HasError()) return false;
  PublishWatermark(watermark_, shipped.max_commit_ts);
  return true;
}

}  // namespace aets
