#include "aets/baselines/c5_replayer.h"

#include <chrono>
#include <thread>
#include <vector>

#include "aets/common/macros.h"
#include "aets/log/codec.h"
#include "aets/obs/trace.h"

namespace aets {

namespace {

size_t RowQueueOf(TableId table, int64_t row_key, int workers) {
  uint64_t h = (static_cast<uint64_t>(table) << 48) ^
               static_cast<uint64_t>(row_key) * 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 31)) * 0xBF58476D1CE4E5B9ull;
  return static_cast<size_t>(h % static_cast<uint64_t>(workers));
}

}  // namespace

C5Replayer::C5Replayer(const Catalog* catalog, EpochChannel* channel,
                       C5Options options)
    : ReplayerBase(catalog, channel, "C5"), options_(options) {}

C5Replayer::~C5Replayer() { Stop(); }

Status C5Replayer::StartWorkers() {
  if (options_.workers <= 0) {
    return Status::InvalidArgument("workers must be positive");
  }
  pool_ = std::make_unique<ThreadPool>(options_.workers);
  return Status::OK();
}

void C5Replayer::StopWorkers() { pool_.reset(); }

Timestamp C5Replayer::TableVisibleTs(TableId) const {
  return watermark_.load(std::memory_order_acquire);
}

Timestamp C5Replayer::GlobalVisibleTs() const {
  return watermark_.load(std::memory_order_acquire);
}

void C5Replayer::ProcessHeartbeat(const ShippedEpoch& epoch) {
  PublishWatermark(watermark_, epoch.heartbeat_ts);
}

bool C5Replayer::ApplyEpoch(const ShippedEpoch& epoch) {
  AETS_TRACE_SPAN("replay.epoch");
  // Row-based dispatch: decode the ENTIRE data image on the dispatch thread
  // and send each operation, in transaction order, to the dedicated queue of
  // its row. Per-transaction remaining-op counters drive the watermark. All
  // decode errors surface here, before any worker runs.
  std::vector<std::vector<RowOp>> queues(static_cast<size_t>(options_.workers));
  std::vector<Timestamp> txn_ts;
  std::vector<std::atomic<uint32_t>> txn_remaining;
  {
    ScopedTimerNs timer(&stats_.dispatch_ns);
    const std::string& data = *epoch.payload;
    txn_ts.reserve(epoch.num_txns);
    std::vector<uint32_t> counts;
    counts.reserve(epoch.num_txns);
    size_t offset = 0;
    size_t cur_txn = SIZE_MAX;
    Timestamp cur_ts = kInvalidTimestamp;
    while (offset < data.size()) {
      auto rec = LogCodec::DecodeView(data, &offset);  // full image decode
      if (!rec.ok()) {
        SetError(rec.status());
        return false;
      }
      switch (rec->type) {
        case LogRecordType::kBegin:
          cur_txn = txn_ts.size();
          cur_ts = rec->timestamp;
          txn_ts.push_back(cur_ts);
          counts.push_back(0);
          break;
        case LogRecordType::kCommit:
        case LogRecordType::kHeartbeat:
          break;
        default: {
          if (cur_txn == SIZE_MAX) {
            SetError(Status::Corruption("DML outside transaction"));
            return false;
          }
          size_t q = RowQueueOf(rec->table_id, rec->row_key, options_.workers);
          counts[cur_txn]++;
          RowOp op;
          op.table_id = rec->table_id;
          op.row_key = rec->row_key;
          op.txn_id = rec->txn_id;
          op.is_delete = rec->type == LogRecordType::kDelete;
          op.delta = PackedDelta::FromWire(rec->num_values, rec->value_bytes);
          op.commit_ts = cur_ts;
          op.txn_index = cur_txn;
          queues[q].push_back(std::move(op));
          break;
        }
      }
    }
    txn_remaining = std::vector<std::atomic<uint32_t>>(counts.size());
    for (size_t i = 0; i < counts.size(); ++i) {
      txn_remaining[i].store(counts[i], std::memory_order_relaxed);
    }
  }

  for (int w = 0; w < options_.workers; ++w) {
    bool accepted = pool_->Submit([this, &queues, &txn_remaining, w] {
      ScopedTimerNs timer(&stats_.replay_ns);
      for (auto& op : queues[static_cast<size_t>(w)]) {
        MemNode* node =
            store_.GetTable(op.table_id)->GetOrCreateNode(op.row_key);
        // Writes to one row always land in the same queue in log order, so
        // per-row operation order holds without any check — but commit-ts
        // monotonicity across rows of a node still requires waiting for
        // earlier epoch-internal versions of the same row only, which queue
        // order already guarantees.
        VersionCell cell;
        cell.commit_ts = op.commit_ts;
        cell.txn_id = op.txn_id;
        cell.is_delete = op.is_delete;
        cell.delta = std::move(op.delta);
        node->AppendVersion(std::move(cell));
        txn_remaining[op.txn_index].fetch_sub(1, std::memory_order_acq_rel);
      }
    });
    if (!accepted) {
      SetError(Status::Internal("worker pool rejected an apply task"));
      break;
    }
  }

  // The watermark thread: every watermark_period_us, advance the snapshot
  // timestamp to the largest prefix of transactions whose operations have
  // all been applied (the "smallest completed LSN" rule).
  std::atomic<bool> workers_done{false};
  std::thread watermark_thread([&] {
    size_t next = 0;
    for (;;) {
      bool done = workers_done.load(std::memory_order_acquire);
      {
        ScopedTimerNs timer(&stats_.commit_ns);
        while (next < txn_ts.size() &&
               txn_remaining[next].load(std::memory_order_acquire) == 0) {
          // Max-guarded: a sharded sub-epoch's patched header max may have
          // already advanced the watermark past this sub-stream's own
          // timestamps; a plain store would move it backwards.
          PublishWatermark(watermark_, txn_ts[next]);
          stats_.txns.fetch_add(1, std::memory_order_relaxed);
          ++next;
        }
      }
      if (next >= txn_ts.size() || done) break;
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.watermark_period_us));
    }
  });

  pool_->WaitIdle();
  workers_done.store(true, std::memory_order_release);
  watermark_thread.join();
  // Sharded sub-epochs carry the FULL epoch's max_commit_ts in the header;
  // advance to it after a clean epoch so this shard keeps pace with the
  // primary even when its own last transaction commits earlier (no-op
  // unsharded).
  if (HasError()) return false;
  PublishWatermark(watermark_, epoch.max_commit_ts);
  return true;
}

}  // namespace aets
