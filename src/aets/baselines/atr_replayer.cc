#include "aets/baselines/atr_replayer.h"

#include "aets/common/macros.h"
#include "aets/log/codec.h"
#include "aets/obs/trace.h"

namespace aets {

AtrReplayer::AtrReplayer(const Catalog* catalog, EpochChannel* channel,
                         AtrOptions options)
    : ReplayerBase(catalog, channel, "ATR"), options_(options) {
  SetPipelineDepth(options_.pipeline_depth);
}

AtrReplayer::~AtrReplayer() { Stop(); }

Status AtrReplayer::StartWorkers() {
  if (options_.workers <= 0) {
    return Status::InvalidArgument("workers must be positive");
  }
  pool_ = std::make_unique<ThreadPool>(options_.workers);
  return Status::OK();
}

void AtrReplayer::StopWorkers() { pool_.reset(); }

Timestamp AtrReplayer::TableVisibleTs(TableId) const {
  return watermark_.load(std::memory_order_acquire);
}

Timestamp AtrReplayer::GlobalVisibleTs() const {
  return watermark_.load(std::memory_order_acquire);
}

void AtrReplayer::ProcessHeartbeat(const ShippedEpoch& epoch) {
  PublishWatermark(watermark_, epoch.heartbeat_ts);
}

std::unique_ptr<ReplayerBase::PreparedEpoch> AtrReplayer::PrepareEpoch(
    const ShippedEpoch& epoch) {
  AETS_TRACE_SPAN("replay.prepare");
  // Dispatch: one metadata pass splits the payload into per-transaction
  // tasks (transactionID-based dispatch parses only the log metadata). The
  // workers install directly into the Memtable, so they only run in
  // CommitEpoch — the pipeline overlaps this pass with the previous epoch's
  // apply.
  auto prep = std::make_unique<PreparedAtr>();
  prep->payload = epoch.payload;
  ScopedTimerNs timer(&stats_.dispatch_ns);
  const std::string& data = *epoch.payload;
  size_t offset = 0;
  TxnTask* open = nullptr;
  while (offset < data.size()) {
    size_t rec_start = offset;
    auto rec = LogCodec::DecodeMetadata(data, &offset);
    if (!rec.ok()) {
      SetError(rec.status());
      return prep;
    }
    switch (rec->type) {
      case LogRecordType::kBegin:
        prep->tasks.emplace_back();
        open = &prep->tasks.back();
        open->txn_id = rec->txn_id;
        open->commit_ts = rec->timestamp;
        break;
      case LogRecordType::kCommit:
        open = nullptr;
        break;
      case LogRecordType::kHeartbeat:
        break;
      default:
        if (open == nullptr) {
          SetError(Status::Corruption("DML outside transaction"));
          return prep;
        }
        open->offsets.push_back(rec_start);
        break;
    }
  }
  return prep;
}

bool AtrReplayer::CommitEpoch(const ShippedEpoch& epoch,
                              std::unique_ptr<PreparedEpoch> prepared) {
  AETS_TRACE_SPAN("replay.epoch");
  auto* prep = static_cast<PreparedAtr*>(prepared.get());
  const std::string* payload = epoch.payload.get();
  std::deque<TxnTask>* tasks = &prep->tasks;
  for (int w = 0; w < options_.workers; ++w) {
    if (!pool_->Submit(
            [this, payload, tasks, w] { WorkerRun(*payload, tasks, w); })) {
      SetError(Status::Internal("worker pool rejected an apply task"));
      break;
    }
  }

  // The single commit thread: make transactions visible strictly in primary
  // commit order (run inline on the commit context), parking on the work
  // bell until the worker flips each task's done flag. On error a worker may
  // never flip its tasks' done flags, so the latch is the exit — the
  // watermark freezes at the last fully applied transaction.
  for (auto& task : prep->tasks) {
    auto ready = [&] {
      return task.done.load(std::memory_order_acquire) || HasError();
    };
    if (!ready()) {
      stats_.commit_waits.fetch_add(1, std::memory_order_relaxed);
      work_bell_.WaitUntil(ready);
    }
    if (HasError()) break;
    ScopedTimerNs timer(&stats_.commit_ns);
    // Max-guarded for the same reason as the epoch-end advance below: the
    // previous sub-epoch's patched header max may exceed this commit.
    PublishWatermark(watermark_, task.commit_ts);
    stats_.txns.fetch_add(1, std::memory_order_relaxed);
  }
  pool_->WaitIdle();
  // Sharded sub-epochs carry the FULL epoch's max_commit_ts in the header;
  // advance to it after a clean epoch so this shard keeps pace with the
  // primary even when its own last transaction commits earlier (no-op
  // unsharded).
  if (HasError()) return false;
  PublishWatermark(watermark_, epoch.max_commit_ts);
  return true;
}

void AtrReplayer::WorkerRun(const std::string& payload,
                            std::deque<TxnTask>* tasks, int worker_id) {
  ScopedTimerNs timer(&stats_.replay_ns);
  for (size_t i = static_cast<size_t>(worker_id); i < tasks->size();
       i += static_cast<size_t>(options_.workers)) {
    if (HasError()) return;
    TxnTask& task = (*tasks)[i];
    for (size_t off : task.offsets) {
      size_t pos = off;
      auto rec = LogCodec::DecodeView(payload, &pos);
      if (!rec.ok()) {
        // Leave `done` unset: a partially applied transaction must never
        // become visible. The commit loop and the other workers exit
        // through the error latch.
        SetError(rec.status());
        return;
      }
      MemNode* node =
          store_.GetTable(rec->table_id)->GetOrCreateNode(rec->row_key);
      // Operation-sequence check: versions of one record must be installed
      // in the primary's modification order. Park on the work bell until the
      // appended-version count matches the log entry's row sequence (its
      // before-image position) — the count, not the chain length, which GC
      // shrinks. The dependency always points to an operation of an earlier
      // transaction, whose completion rings the bell, so this cannot stall —
      // unless that operation's worker died on the error latch, which the
      // wait checks for. Ringing per transaction rather than per record
      // keeps a fence off every install. Time spent here is the
      // synchronization cost the paper identifies as ATR's scalability
      // limiter.
      auto in_order = [&] {
        return node->NumAppended() == rec->row_seq || HasError();
      };
      if (!in_order()) {
        stats_.conflict_retries.fetch_add(1, std::memory_order_relaxed);
        ScopedTimerNs wait_timer(&stats_.sync_wait_ns);
        work_bell_.WaitUntil(in_order);
        if (HasError()) return;
      }
      VersionCell cell;
      cell.commit_ts = task.commit_ts;
      cell.txn_id = rec->txn_id;
      cell.is_delete = rec->type == LogRecordType::kDelete;
      cell.delta = PackedDelta::FromWire(rec->num_values, rec->value_bytes);
      node->AppendVersion(std::move(cell));
    }
    task.done.store(true, std::memory_order_release);
    work_bell_.Ring();
  }
}

}  // namespace aets
