#include "aets/primary/primary_db.h"

#include "aets/common/macros.h"
#include "aets/obs/metrics.h"

namespace aets {

void PrimaryTxn::Insert(TableId table, int64_t row_key,
                        std::vector<ColumnValue> values) {
  writes_.push_back(Write{LogRecordType::kInsert, table, row_key,
                          std::move(values)});
}

void PrimaryTxn::Update(TableId table, int64_t row_key,
                        std::vector<ColumnValue> values) {
  writes_.push_back(Write{LogRecordType::kUpdate, table, row_key,
                          std::move(values)});
}

void PrimaryTxn::Delete(TableId table, int64_t row_key) {
  writes_.push_back(Write{LogRecordType::kDelete, table, row_key, {}});
}

PrimaryDb::PrimaryDb(const Catalog* catalog, LogicalClock* clock)
    : catalog_(catalog),
      clock_(clock),
      store_(*catalog),
      dml_by_table_(catalog->num_tables(), 0) {
  AETS_CHECK(catalog != nullptr && clock != nullptr);
}

void PrimaryDb::SetCommitSink(std::function<void(TxnLog)> sink) {
  sink_ = std::move(sink);
}

Result<CommitInfo> PrimaryDb::Commit(PrimaryTxn&& txn) {
  if (txn.writes_.empty()) {
    return Status::InvalidArgument("empty transaction");
  }
  for (const auto& w : txn.writes_) {
    if (w.table >= catalog_->num_tables()) {
      return Status::InvalidArgument("write to unregistered table");
    }
  }

  static obs::Counter* txns_metric = obs::GetCounter("primary.txns_committed");
  static obs::Counter* writes_metric =
      obs::GetCounter("primary.rows_written");
  static obs::Gauge* commit_ts_metric =
      obs::GetGauge("primary.last_commit_ts");
  static Histogram* commit_us_metric = obs::GetHistogram("primary.commit_us");
  int64_t start_us = MonotonicMicros();

  // The commit mutex defines the commit order: txn id assignment, state
  // application, DML counting, and sink delivery happen atomically per txn.
  std::lock_guard<std::mutex> lk(commit_mu_);
  TxnId txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  Timestamp commit_ts = clock_->Tick();

  TxnLog out;
  out.txn_id = txn_id;
  out.commit_ts = commit_ts;
  out.records.reserve(txn.writes_.size() + 2);
  out.records.push_back(
      LogRecord::Begin(next_lsn_.fetch_add(1), txn_id, commit_ts));

  for (auto& w : txn.writes_) {
    Memtable* table = store_.GetTable(w.table);
    // Before-image txn id and per-row version sequence for the
    // operation-sequence checks of the direct-install baselines.
    MemNode* node = table->GetOrCreateNode(w.row_key);
    TxnId prev_txn = node->LastWriterTxn();
    uint64_t row_seq = node->NumAppended();
    LogRecord rec = LogRecord::Dml(w.type, next_lsn_.fetch_add(1), txn_id,
                                   commit_ts, w.table, w.row_key,
                                   std::move(w.values), prev_txn, row_seq);
    table->ApplyCommitted(rec, commit_ts);
    ++dml_by_table_[w.table];
    out.records.push_back(std::move(rec));
  }
  out.records.push_back(
      LogRecord::Commit(next_lsn_.fetch_add(1), txn_id, commit_ts));

  last_commit_ts_.store(commit_ts, std::memory_order_release);
  if (sink_) sink_(std::move(out));

  txns_metric->Add(1);
  writes_metric->Add(txn.writes_.size());
  commit_ts_metric->Set(static_cast<int64_t>(commit_ts));
  commit_us_metric->Record(MonotonicMicros() - start_us);
  return CommitInfo{txn_id, commit_ts};
}

std::map<TableId, uint64_t> PrimaryDb::DmlCountsByTable() const {
  std::lock_guard<std::mutex> lk(commit_mu_);
  std::map<TableId, uint64_t> counts;
  for (size_t t = 0; t < dml_by_table_.size(); ++t) {
    if (dml_by_table_[t] > 0) {
      counts[static_cast<TableId>(t)] = dml_by_table_[t];
    }
  }
  return counts;
}

Timestamp PrimaryDb::AcquireHeartbeatTs() {
  std::lock_guard<std::mutex> lk(commit_mu_);
  return clock_->Tick();
}

std::optional<Row> PrimaryDb::Read(TableId table, int64_t row_key,
                                   Timestamp ts) const {
  return store_.GetTable(table)->ReadRow(row_key, ts);
}

}  // namespace aets
