#include "aets/sim/oracle.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "aets/common/macros.h"
#include "aets/storage/column_store.h"

namespace aets {
namespace sim {

namespace {

std::string RowToString(const Row& row) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [col, value] : row) {
    if (!first) os << ", ";
    first = false;
    os << col << ":" << value.ToString();
  }
  os << "}";
  return os.str();
}

std::string OptRowToString(const std::optional<Row>& row) {
  return row ? RowToString(*row) : "<absent>";
}

}  // namespace

void ViolationLog::Report(std::string invariant, std::string detail) {
  total_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(mu_);
  if (violations_.size() < cap_) {
    violations_.push_back({std::move(invariant), std::move(detail)});
  }
}

bool ViolationLog::empty() const { return total() == 0; }

std::vector<Violation> ViolationLog::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

std::string ViolationLog::FirstInvariant() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_.empty() ? std::string() : violations_.front().invariant;
}

std::string ViolationLog::Describe() const {
  std::ostringstream os;
  std::vector<Violation> snapshot = TakeSnapshot();
  os << total() << " violation(s)";
  for (const Violation& v : snapshot) {
    os << "\n  [" << v.invariant << "] " << v.detail;
  }
  return os.str();
}

ConsistencyOracle::ConsistencyOracle(const ReferenceModel* model,
                                     ShardedBackup* backup, ViolationLog* log)
    : model_(model),
      backup_(backup),
      log_(log),
      last_table_ts_(model->num_tables(), 0),
      last_lane_global_ts_(static_cast<size_t>(backup->num_shards()), 0) {}

void ConsistencyOracle::RaiseGcFloor(Timestamp watermark) {
  Timestamp cur = gc_floor_.load(std::memory_order_relaxed);
  while (cur < watermark && !gc_floor_.compare_exchange_weak(
                                cur, watermark, std::memory_order_acq_rel)) {
  }
}

bool ConsistencyOracle::CompareTable(TableId table, Timestamp qts,
                                     const char* invariant) {
  if (qts < gc_floor()) return true;  // below the GC horizon: unverifiable
  // StoreForTable, not store(): under a ShardedBackup each table's versions
  // live in its owning shard's store, and a cross-shard probe must read each
  // table where it actually lives.
  const Memtable* mt = backup_->StoreForTable(table)->GetTable(table);
  AETS_CHECK(mt != nullptr);
  std::map<int64_t, Row> got;
  mt->ScanVisible(qts, [&got](int64_t key, const Row& row) {
    got.emplace(key, row);
    return true;
  });
  std::map<int64_t, Row> want = model_->RowsAt(table, qts);
  if (got == want) return CompareColumns(table, qts, got);
  // GC may have raced past qts between the floor check and the scan, in
  // which case the divergence is an artifact, not a bug.
  if (qts < gc_floor()) return true;

  std::ostringstream os;
  os << backup_->name() << ": table " << table << " at qts " << qts
     << " diverges from the reference model (" << got.size() << " vs "
     << want.size() << " rows)";
  size_t shown = 0;
  for (const auto& [key, row] : want) {
    auto it = got.find(key);
    if (it == got.end() || it->second != row) {
      os << "\n    key " << key << ": replayer="
         << (it == got.end() ? std::string("<absent>") : RowToString(it->second))
         << " model=" << RowToString(row);
      if (++shown >= 3) break;
    }
  }
  for (const auto& [key, row] : got) {
    if (shown >= 3) break;
    if (want.find(key) == want.end()) {
      os << "\n    key " << key << ": replayer=" << RowToString(row)
         << " model=<absent>";
      ++shown;
    }
  }
  log_->Report(invariant, os.str());
  return false;
}

bool ConsistencyOracle::CompareColumns(TableId table, Timestamp qts,
                                       const std::map<int64_t, Row>& rows) {
  const storage::ColumnStore* columns = backup_->ColumnStoreForTable(table);
  if (columns == nullptr) return true;
  storage::ColumnSnapshot snap = columns->SnapshotAt(table, qts);
  if (!snap.valid()) return true;  // no chunk generation covers qts yet
  column_comparisons_.fetch_add(1, std::memory_order_relaxed);
  snap.LoadResidual();
  std::map<int64_t, Row> got;
  bool duplicate_key = false;
  snap.ScanRows([&](int64_t key, const Row& row) {
    duplicate_key = !got.emplace(key, row).second || duplicate_key;
    return true;
  });
  uint64_t col_digest = snap.Digest();
  uint64_t row_digest =
      backup_->StoreForTable(table)->GetTable(table)->DigestAt(qts);
  if (!duplicate_key && got == rows && col_digest == row_digest) return true;
  // The residual top-up reads live version chains, so GC racing past qts
  // can fold the values it needs — an artifact, not a bug.
  if (qts < gc_floor()) return true;

  std::ostringstream os;
  os << backup_->name() << ": columnar snapshot of table " << table
     << " at qts " << qts << " diverges from the row store (" << got.size()
     << " vs " << rows.size() << " rows, digest " << col_digest << " vs "
     << row_digest << (duplicate_key ? ", duplicate chunk/residual key" : "")
     << ")";
  size_t shown = 0;
  for (const auto& [key, row] : rows) {
    auto it = got.find(key);
    if (it == got.end() || it->second != row) {
      os << "\n    key " << key << ": column="
         << (it == got.end() ? std::string("<absent>") : RowToString(it->second))
         << " row-store=" << RowToString(row);
      if (++shown >= 3) break;
    }
  }
  for (const auto& [key, row] : got) {
    if (shown >= 3) break;
    if (rows.find(key) == rows.end()) {
      os << "\n    key " << key << ": column=" << RowToString(row)
         << " row-store=<absent>";
      ++shown;
    }
  }
  log_->Report(kInvariantColumnParity, os.str());
  return false;
}

bool ConsistencyOracle::CheckTableSnapshot(TableId table, Timestamp qts) {
  return CompareTable(table, qts, kInvariantSnapshotExact);
}

bool ConsistencyOracle::CheckWatermarks() {
  bool ok = true;
  for (TableId t = 0; t < model_->num_tables(); ++t) {
    Timestamp w = backup_->TableVisibleTs(t);
    if (w == kInvalidTimestamp) continue;
    // Cap at the model's max visible ts: a heartbeat may legitimately push
    // the watermark past every commit, where the final state applies.
    Timestamp qts = std::min(w, model_->MaxVisibleTs());
    if (qts == kInvalidTimestamp) continue;
    ok = CompareTable(t, qts, kInvariantSnapshotExact) && ok;
  }
  Timestamp g = backup_->GlobalVisibleTs();
  if (g != kInvalidTimestamp && model_->MaxVisibleTs() != kInvalidTimestamp) {
    Timestamp qts = std::min(g, model_->MaxVisibleTs());
    for (TableId t = 0; t < model_->num_tables(); ++t) {
      ok = CompareTable(t, qts, kInvariantSnapshotExact) && ok;
    }
  }
  return ok;
}

bool ConsistencyOracle::CheckVisibleProbe(const std::vector<TableId>& tables,
                                          Timestamp qts) {
  if (!IsVisible(*backup_, tables, qts)) return true;  // nothing claimed
  bool ok = true;
  for (TableId t : tables) {
    ok = CompareTable(t, qts, kInvariantSnapshotExact) && ok;
  }
  return ok;
}

bool ConsistencyOracle::CheckTxnAtomicity(const TxnFootprint& txn) {
  bool ok = true;
  for (int side = 0; side < 2; ++side) {
    // side 0: at commit_ts every write is in. side 1: just before, none are.
    Timestamp qts = side == 0 ? txn.commit_ts : txn.commit_ts - 1;
    if (txn.commit_ts == kInvalidTimestamp ||
        (side == 1 && txn.commit_ts == 1)) {
      continue;
    }
    if (qts < gc_floor()) continue;
    for (const auto& [table, key] : txn.writes) {
      // Only judge what the replayer has promised: skip tables where qts is
      // not yet visible (in concurrent mode the txn may simply not have been
      // replayed). A watermark published ahead of the data — the injected
      // bug — passes this gate and is then caught by the comparison.
      if (!IsVisible(*backup_, {table}, qts)) continue;
      std::optional<Row> got =
          backup_->StoreForTable(table)->GetTable(table)->ReadRow(key, qts);
      std::optional<Row> want = model_->VisibleRow(table, key, qts);
      if (got == want) continue;
      if (qts < gc_floor()) continue;  // GC raced the read
      std::ostringstream os;
      os << backup_->name() << ": txn " << txn.txn_id << " (commit_ts "
         << txn.commit_ts << ", epoch " << txn.epoch_id << ") torn at qts "
         << qts << ": table " << table << " key " << key << " replayer="
         << OptRowToString(got) << " model=" << OptRowToString(want);
      log_->Report(kInvariantTornTxn, os.str());
      ok = false;
    }
  }
  return ok;
}

bool ConsistencyOracle::ObserveMonotonicity() {
  // Both the watermark reads and the comparison against the high-water
  // record happen under one lock: reading outside it lets a prober that
  // read a stale value but locked late report a false regression (another
  // prober recorded the newer value in between). The watermarks are cheap
  // atomic loads, so holding mono_mu_ across them costs little.
  std::lock_guard<std::mutex> lock(mono_mu_);
  std::vector<Timestamp> table_ts(model_->num_tables());
  for (TableId t = 0; t < model_->num_tables(); ++t) {
    table_ts[t] = backup_->TableVisibleTs(t);
  }
  Timestamp global = backup_->GlobalVisibleTs();
  std::vector<Timestamp> lane_ts(last_lane_global_ts_.size());
  for (size_t s = 0; s < lane_ts.size(); ++s) {
    lane_ts[s] = backup_->shard(static_cast<int>(s))->GlobalVisibleTs();
  }
  bool ok = true;
  for (TableId t = 0; t < model_->num_tables(); ++t) {
    if (table_ts[t] < last_table_ts_[t]) {
      std::ostringstream os;
      os << backup_->name() << ": tg_cmt_ts of table " << t
         << " moved backwards: " << last_table_ts_[t] << " -> " << table_ts[t];
      log_->Report(kInvariantMonotonicity, os.str());
      ok = false;
    }
    last_table_ts_[t] = std::max(last_table_ts_[t], table_ts[t]);
  }
  if (global < last_global_ts_) {
    std::ostringstream os;
    os << backup_->name() << ": global_cmt_ts moved backwards: "
       << last_global_ts_ << " -> " << global;
    log_->Report(kInvariantMonotonicity, os.str());
    ok = false;
  }
  last_global_ts_ = std::max(last_global_ts_, global);
  for (size_t s = 0; s < lane_ts.size(); ++s) {
    if (lane_ts[s] < last_lane_global_ts_[s]) {
      std::ostringstream os;
      os << backup_->shard(static_cast<int>(s))->name() << " (shard " << s
         << "): global_cmt_ts moved backwards: " << last_lane_global_ts_[s]
         << " -> " << lane_ts[s];
      log_->Report(kInvariantMonotonicity, os.str());
      ok = false;
    }
    last_lane_global_ts_[s] = std::max(last_lane_global_ts_[s], lane_ts[s]);
  }
  return ok;
}

bool ConsistencyOracle::CheckGcSafety(Timestamp horizon) {
  bool ok = true;
  Timestamp model_max = model_->MaxVisibleTs();
  if (model_max == kInvalidTimestamp) return true;
  for (TableId t = 0; t < model_->num_tables(); ++t) {
    Timestamp w = std::min(backup_->TableVisibleTs(t), model_max);
    if (w == kInvalidTimestamp || w < horizon) continue;
    // Both ends of the surviving window: the oldest snapshot GC must keep
    // and the newest one published.
    ok = CompareTable(t, horizon, kInvariantGcSafety) && ok;
    ok = CompareTable(t, w, kInvariantGcSafety) && ok;
  }
  return ok;
}

bool ConsistencyOracle::CheckConverged() {
  bool ok = true;
  Timestamp target = model_->MaxCommitTs();
  if (target != kInvalidTimestamp &&
      backup_->GlobalVisibleTs() < target) {
    std::ostringstream os;
    os << backup_->name() << ": global_cmt_ts stuck at "
       << backup_->GlobalVisibleTs() << " after drain; expected >= "
       << target;
    log_->Report(kInvariantConvergence, os.str());
    ok = false;
  }
  Timestamp final_ts = model_->MaxVisibleTs();
  if (final_ts == kInvalidTimestamp) return ok;
  for (TableId t = 0; t < model_->num_tables(); ++t) {
    ok = CompareTable(t, final_ts, kInvariantConvergence) && ok;
  }
  return ok;
}

}  // namespace sim
}  // namespace aets
