#include "aets/storage/memtable.h"

#include "aets/common/macros.h"
#include "aets/storage/row_hash.h"

namespace aets {

MemNode* Memtable::GetOrCreateNode(int64_t row_key) {
  bool created = false;
  return index_.GetOrCreate(row_key, &created, row_key);
}

MemNode* Memtable::FindNode(int64_t row_key) const {
  return index_.Find(row_key);
}

void Memtable::ApplyCommitted(const LogRecord& record, Timestamp commit_ts) {
  AETS_CHECK(record.is_dml());
  MemNode* node = GetOrCreateNode(record.row_key);
  VersionCell cell;
  cell.commit_ts = commit_ts;
  cell.txn_id = record.txn_id;
  cell.is_delete = record.type == LogRecordType::kDelete;
  cell.delta = PackedDelta::FromColumnValues(record.values);
  node->AppendVersion(std::move(cell));
}

void Memtable::ApplyCommitted(const LogRecordView& record,
                              Timestamp commit_ts) {
  AETS_CHECK(record.is_dml());
  MemNode* node = GetOrCreateNode(record.row_key);
  VersionCell cell;
  cell.commit_ts = commit_ts;
  cell.txn_id = record.txn_id;
  cell.is_delete = record.type == LogRecordType::kDelete;
  cell.delta = PackedDelta::FromWire(record.num_values, record.value_bytes);
  node->AppendVersion(std::move(cell));
}

std::optional<Row> Memtable::ReadRow(int64_t row_key, Timestamp ts) const {
  MemNode* node = index_.Find(row_key);
  if (node == nullptr) return std::nullopt;
  return node->ReadVisible(ts);
}

void Memtable::ScanVisible(
    Timestamp ts, const std::function<bool(int64_t, const Row&)>& visit) const {
  // Type-erased shim over the template fast path (existing callers that
  // hold a std::function).
  ScanVisible<const std::function<bool(int64_t, const Row&)>&>(ts, visit);
}

size_t Memtable::VisibleRowCount(Timestamp ts) const {
  size_t n = 0;
  ScanVisible(ts, [&](int64_t, const Row&) {
    ++n;
    return true;
  });
  return n;
}

size_t Memtable::GarbageCollect(Timestamp watermark) {
  size_t reclaimed = 0;
  index_.Scan(std::numeric_limits<int64_t>::min(),
              std::numeric_limits<int64_t>::max(),
              [&](int64_t, MemNode* node) {
                reclaimed += node->TruncateBefore(watermark);
                return true;
              });
  return reclaimed;
}

uint64_t Memtable::DigestAt(Timestamp ts) const {
  // XOR of per-row hashes: order-independent, so concurrent replayers with
  // different scan interleavings still compare equal. HashRow lives in
  // row_hash.h so the column store's cached per-row hashes match exactly.
  uint64_t digest = 0;
  ScanVisible(ts, [&](int64_t key, const Row& row) {
    digest ^= HashRow(key, row);
    return true;
  });
  return digest;
}

}  // namespace aets
