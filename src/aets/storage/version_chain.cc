#include "aets/storage/version_chain.h"

#include <algorithm>

#include "aets/common/macros.h"

namespace aets {

void MemNode::AppendVersion(VersionCell cell) {
  SpinGuard guard(latch_);
  AETS_CHECK_MSG(versions_.empty() || versions_.back().commit_ts <= cell.commit_ts,
                 "version chain must be appended in commit-ts order");
  versions_.push_back(std::move(cell));
}

std::optional<Row> MemNode::ReadVisible(Timestamp ts) const {
  SpinGuard guard(latch_);
  Row row;
  bool exists = false;
  for (const auto& v : versions_) {
    if (v.commit_ts > ts) break;
    if (v.is_delete) {
      row.clear();
      exists = false;
      continue;
    }
    v.delta.ApplyTo(&row);
    exists = true;
  }
  if (!exists) return std::nullopt;
  return row;
}

std::optional<Row> MemNode::ReadVisibleFrom(Timestamp base_ts,
                                            std::optional<Row> base,
                                            Timestamp ts) const {
  SpinGuard guard(latch_);
  auto it = std::upper_bound(
      versions_.begin(), versions_.end(), base_ts,
      [](Timestamp t, const VersionCell& v) { return t < v.commit_ts; });
  // With no version at or below base_ts on the chain, either the row did
  // not exist at base_ts or TruncateBefore folded that history into the
  // front version's full image; both replay from an empty row.
  bool exists = it != versions_.begin() && base.has_value();
  Row row = exists ? std::move(*base) : Row();
  for (; it != versions_.end() && it->commit_ts <= ts; ++it) {
    if (it->is_delete) {
      row.clear();
      exists = false;
      continue;
    }
    it->delta.ApplyTo(&row);
    exists = true;
  }
  if (!exists) return std::nullopt;
  return row;
}

TxnId MemNode::LastWriterTxn() const {
  SpinGuard guard(latch_);
  return versions_.empty() ? kInvalidTxnId : versions_.back().txn_id;
}

Timestamp MemNode::LastCommitTs() const {
  SpinGuard guard(latch_);
  return versions_.empty() ? kInvalidTimestamp : versions_.back().commit_ts;
}

size_t MemNode::NumVersions() const {
  SpinGuard guard(latch_);
  return versions_.size();
}

uint64_t MemNode::NumAppended() const {
  SpinGuard guard(latch_);
  return versions_.size() + folded_;
}

size_t MemNode::TruncateBefore(Timestamp watermark) {
  SpinGuard guard(latch_);
  // Find the newest version with commit_ts <= watermark: the base every
  // snapshot >= watermark starts from.
  size_t base = versions_.size();
  for (size_t i = 0; i < versions_.size(); ++i) {
    if (versions_[i].commit_ts <= watermark) {
      base = i;
    } else {
      break;
    }
  }
  if (base == versions_.size() || base == 0) return 0;

  // Fold the delta prefix [0, base] into one full-image base version, so a
  // read at any ts >= versions_[base].commit_ts reconstructs identically.
  Row folded;
  bool exists = false;
  for (size_t i = 0; i <= base; ++i) {
    if (versions_[i].is_delete) {
      folded.clear();
      exists = false;
      continue;
    }
    versions_[i].delta.ApplyTo(&folded);
    exists = true;
  }
  VersionCell base_cell;
  base_cell.commit_ts = versions_[base].commit_ts;
  base_cell.txn_id = versions_[base].txn_id;
  base_cell.is_delete = !exists;
  base_cell.delta = PackedDelta::FromRow(folded);
  size_t reclaimed = base;  // versions [0, base) disappear
  folded_ += static_cast<uint32_t>(reclaimed);
  versions_.erase(versions_.begin(), versions_.begin() + static_cast<ptrdiff_t>(base));
  versions_.front() = std::move(base_cell);
  return reclaimed;
}

}  // namespace aets
