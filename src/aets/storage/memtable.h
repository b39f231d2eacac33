#ifndef AETS_STORAGE_MEMTABLE_H_
#define AETS_STORAGE_MEMTABLE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>

#include "aets/catalog/schema.h"
#include "aets/common/clock.h"
#include "aets/log/record.h"
#include "aets/storage/btree.h"
#include "aets/storage/version_chain.h"

namespace aets {

/// Per-table in-memory multi-version store: a B+Tree of MemNodes, each with
/// a commit-ordered version chain (the paper's "Memtable").
class Memtable {
 public:
  explicit Memtable(TableId table_id) : table_id_(table_id) {}

  Memtable(const Memtable&) = delete;
  Memtable& operator=(const Memtable&) = delete;

  TableId table_id() const { return table_id_; }

  /// Looks up the node for `row_key`, creating an empty one if absent.
  /// TPLR's phase 1 uses this: translation pins the node, no version is
  /// installed yet.
  MemNode* GetOrCreateNode(int64_t row_key);

  /// Looks up the node for `row_key`, or nullptr.
  MemNode* FindNode(int64_t row_key) const;

  /// Installs the version carried by a committed DML record. Used by the
  /// primary engine, the serial oracle, and direct-install replayers (ATR,
  /// C5); TPLR-style replayers append the translated cells themselves.
  void ApplyCommitted(const LogRecord& record, Timestamp commit_ts);

  /// Zero-copy variant: packs the view's validated value slice straight into
  /// the version cell (one allocation, no per-value materialization).
  void ApplyCommitted(const LogRecordView& record, Timestamp commit_ts);

  /// The row visible at snapshot `ts`, or nullopt.
  std::optional<Row> ReadRow(int64_t row_key, Timestamp ts) const;

  /// Visits rows visible at `ts` in ascending key order. Callback returns
  /// false to stop. Template so the per-row visit inlines (the row-scan hot
  /// path previously paid a std::function indirect call per row); the
  /// non-template overload keeps type-erased callers working.
  template <typename Visitor>
  void ScanVisible(Timestamp ts, Visitor&& visit) const {
    index_.Scan(std::numeric_limits<int64_t>::min(),
                std::numeric_limits<int64_t>::max(),
                [&](int64_t key, MemNode* node) {
                  auto row = node->ReadVisible(ts);
                  if (!row) return true;
                  return visit(key, static_cast<const Row&>(*row));
                });
  }
  void ScanVisible(Timestamp ts,
                   const std::function<bool(int64_t, const Row&)>& visit) const;

  /// Number of indexed keys (including rows whose latest version at some
  /// snapshot may be a tombstone).
  size_t NumKeys() const { return index_.size(); }

  /// Number of rows visible at `ts`.
  size_t VisibleRowCount(Timestamp ts) const;

  /// Order-independent 64-bit digest of everything visible at `ts`. Two
  /// stores hold identical visible data iff digests match (w.h.p.); the
  /// replay-equivalence tests compare primary vs. backup with this.
  uint64_t DigestAt(Timestamp ts) const;

  /// MVCC garbage collection: folds away version history that no snapshot
  /// at or above `watermark` can read (see MemNode::TruncateBefore).
  /// Returns versions reclaimed across all rows.
  size_t GarbageCollect(Timestamp watermark);

 private:
  TableId table_id_;
  BPlusTree<MemNode> index_;
};

}  // namespace aets

#endif  // AETS_STORAGE_MEMTABLE_H_
