#ifndef AETS_STORAGE_VERSION_CHAIN_H_
#define AETS_STORAGE_VERSION_CHAIN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "aets/common/clock.h"
#include "aets/common/spin_latch.h"
#include "aets/log/record.h"
#include "aets/storage/flat_row.h"
#include "aets/storage/packed_delta.h"
#include "aets/storage/value.h"

namespace aets {

/// One committed version of a record: the delta written by one transaction,
/// packed into a single contiguous block. Inserts carry the full row image;
/// updates carry only the modified columns; deletes are tombstones.
/// Move-only (the delta block has one owner).
struct VersionCell {
  Timestamp commit_ts = kInvalidTimestamp;
  TxnId txn_id = kInvalidTxnId;
  bool is_delete = false;
  PackedDelta delta;
};

/// A materialized row at some snapshot: sorted (column id, value) pairs.
using Row = FlatRow;

/// A record in the Memtable: row key plus its transactionID-based version
/// chain (paper Fig. 6). Versions are appended strictly in commit-timestamp
/// order under the node latch; readers reconstruct the row visible at a
/// snapshot by folding deltas up to that timestamp.
class MemNode {
 public:
  explicit MemNode(int64_t row_key) : row_key_(row_key) {}

  MemNode(const MemNode&) = delete;
  MemNode& operator=(const MemNode&) = delete;

  int64_t row_key() const { return row_key_; }

  /// Appends a committed version. Enforces commit-timestamp monotonicity —
  /// the invariant the commit phase of every replayer must maintain.
  void AppendVersion(VersionCell cell);

  /// Reconstructs the row visible at `ts` (latest version with
  /// commit_ts <= ts). Returns nullopt if the row does not exist at `ts`
  /// (never inserted yet, or deleted).
  std::optional<Row> ReadVisible(Timestamp ts) const;

  /// ReadVisible(ts), rolled forward from `base` — the row visible at
  /// `base_ts` <= ts (nullopt: absent there) — through only the versions
  /// committed in (base_ts, ts]. ReadVisible folds the whole chain, so on a
  /// hot row this turns an O(history) read into an O(new versions) one.
  std::optional<Row> ReadVisibleFrom(Timestamp base_ts, std::optional<Row> base,
                                     Timestamp ts) const;

  /// The newest committed version's txn id, or kInvalidTxnId when empty.
  /// ATR's operation-sequence check compares this against the log's
  /// before-image txn id.
  TxnId LastWriterTxn() const;

  /// The newest committed version's timestamp.
  Timestamp LastCommitTs() const;

  /// Versions currently on the chain (GC folding shrinks it).
  size_t NumVersions() const;

  /// Versions ever appended, including those TruncateBefore folded away:
  /// the row's modification sequence number, the position a log entry's
  /// row_seq refers to. Monotone, unlike NumVersions().
  uint64_t NumAppended() const;

  /// Garbage-collects versions no snapshot at or above `watermark` can ever
  /// read: drops every version older than the newest version with
  /// commit_ts <= watermark (that one stays as the visible base), after
  /// folding the dropped delta prefix into it so reconstruction still works.
  /// Returns the number of versions reclaimed. Reads below the watermark
  /// afterwards see the folded base instead of history — callers must only
  /// pass watermarks no reader can still be below.
  size_t TruncateBefore(Timestamp watermark);

 private:
  int64_t row_key_;
  mutable SpinLatch latch_;
  uint32_t folded_ = 0;  // versions TruncateBefore dropped (fits the padding)
  std::vector<VersionCell> versions_;  // ascending commit_ts
};

}  // namespace aets

#endif  // AETS_STORAGE_VERSION_CHAIN_H_
