#ifndef AETS_STORAGE_COLUMN_CHUNK_H_
#define AETS_STORAGE_COLUMN_CHUNK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aets/catalog/schema.h"
#include "aets/common/clock.h"
#include "aets/common/macros.h"
#include "aets/storage/flat_row.h"
#include "aets/storage/row_hash.h"

namespace aets {
namespace storage {

/// Dense bitmap over a chunk's row positions (tombstones, presence masks,
/// scan skip sets). One cache line covers 512 rows, so per-chunk overlays
/// stay tiny next to the column vectors they qualify.
struct BitVec {
  std::vector<uint64_t> words;

  void Reset(size_t bits) { words.assign((bits + 63) / 64, 0); }
  bool Get(size_t i) const { return (words[i >> 6] >> (i & 63)) & 1; }
  void Set(size_t i) { words[i >> 6] |= uint64_t{1} << (i & 63); }
  bool Any() const {
    for (uint64_t w : words) {
      if (w != 0) return true;
    }
    return false;
  }
  size_t CountSet() const {
    size_t n = 0;
    for (uint64_t w : words) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }
  /// this |= other. Both must cover the same row count.
  void OrWith(const BitVec& other) {
    AETS_CHECK(words.size() == other.words.size());
    for (size_t i = 0; i < words.size(); ++i) words[i] |= other.words[i];
  }
};

/// One typed column vector of a chunk. Storage is chosen by the schema type;
/// `has`/`null` distinguish "column absent from the row image" from an
/// explicit SQL NULL, so a row materialized back from the columns is
/// bit-identical to the FlatRow the row store would produce.
struct ChunkColumn {
  ColumnType type = ColumnType::kInt64;
  /// Every row has a typed, non-null value in this column — the vectorized
  /// executors hoist the per-row presence checks out of their tight loops
  /// when this holds (it does for well-formed OLTP workloads).
  bool dense = false;
  std::vector<int64_t> i64;       // type == kInt64
  std::vector<double> f64;        // type == kDouble
  std::vector<std::string> str;   // type == kString
  BitVec has;
  BitVec null;
};

/// The immutable payload of one columnar chunk: a sorted key vector, one
/// ChunkColumn per schema column, and the cached per-row digest hashes
/// (HashRow — identical to what Memtable::DigestAt folds). Shared by every
/// generation until a fold rewrites the chunk; never mutated after build.
struct ChunkData {
  std::vector<int64_t> keys;      // ascending
  std::vector<ChunkColumn> cols;  // indexed by (dense, positional) ColumnId
  std::vector<uint64_t> row_hash;
  /// Rows whose value set deviates from the schema (unknown column id or a
  /// runtime type the schema column cannot hold). Such rows are excluded
  /// from the typed vectors and carried whole in `irregular_rows`, so the
  /// tight loops skip them and a row-at-a-time fallback covers them.
  BitVec irregular;
  std::vector<std::pair<uint32_t, FlatRow>> irregular_rows;  // by row index

  size_t num_rows() const { return keys.size(); }

  /// Rebuilds the exact FlatRow at row position `i` from the columns.
  FlatRow MaterializeRow(size_t i) const {
    if (irregular.Get(i)) {
      for (const auto& [idx, row] : irregular_rows) {
        if (idx == i) return row;
      }
      AETS_CHECK_MSG(false, "irregular row missing from overflow list");
    }
    FlatRow row;
    for (size_t c = 0; c < cols.size(); ++c) {
      const ChunkColumn& col = cols[c];
      if (!col.has.Get(i)) continue;
      ColumnId id = static_cast<ColumnId>(c);
      if (col.null.Get(i)) {
        row.Set(id, Value());
      } else if (col.type == ColumnType::kInt64) {
        row.Set(id, Value(col.i64[i]));
      } else if (col.type == ColumnType::kDouble) {
        row.Set(id, Value(col.f64[i]));
      } else {
        row.Set(id, Value(col.str[i]));
      }
    }
    return row;
  }
};

/// A chunk as one generation sees it: the shared immutable data plus this
/// generation's tombstone overlay. Both are shared across generations: an
/// epoch that supersedes or deletes some of a chunk's rows copies only that
/// chunk's overlay, so a publish costs O(touched chunks), not O(chunks).
struct ColumnChunk {
  std::shared_ptr<const ChunkData> data;
  std::shared_ptr<const BitVec> tombstones;  // never null
  size_t live = 0;  // rows not tombstoned

  int64_t min_key() const { return data->keys.front(); }
  int64_t max_key() const { return data->keys.back(); }
};

/// One published generation of a table's columnar projection, valid for
/// queries pinned at qts >= chunk_ts (topped up from the row store for the
/// residual (chunk_ts, qts] range). Immutable once published.
///
/// Delta-main layout: `chunks[0, base_chunks)` are the base (main) chunks,
/// with disjoint, ascending key ranges; the chunks after them are the delta
/// tier, oldest first, each sorted by key but free to overlap anything.
/// Across all chunks a key has at most one row that is not tombstoned — a
/// newer image tombstones the one it supersedes — so a scan visits every
/// chunk in turn and needs no cross-chunk merge.
struct TableGeneration {
  Timestamp chunk_ts = kInvalidTimestamp;
  std::vector<ColumnChunk> chunks;  // base chunks, then deltas
  size_t base_chunks = 0;
  /// Keys whose visible state changed in (prev generation's chunk_ts,
  /// chunk_ts] — sorted. A query pinned between the two generations reads
  /// the older one and re-resolves exactly these keys from the row store.
  std::vector<int64_t> dirty;
};

}  // namespace storage
}  // namespace aets

#endif  // AETS_STORAGE_COLUMN_CHUNK_H_
