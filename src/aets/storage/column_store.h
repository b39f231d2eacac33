#ifndef AETS_STORAGE_COLUMN_STORE_H_
#define AETS_STORAGE_COLUMN_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "aets/catalog/catalog.h"
#include "aets/common/clock.h"
#include "aets/obs/metrics.h"
#include "aets/storage/column_chunk.h"
#include "aets/storage/table_store.h"

namespace aets {
namespace storage {

struct ColumnStoreOptions {
  /// Target rows per base chunk. A fold that grows a chunk past twice this
  /// splits it back into chunk_rows-sized pieces.
  size_t chunk_rows = 4096;
  /// Generations retained per table — one per posted watermark, so about
  /// this many epochs of history. A query pinned before the oldest retained
  /// generation falls back to the row path (counted in
  /// column.row_fallbacks).
  size_t max_generations = 8;
};

/// One query's consistent view of a table's columnar projection: the newest
/// generation with chunk_ts <= qts, plus the sorted residual key set that
/// may have changed in (chunk_ts, qts] and must be re-resolved from the
/// row-store version chains. Obtained from ColumnStore::SnapshotAt; all
/// referenced chunk data is immutable, so a snapshot outlives any
/// concurrent Publish.
///
/// Protocol: call LoadResidual() while `qts` is still protected from GC
/// (snapshot pin / watermark retention) — it reads the residual keys from
/// the version chains. After that, Digest/RowCount/ScanRows touch only
/// immutable chunk data plus the preloaded residual rows, so the caller may
/// release its pin first (this is what bounds the QueryServer's pin time).
class ColumnSnapshot {
 public:
  ColumnSnapshot() = default;

  bool valid() const { return gen_ != nullptr; }
  Timestamp qts() const { return qts_; }
  Timestamp chunk_ts() const { return gen_->chunk_ts; }
  const std::vector<ColumnChunk>& chunks() const { return gen_->chunks; }
  /// chunks()[0, base_chunks()) are base chunks; the rest are deltas.
  size_t base_chunks() const { return gen_->base_chunks; }
  const std::vector<int64_t>& residual_keys() const { return residual_; }

  /// Re-resolves every residual key at qts from the row store. Requires the
  /// snapshot to be GC-protected at the time of the call.
  void LoadResidual();
  bool residual_loaded() const { return residual_loaded_; }
  /// Residual keys visible at qts, with their rows (absent keys dropped).
  const std::map<int64_t, FlatRow>& residual_rows() const {
    return residual_rows_;
  }

  /// Rows of `chunk` a scan must skip: this generation's tombstones plus
  /// any residual key falling in the chunk (its chunk value is stale at
  /// qts; the residual row supersedes it). Irregular rows are NOT included
  /// — typed loops must OR in chunk.data->irregular themselves and cover
  /// those rows via chunk.data->irregular_rows.
  BitVec ScanSkipBits(const ColumnChunk& chunk) const;

  /// Order-independent digest of everything visible at qts — equals
  /// Memtable::DigestAt(qts). Requires LoadResidual().
  uint64_t Digest() const;

  /// Number of rows visible at qts. Requires LoadResidual().
  size_t RowCount() const;

  /// Visits every row visible at qts (chunk by chunk — each in ascending
  /// key order — then residual rows; overall order unspecified). Visitor
  /// returns false to stop. Requires LoadResidual().
  template <typename Visitor>
  void ScanRows(Visitor&& visit) const {
    AETS_CHECK_MSG(residual_loaded_, "ScanRows before LoadResidual");
    for (const ColumnChunk& chunk : gen_->chunks) {
      BitVec skip = ScanSkipBits(chunk);
      size_t n = chunk.data->num_rows();
      for (size_t i = 0; i < n; ++i) {
        if (skip.Get(i)) continue;
        if (!visit(chunk.data->keys[i], chunk.data->MaterializeRow(i))) return;
      }
    }
    for (const auto& [key, row] : residual_rows_) {
      if (!visit(key, row)) return;
    }
  }

 private:
  friend class ColumnStore;

  std::shared_ptr<const TableGeneration> gen_;
  const Memtable* rows_ = nullptr;  // residual top-up source
  Timestamp qts_ = kInvalidTimestamp;
  std::vector<int64_t> residual_;  // sorted
  std::map<int64_t, FlatRow> residual_rows_;
  bool residual_loaded_ = false;
};

/// Watermark-versioned columnar projections of a TableStore in delta-main
/// form (DESIGN.md §13): base chunks plus a size-tiered delta tier, folded
/// into the base once the deltas outgrow a fraction of the table.
///
/// Projection is on demand. A table starts unprojected: NoteDirty keeps no
/// keys for it, only the newest commit timestamp it skipped, and Publish
/// passes it by. The first SnapshotAt (or Project) marks it projected and
/// runs the owner's `on_project` hook, which schedules a publish at the last
/// committed watermark. That publish seeds the table with one full build
/// from the row store — but only at a watermark at or above the skipped
/// timestamp, so no change skipped before projection is lost (an older
/// watermark leaves the table unseeded until a newer one arrives). From the
/// seed on, publishes are per-epoch deltas.
///
/// Commit side:
///   - Group commits call NoteDirty(table, nodes, commit_ts) once per
///     (fragment, table) for the rows they install, BEFORE publishing the
///     group watermark — so any reader that observed a watermark also
///     observes the dirty rows accumulated up to it.
///   - After an epoch's watermarks publish, the replayer's background merge
///     thread runs Publish(w), turning each seeded table's pending entries
///     with commit_ts <= w into a new generation (later entries stay
///     pending): the dirty rows' images at w, rolled forward through their
///     noted MemNodes (no index lookup), become one sorted delta chunk, and
///     the rows they supersede are tombstoned in copied overlays of the
///     chunks holding them. Column vectors and the overlays of untouched
///     chunks are shared with the previous generation, so the cost is
///     O(dirty rows + touched chunks), not O(rows of the chunks they touch).
///   - The delta tier stays O(log) chunks deep: once a table holds more
///     delta chunks than bit_width(live delta rows), its newest run of
///     similar-sized deltas merges into one chunk of their live rows. Many
///     small epochs therefore cost about what a few large ones do.
///   - When a table's delta rows exceed max(chunk_rows, live_rows / 8), or
///     a superseded base chunk turns majority-dead, the same Publish folds
///     the deltas into the base chunks by a sorted-merge rewrite that copies
///     rows column-wise out of the delta chunks (no second version-chain
///     read). Write amplification stays at ~8 rows rewritten per dirty row.
///
/// Query side (any thread): SnapshotAt(table, qts) picks the newest
/// generation with chunk_ts <= qts and derives the residual key set —
/// the next generation's dirty list, or the live pending set when qts runs
/// ahead of the newest generation; either is about one epoch of keys.
/// Chunks are immutable, so queries never block Publish and vice versa
/// (per-table mutex held only for the pending/generation-list swap).
class ColumnStore {
 public:
  /// `scope` names this store's exported counters (the owning replayer's
  /// name). `on_project` runs, outside every lock of this store, each time a
  /// table is first projected; the owner uses it to schedule the seed.
  ColumnStore(const Catalog* catalog, const TableStore* rows,
              ColumnStoreOptions options = {}, std::string scope = "",
              std::function<void()> on_project = {});

  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  const ColumnStoreOptions& options() const { return options_; }

  /// Marks the rows of `nodes` (all of `table`) changed at `commit_ts` —
  /// one lock per call, so the commit path batches a fragment's rows per
  /// table. Thread-safe across concurrent group commits. Must happen before
  /// the corresponding watermark store (see class comment). The timestamp
  /// lets an asynchronous Publish at an older watermark take only the
  /// entries it actually covers — rows whose change committed later stay
  /// pending, so the residual top-up never loses them. Nodes live as long
  /// as their Memtable, so Publish reads them without the index.
  void NoteDirty(TableId table, const std::vector<const MemNode*>& nodes,
                 Timestamp commit_ts);

  /// Publishes one generation per projected table: a seed (one full build
  /// from the rows visible at `watermark`) for a table not seeded yet whose
  /// skipped changes `watermark` covers, else a delta over its pending
  /// entries with commit_ts <= watermark, read from the row store at
  /// `watermark`; later entries stay pending (the residual path covers
  /// them). Single publisher at a time — the replayer runs it on a
  /// background merge thread, posting a watermark only after that epoch's
  /// watermarks published, so every version up to `watermark` is fully
  /// installed and noted.
  void Publish(Timestamp watermark);

  /// Marks `table` projected (idempotent) and returns true on the call that
  /// projected it; that call counts in column.tables_projected and runs
  /// `on_project`. SnapshotAt calls it;
  /// callers that need columns before their first query (a backup that
  /// stops replaying before it is queried) call it up front. Const because
  /// demand is not part of the projection's contents: a query holding a
  /// const store is what creates it.
  bool Project(TableId table) const;

  /// True once any table is projected: until then Publish has nothing to do.
  bool AnyProjected() const {
    return tables_projected_.load(std::memory_order_acquire) > 0;
  }

  /// The query-side entry point; see ColumnSnapshot. Projects `table`.
  /// Returns an invalid snapshot (caller falls back to the row path) when
  /// no retained generation has chunk_ts <= qts — which includes every
  /// query before the table's seed lands, and always the call that
  /// projects the table, however fast the merge thread seeds it; each
  /// fallback counts in column.row_fallbacks.
  ColumnSnapshot SnapshotAt(TableId table, Timestamp qts) const;

  /// chunk_ts of `table`'s newest generation, or kInvalidTimestamp (also
  /// for a table never projected).
  Timestamp PublishedTs(TableId table) const;

 private:
  /// One pending change: the row's key, its node, and its commit time.
  struct Dirty {
    int64_t key;
    Timestamp commit_ts;
    const MemNode* node;
  };

  struct TableState {
    mutable std::mutex mu;
    bool projected = false;
    /// Newest commit_ts NoteDirty dropped while the table was unprojected.
    /// The seed waits for a watermark at or above it.
    Timestamp skipped_ts = kInvalidTimestamp;
    /// Unsorted, may hold duplicates. Publish(w) consumes only entries with
    /// commit_ts <= w; later ones ride into the next generation.
    std::vector<Dirty> pending;
    std::deque<std::shared_ptr<const TableGeneration>> gens;  // ascending ts
  };

  /// A table's first generation: every row visible at `watermark`.
  std::shared_ptr<const TableGeneration> SeedGeneration(TableId table,
                                                         Timestamp watermark);
  /// The generation after `prev` covering the `dirty` rows (sorted by key,
  /// unique) at `watermark`.
  std::shared_ptr<const TableGeneration> BuildGeneration(
      TableId table, const TableGeneration& prev,
      const std::vector<std::pair<int64_t, const MemNode*>>& dirty,
      Timestamp watermark) const;
  /// Rewrites `gen`'s base chunks with its delta rows merged in, leaving a
  /// delta-free generation with the same visible rows.
  void Fold(const Schema& schema, TableGeneration* gen) const;

  const Catalog* catalog_;
  const TableStore* rows_;
  ColumnStoreOptions options_;
  std::function<void()> on_project_;
  std::vector<std::unique_ptr<TableState>> tables_;
  /// Component-owned counters: tables projected so far, and rows written
  /// by seed builds.
  mutable std::atomic<uint64_t> tables_projected_{0};
  std::atomic<uint64_t> seed_rows_{0};
  obs::ExportedCounters exported_;
};

}  // namespace storage
}  // namespace aets

#endif  // AETS_STORAGE_COLUMN_STORE_H_
