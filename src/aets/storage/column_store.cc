#include "aets/storage/column_store.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "aets/obs/metrics.h"
#include "aets/storage/row_hash.h"

namespace aets {
namespace storage {

namespace {

/// An empty payload sized for `n` rows: typed vectors zeroed, bitmaps
/// clear, keys/hashes reserved for appending.
std::shared_ptr<ChunkData> NewChunkData(const Schema& schema, size_t n) {
  auto data = std::make_shared<ChunkData>();
  data->keys.reserve(n);
  data->row_hash.reserve(n);
  data->irregular.Reset(n);
  size_t nc = schema.num_columns();
  data->cols.resize(nc);
  for (size_t c = 0; c < nc; ++c) {
    ChunkColumn& col = data->cols[c];
    col.type = schema.column(static_cast<ColumnId>(c)).type;
    col.has.Reset(n);
    col.null.Reset(n);
    switch (col.type) {
      case ColumnType::kInt64:
        col.i64.assign(n, 0);
        break;
      case ColumnType::kDouble:
        col.f64.assign(n, 0.0);
        break;
      case ColumnType::kString:
        col.str.assign(n, std::string());
        break;
    }
  }
  return data;
}

/// Freezes a filled payload into a chunk with no tombstones, marking the
/// columns every row holds a typed, non-null value in.
ColumnChunk Seal(std::shared_ptr<ChunkData> data) {
  size_t n = data->num_rows();
  for (ChunkColumn& col : data->cols) {
    col.dense = col.has.CountSet() == n && !col.null.Any();
  }
  auto tombstones = std::make_shared<BitVec>();
  tombstones->Reset(n);
  ColumnChunk chunk;
  chunk.data = std::move(data);
  chunk.tombstones = std::move(tombstones);
  chunk.live = n;
  return chunk;
}

/// A chunk over `n` (key, row) pairs sorted by key. Rows that deviate from
/// the schema go whole into the irregular overflow; everything else lands
/// in the typed vectors.
ColumnChunk MakeChunk(const Schema& schema,
                      const std::pair<int64_t, FlatRow>* rows, size_t n) {
  std::shared_ptr<ChunkData> data = NewChunkData(schema, n);
  size_t nc = data->cols.size();
  for (size_t i = 0; i < n; ++i) {
    const auto& [key, row] = rows[i];
    data->keys.push_back(key);
    data->row_hash.push_back(HashRow(key, row));
    bool irregular = false;
    for (const auto& [col, value] : row) {
      if (col >= nc ||
          (!value.is_null() &&
           value.type() != schema.column(col).type)) {
        irregular = true;
        break;
      }
    }
    if (irregular) {
      data->irregular.Set(i);
      data->irregular_rows.emplace_back(static_cast<uint32_t>(i), row);
      continue;
    }
    for (const auto& [col, value] : row) {
      ChunkColumn& cc = data->cols[col];
      cc.has.Set(i);
      if (value.is_null()) {
        cc.null.Set(i);
      } else if (cc.type == ColumnType::kInt64) {
        cc.i64[i] = value.as_int64();
      } else if (cc.type == ColumnType::kDouble) {
        cc.f64[i] = value.as_double();
      } else {
        cc.str[i] = value.as_string();
      }
    }
  }
  return Seal(std::move(data));
}

/// Where a row sits in a generation's chunks.
struct RowRef {
  const ChunkData* data = nullptr;
  size_t row = 0;

  int64_t key() const { return data->keys[row]; }
};

/// A payload holding the `n` rows `rows` points at, in that order, copied
/// out of their source chunks column by column: every chunk of a table has
/// the same typed vectors, so each column is one tight loop and no row
/// round-trips through a FlatRow. Rows keep their cached hashes.
std::shared_ptr<ChunkData> CopyRows(const Schema& schema, const RowRef* rows,
                                    size_t n) {
  std::shared_ptr<ChunkData> dst = NewChunkData(schema, n);
  for (size_t i = 0; i < n; ++i) {
    const ChunkData& from = *rows[i].data;
    const size_t r = rows[i].row;
    dst->keys.push_back(from.keys[r]);
    dst->row_hash.push_back(from.row_hash[r]);
    if (from.irregular.Get(r)) {
      dst->irregular.Set(i);
      dst->irregular_rows.emplace_back(static_cast<uint32_t>(i),
                                       from.MaterializeRow(r));
    }
  }
  // An irregular row has no typed values (its `has` bits are clear), so the
  // column loops pass over it.
  for (size_t c = 0; c < dst->cols.size(); ++c) {
    ChunkColumn& dc = dst->cols[c];
    auto copy = [&](auto values) {
      for (size_t i = 0; i < n; ++i) {
        const ChunkColumn& sc = rows[i].data->cols[c];
        const size_t r = rows[i].row;
        if (!sc.has.Get(r)) continue;
        dc.has.Set(i);
        if (sc.null.Get(r)) {
          dc.null.Set(i);
        } else {
          (dc.*values)[i] = (sc.*values)[r];
        }
      }
    };
    switch (dc.type) {
      case ColumnType::kInt64:
        copy(&ChunkColumn::i64);
        break;
      case ColumnType::kDouble:
        copy(&ChunkColumn::f64);
        break;
      case ColumnType::kString:
        copy(&ChunkColumn::str);
        break;
    }
  }
  return dst;
}

/// Appends `chunk`'s live rows, in key order, to `rows`.
void AppendLiveRows(const ColumnChunk& chunk, std::vector<RowRef>* rows) {
  for (size_t r = 0; r < chunk.data->num_rows(); ++r) {
    if (!chunk.tombstones->Get(r)) rows->push_back({chunk.data.get(), r});
  }
}

/// Appends chunks over `rows` (in key order), copied column-wise out of
/// their source chunks: one chunk when they fit in 2 * `target`, else
/// `target`-row pieces, so no chunk starts life oversized.
void EmitChunks(const Schema& schema, const std::vector<RowRef>& rows,
                size_t target, std::vector<ColumnChunk>* out,
                obs::Counter* rebuilt_metric) {
  size_t piece = rows.size() <= 2 * target ? rows.size() : target;
  for (size_t off = 0; off < rows.size(); off += piece) {
    size_t n = std::min(piece, rows.size() - off);
    out->push_back(Seal(CopyRows(schema, rows.data() + off, n)));
    rebuilt_metric->Add(1);
  }
}

/// Tombstones `chunk`'s live rows whose key is in `dirty` (sorted): a newer
/// image supersedes them. The overlay is copied on the first kill only, so
/// a chunk holding no dirty key keeps sharing the previous generation's.
/// Records each killed row in `found` (indexed like `dirty`) and returns
/// how many rows it killed.
size_t Supersede(const std::vector<int64_t>& dirty, ColumnChunk* chunk,
                 std::vector<RowRef>* found) {
  const auto& keys = chunk->data->keys;
  if (keys.empty()) return 0;
  auto lo = std::lower_bound(dirty.begin(), dirty.end(), keys.front());
  auto hi = std::upper_bound(lo, dirty.end(), keys.back());
  std::shared_ptr<BitVec> overlay;
  size_t killed = 0;
  auto pos = keys.begin();
  for (auto it = lo; it != hi; ++it) {
    pos = std::lower_bound(pos, keys.end(), *it);
    if (pos == keys.end()) break;
    if (*pos != *it) continue;
    size_t idx = static_cast<size_t>(pos - keys.begin());
    if (chunk->tombstones->Get(idx)) continue;
    if (overlay == nullptr) {
      overlay = std::make_shared<BitVec>(*chunk->tombstones);
    }
    overlay->Set(idx);
    --chunk->live;
    ++killed;
    (*found)[static_cast<size_t>(it - dirty.begin())] = {chunk->data.get(),
                                                         idx};
  }
  if (overlay != nullptr) chunk->tombstones = std::move(overlay);
  return killed;
}

/// A majority-tombstoned chunk costs a scan more than it holds.
bool Sparse(const ColumnChunk& chunk) {
  size_t n = chunk.data->num_rows();
  return (n - chunk.live) * 2 > n;
}

/// Size-tiered delta tier. While a table holds more delta chunks than
/// bit_width(live delta rows) — floor(log2) + 1 — its newest run merges
/// into one chunk of the run's live rows, copied column-wise; base chunks
/// are never touched. The run starts as the newest two chunks and grows by
/// the pairwise rule: while the merged chunk would hold at least half the
/// live rows of the one before it, that one joins. A merged chunk's live
/// count is the sum of its inputs', so the cascade is decided on counts
/// first and its rows are copied once, not once per pairwise step. The
/// bound keeps the delta count O(log) however few rows the epochs touch,
/// while a few large epochs (a catch-up drain's coalesced publishes) reach
/// the fold threshold without a merge: every merged chunk is a new
/// allocation that the retained generations keep alive, so merging large
/// deltas eagerly raised peak RSS.
void MergeDeltaTier(const Schema& schema, TableGeneration* gen) {
  std::vector<ColumnChunk>& chunks = gen->chunks;
  const size_t base = gen->base_chunks;
  size_t delta_live = 0;
  for (size_t ci = base; ci < chunks.size(); ++ci) {
    delta_live += chunks[ci].live;
  }
  const size_t max_deltas = static_cast<size_t>(std::bit_width(delta_live));
  std::vector<RowRef> rows;
  while (chunks.size() - base > max_deltas) {
    size_t first = chunks.size() - 2;
    size_t live = chunks[first].live + chunks.back().live;
    while (first > base && live * 2 >= chunks[first - 1].live) {
      --first;
      live += chunks[first].live;
    }
    // Each chunk's live rows are a sorted run; a key has at most one live
    // row across all chunks, so merging the runs leaves no ties.
    rows.clear();
    rows.reserve(live);
    for (size_t ci = first; ci < chunks.size(); ++ci) {
      const size_t run = rows.size();
      AppendLiveRows(chunks[ci], &rows);
      std::inplace_merge(rows.begin(), rows.begin() + run, rows.end(),
                         [](const RowRef& a, const RowRef& b) {
                           return a.key() < b.key();
                         });
    }
    chunks[first] = Seal(CopyRows(schema, rows.data(), rows.size()));
    chunks.resize(first + 1);
  }
}

/// The fold trigger. Deltas are folded into the base chunks once their rows
/// exceed max(chunk_rows, live_rows / kFoldDivisor): a fold rewrites at most
/// every live row, so this bounds write amplification at ~kFoldDivisor rows
/// per dirty row and a scan's delta overhead at 1/kFoldDivisor of the table,
/// while deltas worth less than one chunk cost a scan no more than one
/// extra chunk does. The trigger counts rows, not epochs, so many small
/// epochs fold no more often than a few large ones.
constexpr size_t kFoldDivisor = 8;

}  // namespace

void ColumnSnapshot::LoadResidual() {
  static obs::Counter* residual_metric =
      obs::GetCounter("column.residual_rows");
  AETS_CHECK_MSG(valid(), "LoadResidual on an invalid snapshot");
  residual_loaded_ = true;
  if (residual_.empty()) return;
  residual_metric->Add(static_cast<int64_t>(residual_.size()));
  for (int64_t key : residual_) {
    auto row = rows_->ReadRow(key, qts_);
    if (row) residual_rows_.emplace(key, std::move(*row));
  }
}

BitVec ColumnSnapshot::ScanSkipBits(const ColumnChunk& chunk) const {
  BitVec skip = *chunk.tombstones;
  if (!residual_.empty() && chunk.data->num_rows() > 0) {
    const auto& keys = chunk.data->keys;
    auto lo = std::lower_bound(residual_.begin(), residual_.end(),
                               keys.front());
    auto hi = std::upper_bound(lo, residual_.end(), keys.back());
    for (auto it = lo; it != hi; ++it) {
      auto kit = std::lower_bound(keys.begin(), keys.end(), *it);
      if (kit != keys.end() && *kit == *it) {
        skip.Set(static_cast<size_t>(kit - keys.begin()));
      }
    }
  }
  return skip;
}

uint64_t ColumnSnapshot::Digest() const {
  static obs::Counter* scanned = obs::GetCounter("column.rows_scanned");
  AETS_CHECK_MSG(residual_loaded_, "Digest before LoadResidual");
  uint64_t digest = 0;
  size_t visited = 0;
  for (const ColumnChunk& chunk : gen_->chunks) {
    BitVec skip = ScanSkipBits(chunk);
    size_t n = chunk.data->num_rows();
    visited += n;
    const uint64_t* hashes = chunk.data->row_hash.data();
    for (size_t i = 0; i < n; ++i) {
      if (!skip.Get(i)) digest ^= hashes[i];
    }
  }
  for (const auto& [key, row] : residual_rows_) {
    digest ^= HashRow(key, row);
  }
  scanned->Add(static_cast<int64_t>(visited));
  return digest;
}

size_t ColumnSnapshot::RowCount() const {
  AETS_CHECK_MSG(residual_loaded_, "RowCount before LoadResidual");
  size_t count = residual_rows_.size();
  for (const ColumnChunk& chunk : gen_->chunks) {
    count += chunk.data->num_rows() - ScanSkipBits(chunk).CountSet();
  }
  return count;
}

ColumnStore::ColumnStore(const Catalog* catalog, const TableStore* rows,
                         ColumnStoreOptions options, std::string scope,
                         std::function<void()> on_project)
    : catalog_(catalog),
      rows_(rows),
      options_(options),
      on_project_(std::move(on_project)),
      exported_(std::move(scope),
                {{"column.tables_projected", &tables_projected_},
                 {"column.seed_rows", &seed_rows_}}) {
  AETS_CHECK(options_.chunk_rows > 0);
  AETS_CHECK(options_.max_generations > 0);
  tables_.reserve(catalog_->num_tables());
  for (size_t i = 0; i < catalog_->num_tables(); ++i) {
    tables_.push_back(std::make_unique<TableState>());
  }
}

void ColumnStore::NoteDirty(TableId table,
                            const std::vector<const MemNode*>& nodes,
                            Timestamp commit_ts) {
  AETS_CHECK(table < tables_.size());
  TableState& st = *tables_[table];
  std::lock_guard<std::mutex> lk(st.mu);
  if (!st.projected) {
    // Nothing reads this table's columns: keep no keys, only how far its
    // eventual seed must reach.
    st.skipped_ts = std::max(st.skipped_ts, commit_ts);
    return;
  }
  for (const MemNode* node : nodes) {
    st.pending.push_back({node->row_key(), commit_ts, node});
  }
}

void ColumnStore::Publish(Timestamp watermark) {
  if (watermark == kInvalidTimestamp) return;
  for (size_t t = 0; t < tables_.size(); ++t) {
    TableState& st = *tables_[t];
    std::vector<std::pair<int64_t, const MemNode*>> dirty;
    std::shared_ptr<const TableGeneration> prev;
    {
      std::lock_guard<std::mutex> lk(st.mu);
      if (!st.projected) continue;
      if (st.gens.empty()) {
        // The seed reads every row at `watermark`, so it must cover every
        // change NoteDirty skipped before the table was projected. A skipped
        // commit newer than `watermark` is still being installed; the
        // watermark its epoch posts next seeds the table instead.
        if (st.skipped_ts > watermark) continue;
      } else {
        // Take only entries the watermark covers. A key noted for a commit
        // newer than `watermark` (the poster raced ahead of this build)
        // must stay pending: the generation built here won't show that
        // change, so only the pending set keeps the residual top-up
        // complete for it. COPY, don't remove: while the build below runs
        // outside the lock, a query ahead of the still-current newest
        // generation derives its residual from this pending set — dropping
        // the consumed entries now would make those keys vanish (absent
        // from old chunks AND from the residual) until the new generation
        // lands. They are erased in the second lock scope, atomically with
        // the swap that covers them.
        dirty.reserve(st.pending.size());
        for (const Dirty& d : st.pending) {
          if (d.commit_ts <= watermark) dirty.emplace_back(d.key, d.node);
        }
        if (dirty.empty()) continue;
        prev = st.gens.back();
      }
    }
    // Build outside the lock: queries keep snapshotting the old generation
    // list; the sources (previous chunks, version chains) are
    // immutable/latched respectively.
    std::shared_ptr<const TableGeneration> gen;
    if (prev == nullptr) {
      gen = SeedGeneration(static_cast<TableId>(t), watermark);
    } else {
      std::sort(dirty.begin(), dirty.end());
      dirty.erase(std::unique(dirty.begin(), dirty.end(),
                              [](const auto& a, const auto& b) {
                                return a.first == b.first;
                              }),
                  dirty.end());
      gen = BuildGeneration(static_cast<TableId>(t), *prev, dirty, watermark);
    }
    {
      std::lock_guard<std::mutex> lk(st.mu);
      // Erase the consumed entries now that the generation covering them is
      // about to be visible. No new entry with commit_ts <= watermark can
      // have arrived since the copy above (the publisher is only handed a
      // watermark after every version it covers is installed and noted), so
      // this removes exactly the copied set — or, for a seed, exactly the
      // entries noted since projection that the full build covers.
      size_t kept = 0;
      for (size_t i = 0; i < st.pending.size(); ++i) {
        if (st.pending[i].commit_ts > watermark) {
          st.pending[kept++] = st.pending[i];
        }
      }
      st.pending.resize(kept);
      st.gens.push_back(std::move(gen));
      while (st.gens.size() > options_.max_generations) st.gens.pop_front();
    }
  }
}

bool ColumnStore::Project(TableId table) const {
  AETS_CHECK(table < tables_.size());
  TableState& st = *tables_[table];
  {
    std::lock_guard<std::mutex> lk(st.mu);
    if (st.projected) return false;
    st.projected = true;
  }
  tables_projected_.fetch_add(1, std::memory_order_acq_rel);
  if (on_project_) on_project_();
  return true;
}

ColumnSnapshot ColumnStore::SnapshotAt(TableId table, Timestamp qts) const {
  static obs::Counter* row_fallbacks = obs::GetCounter("column.row_fallbacks");
  ColumnSnapshot snap;
  if (table >= tables_.size() || qts == kInvalidTimestamp) return snap;
  // The projecting call falls back even if the merge thread it just woke
  // seeded the table already, so a table's first query always reads rows.
  const bool first_query = Project(table);
  TableState& st = *tables_[table];
  std::lock_guard<std::mutex> lk(st.mu);
  size_t gi = st.gens.size();
  while (gi > 0 && st.gens[gi - 1]->chunk_ts > qts) --gi;
  if (first_query || gi == 0) {
    // The seed has not landed yet (the table's first queries), or qts
    // predates every retained generation: the caller takes the ~200x slower
    // row path. Counted, so retention too short for the pinned snapshots
    // shows up.
    row_fallbacks->Add(1);
    return snap;
  }
  snap.gen_ = st.gens[gi - 1];
  snap.rows_ = rows_->GetTable(table);
  snap.qts_ = qts;
  if (qts == snap.gen_->chunk_ts) {
    // Exact generation: the residual range (chunk_ts, qts] is empty.
  } else if (gi < st.gens.size()) {
    // A newer generation exists: everything that changed in (chunk_ts, qts]
    // is a subset of its dirty set (commit timestamps are monotone across
    // epochs, so later generations' changes all exceed qts).
    snap.residual_ = st.gens[gi]->dirty;
  } else {
    // qts runs ahead of the newest generation: the live pending set covers
    // every key changed after chunk_ts. NoteDirty happens before the
    // watermark that made qts visible was stored, so the copy is complete;
    // keys committed after qts are a harmless superset (their row-store
    // read at qts returns the same state the chunk holds). No change after
    // chunk_ts was skipped: the seed waited for the newest skipped one.
    snap.residual_.reserve(st.pending.size());
    for (const Dirty& d : st.pending) snap.residual_.push_back(d.key);
    std::sort(snap.residual_.begin(), snap.residual_.end());
    snap.residual_.erase(
        std::unique(snap.residual_.begin(), snap.residual_.end()),
        snap.residual_.end());
  }
  return snap;
}

Timestamp ColumnStore::PublishedTs(TableId table) const {
  AETS_CHECK(table < tables_.size());
  TableState& st = *tables_[table];
  std::lock_guard<std::mutex> lk(st.mu);
  return st.gens.empty() ? kInvalidTimestamp : st.gens.back()->chunk_ts;
}

std::shared_ptr<const TableGeneration> ColumnStore::SeedGeneration(
    TableId table, Timestamp watermark) {
  auto info = catalog_->GetTable(table);
  AETS_CHECK(info.ok());
  const Schema& schema = (*info)->schema;
  std::vector<std::pair<int64_t, FlatRow>> images;
  rows_->GetTable(table)->ScanVisible(
      watermark, [&](int64_t key, const FlatRow& row) {
        images.emplace_back(key, row);
        return true;
      });
  seed_rows_.fetch_add(images.size(), std::memory_order_relaxed);

  // No dirty list: nothing older than the seed is retained, so no query
  // reads this generation's residual range.
  auto gen = std::make_shared<TableGeneration>();
  gen->chunk_ts = watermark;
  if (images.empty()) return gen;
  gen->chunks.push_back(MakeChunk(schema, images.data(), images.size()));
  // The fold's row threshold: a large table becomes chunk_rows-sized base
  // chunks, while a small one (a TPC-C warehouse or district) stays one
  // delta chunk instead of being rewritten every epoch.
  if (images.size() > options_.chunk_rows) Fold(schema, gen.get());
  return gen;
}

std::shared_ptr<const TableGeneration> ColumnStore::BuildGeneration(
    TableId table, const TableGeneration& prev,
    const std::vector<std::pair<int64_t, const MemNode*>>& dirty_rows,
    Timestamp watermark) const {
  auto info = catalog_->GetTable(table);
  AETS_CHECK(info.ok());
  const Schema& schema = (*info)->schema;
  auto gen = std::make_shared<TableGeneration>();
  gen->chunk_ts = watermark;
  gen->dirty.reserve(dirty_rows.size());
  for (const auto& [key, node] : dirty_rows) gen->dirty.push_back(key);
  const std::vector<int64_t>& dirty = gen->dirty;

  // Tombstone each dirty key's current row in a copied overlay of whichever
  // base or delta chunk holds it; the column vectors stay shared. Chunks
  // left without a live row are dropped.
  std::vector<RowRef> found(dirty.size());
  bool compact = false;
  gen->chunks.reserve(prev.chunks.size() + 1);
  for (size_t ci = 0; ci < prev.chunks.size(); ++ci) {
    ColumnChunk chunk = prev.chunks[ci];
    size_t killed = Supersede(dirty, &chunk, &found);
    if (chunk.live == 0) continue;
    if (ci < prev.base_chunks) {
      ++gen->base_chunks;
      compact |= killed > 0 && Sparse(chunk);
    }
    gen->chunks.push_back(std::move(chunk));
  }

  // The new images at the watermark, in key order (a key without one was
  // deleted), become the delta chunk. Each rolls the superseded image
  // forward through the noted node's versions committed since the previous
  // generation — the one version-chain read of a publish, with no index
  // lookup, and no more: a hot row's chain is never refolded from its start.
  std::vector<std::pair<int64_t, FlatRow>> images;
  images.reserve(dirty.size());
  for (size_t i = 0; i < dirty.size(); ++i) {
    std::optional<FlatRow> base;
    if (found[i].data != nullptr) {
      base = found[i].data->MaterializeRow(found[i].row);
    }
    std::optional<FlatRow> row = dirty_rows[i].second->ReadVisibleFrom(
        prev.chunk_ts, std::move(base), watermark);
    if (row) images.emplace_back(dirty[i], std::move(*row));
  }
  if (!images.empty()) {
    gen->chunks.push_back(MakeChunk(schema, images.data(), images.size()));
  }

  size_t live = 0;
  size_t delta_rows = 0;
  for (size_t ci = 0; ci < gen->chunks.size(); ++ci) {
    live += gen->chunks[ci].live;
    if (ci >= gen->base_chunks) delta_rows += gen->chunks[ci].data->num_rows();
  }
  if (compact ||
      delta_rows > std::max(options_.chunk_rows, live / kFoldDivisor)) {
    Fold(schema, gen.get());
  } else {
    MergeDeltaTier(schema, gen.get());
  }
  return gen;
}

void ColumnStore::Fold(const Schema& schema, TableGeneration* gen) const {
  static obs::Counter* rebuilt = obs::GetCounter("column.chunks_rebuilt");
  std::vector<ColumnChunk> chunks = std::move(gen->chunks);
  gen->chunks.clear();
  const size_t nbase = gen->base_chunks;

  // The live delta rows in key order. A key has at most one live row across
  // all chunks, so there are no ties, and none of them is live in a base
  // chunk.
  std::vector<RowRef> delta;
  for (size_t ci = nbase; ci < chunks.size(); ++ci) {
    AppendLiveRows(chunks[ci], &delta);
  }
  std::sort(delta.begin(), delta.end(), [](const RowRef& a, const RowRef& b) {
    return a.key() < b.key();
  });
  if (nbase == 0) {
    EmitChunks(schema, delta, options_.chunk_rows, &gen->chunks, rebuilt);
    gen->base_chunks = gen->chunks.size();
    return;
  }

  // Sorted-merge rewrite: each delta row goes to the base chunk owning its
  // key range (out-of-range keys attach to the nearest edge chunk). Rows
  // are copied column-wise with their cached hashes — nothing is re-read
  // from the version chains, re-materialized or rehashed.
  std::vector<RowRef> merged;
  size_t di = 0;
  for (size_t ci = 0; ci < nbase; ++ci) {
    const ColumnChunk& old = chunks[ci];
    size_t end = delta.size();
    if (ci + 1 < nbase) {
      end = di;
      while (end < delta.size() && delta[end].key() <= old.max_key()) ++end;
    }
    if (di == end && !Sparse(old)) {
      gen->chunks.push_back(old);  // shares the column vectors
      continue;
    }
    merged.clear();
    merged.reserve(old.live + (end - di));
    const size_t n = old.data->num_rows();
    for (size_t r = 0; r < n; ++r) {
      int64_t k = old.data->keys[r];
      while (di < end && delta[di].key() < k) merged.push_back(delta[di++]);
      if (!old.tombstones->Get(r)) merged.push_back({old.data.get(), r});
    }
    while (di < end) merged.push_back(delta[di++]);
    EmitChunks(schema, merged, options_.chunk_rows, &gen->chunks, rebuilt);
  }
  gen->base_chunks = gen->chunks.size();
}

}  // namespace storage
}  // namespace aets
