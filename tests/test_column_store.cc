// ColumnStore unit tests (DESIGN.md §13): chunk builds, per-epoch delta
// generations, folds into the base chunks, residual top-up at every
// snapshot shape, tombstone overlays, irregular-row overflow, generation
// pruning — each asserted provably identical to the row store's
// ScanVisible/DigestAt at the same snapshot. The ColumnStoreRaceTest suite
// is the TSan CI step's race surface: concurrent Publish against pinned
// readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "aets/catalog/catalog.h"
#include "aets/common/rng.h"
#include "aets/obs/metrics.h"
#include "aets/storage/column_store.h"
#include "aets/storage/memtable.h"
#include "aets/storage/table_store.h"
#include "test_seed.h"

namespace aets {
namespace storage {
namespace {

constexpr TableId kT = 0;

LogRecord Ins(int64_t key, Timestamp ts, std::vector<ColumnValue> values) {
  return LogRecord::Dml(LogRecordType::kInsert, static_cast<Lsn>(ts), 1, ts,
                        kT, key, std::move(values));
}

LogRecord Del(int64_t key, Timestamp ts) {
  return LogRecord::Dml(LogRecordType::kDelete, static_cast<Lsn>(ts), 1, ts,
                        kT, key, {});
}

/// Catalog with one table {a int64, b double, s string} + the store pair.
struct Rig {
  explicit Rig(size_t chunk_rows = 4, size_t max_generations = 8)
      : store(MakeCatalog(catalog)) {
    ColumnStoreOptions options;
    options.chunk_rows = chunk_rows;
    options.max_generations = max_generations;
    columns = std::make_unique<ColumnStore>(&catalog, &store, options);
  }

  static const Catalog& MakeCatalog(Catalog& catalog) {
    AETS_CHECK(catalog
                   .RegisterTable("t", Schema::Of({{"a", ColumnType::kInt64},
                                                   {"b", ColumnType::kDouble},
                                                   {"s", ColumnType::kString}}))
                   .ok());
    return catalog;
  }

  /// A regular row: a = key * 10, b = key * 0.5, s = "r<key>".
  void Apply(int64_t key, Timestamp ts) {
    store.GetTable(kT)->ApplyCommitted(
        Ins(key, ts,
            {{0, Value(key * 10)},
             {1, Value(static_cast<double>(key) * 0.5)},
             {2, Value("r" + std::to_string(key))}}),
        ts);
    columns->NoteDirty(kT, {key}, ts);
  }

  /// Overwrites column a of an existing row: each call leaves a distinct
  /// newest image.
  void Update(int64_t key, Timestamp ts, int64_t a) {
    store.GetTable(kT)->ApplyCommitted(
        LogRecord::Dml(LogRecordType::kUpdate, static_cast<Lsn>(ts), 1, ts, kT,
                       key, {{0, Value(a)}}),
        ts);
    columns->NoteDirty(kT, {key}, ts);
  }

  void Delete(int64_t key, Timestamp ts) {
    store.GetTable(kT)->ApplyCommitted(Del(key, ts), ts);
    columns->NoteDirty(kT, {key}, ts);
  }

  /// Column snapshot vs row-store ScanVisible at `qts`: same rows, same
  /// digest, same count — the tentpole's "provably identical" claim.
  void ExpectParity(Timestamp qts) {
    const Memtable* mt = store.GetTable(kT);
    ColumnSnapshot snap = columns->SnapshotAt(kT, qts);
    ASSERT_TRUE(snap.valid()) << "no generation covers qts " << qts;
    snap.LoadResidual();
    std::map<int64_t, Row> want;
    mt->ScanVisible(qts, [&](int64_t key, const Row& row) {
      want.emplace(key, row);
      return true;
    });
    std::map<int64_t, Row> got;
    snap.ScanRows([&](int64_t key, const Row& row) {
      EXPECT_TRUE(got.emplace(key, row).second)
          << "duplicate key " << key << " at qts " << qts;
      return true;
    });
    EXPECT_EQ(got, want) << "qts " << qts;
    EXPECT_EQ(snap.Digest(), mt->DigestAt(qts)) << "qts " << qts;
    EXPECT_EQ(snap.RowCount(), mt->VisibleRowCount(qts)) << "qts " << qts;
  }

  Catalog catalog;
  TableStore store;
  std::unique_ptr<ColumnStore> columns;
};

/// Every chunk is sorted; base chunks are also disjoint and ascending.
void ExpectChunkLayout(const ColumnSnapshot& snap) {
  const auto& chunks = snap.chunks();
  ASSERT_LE(snap.base_chunks(), chunks.size());
  for (size_t ci = 0; ci < chunks.size(); ++ci) {
    const auto& keys = chunks[ci].data->keys;
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end())) << "chunk " << ci;
    EXPECT_GT(chunks[ci].live, 0u) << "dead chunk " << ci << " retained";
    if (ci > 0 && ci < snap.base_chunks()) {
      EXPECT_LT(chunks[ci - 1].max_key(), chunks[ci].min_key())
          << "base chunks " << ci - 1 << " and " << ci << " overlap";
    }
  }
}

bool HasDeltas(const ColumnSnapshot& snap) {
  return snap.chunks().size() > snap.base_chunks();
}

TEST(ColumnStoreTest, SeedMatchesRowStoreAcrossChunks) {
  Rig rig(/*chunk_rows=*/4);
  for (int64_t k = 1; k <= 10; ++k) rig.Apply(k, 10);
  rig.columns->SeedFromRows(10);
  EXPECT_EQ(rig.columns->PublishedTs(kT), 10);
  rig.ExpectParity(10);
  // qts past the seed with nothing pending: empty residual, same rows.
  rig.ExpectParity(15);
}

TEST(ColumnStoreTest, SnapshotBelowFirstGenerationIsInvalid) {
  Rig rig;
  rig.Apply(1, 10);
  rig.columns->SeedFromRows(10);
  EXPECT_FALSE(rig.columns->SnapshotAt(kT, 9).valid());
  EXPECT_TRUE(rig.columns->SnapshotAt(kT, 10).valid());
  // Unknown tables (off the catalog) also fall back to the row path.
  EXPECT_FALSE(rig.columns->SnapshotAt(kT + 7, 10).valid());
}

TEST(ColumnStoreTest, IncrementalPublishRoutesDirtyKeysToChunks) {
  Rig rig(/*chunk_rows=*/4);
  for (int64_t k = 1; k <= 20; ++k) rig.Apply(k, 20);
  rig.columns->SeedFromRows(20);  // 5 chunks of 4
  // Touch three distinct chunks, append past max_key, delete in another.
  rig.Apply(2, 21);    // chunk 0 update
  rig.Apply(9, 22);    // chunk 2 update
  rig.Apply(30, 23);   // append beyond the last chunk
  rig.Delete(14, 24);  // chunk 3 delete
  rig.Apply(18, 25);   // chunk 4 update
  rig.columns->Publish(25);
  EXPECT_EQ(rig.columns->PublishedTs(kT), 25);
  rig.ExpectParity(25);
  // The previous generation still answers historical snapshots, topping up
  // (20, qts] from the version chains via the newer generation's dirty set.
  for (Timestamp qts = 20; qts <= 25; ++qts) rig.ExpectParity(qts);
}

TEST(ColumnStoreTest, PendingResidualCoversUnpublishedTail) {
  Rig rig(/*chunk_rows=*/4);
  for (int64_t k = 1; k <= 8; ++k) rig.Apply(k, 10);
  rig.columns->SeedFromRows(10);
  // Dirty-but-unpublished writes: served from the newest generation plus
  // the live pending set (the residual path a mid-epoch query takes).
  rig.Apply(3, 11);
  rig.Apply(100, 12);
  rig.Delete(7, 13);
  for (Timestamp qts = 10; qts <= 13; ++qts) rig.ExpectParity(qts);
  rig.columns->Publish(13);
  for (Timestamp qts = 10; qts <= 13; ++qts) rig.ExpectParity(qts);
}

TEST(ColumnStoreTest, DeleteHeavyChunksCompactAndDisappear) {
  Rig rig(/*chunk_rows=*/4);
  for (int64_t k = 1; k <= 12; ++k) rig.Apply(k, 12);
  rig.columns->SeedFromRows(12);
  // Kill chunk 1 (keys 5..8) entirely plus one key of chunk 0: the rebuild
  // must drop the empty chunk, tombstone the lightly-touched one, and stay
  // row-identical throughout.
  for (int64_t k = 5; k <= 8; ++k) rig.Delete(k, 13);
  rig.Delete(1, 14);
  rig.columns->Publish(14);
  rig.ExpectParity(14);
  ColumnSnapshot snap = rig.columns->SnapshotAt(kT, 14);
  ASSERT_TRUE(snap.valid());
  size_t live = 0;
  for (const ColumnChunk& chunk : snap.chunks()) {
    live += chunk.live;
    EXPECT_GT(chunk.live, 0u) << "empty chunk retained";
  }
  EXPECT_EQ(live, 7u);
  // Deleting everything leaves a valid, empty generation.
  for (int64_t k = 2; k <= 12; ++k) {
    if (k != 5 && k != 6 && k != 7 && k != 8) rig.Delete(k, 15);
  }
  rig.columns->Publish(15);
  rig.ExpectParity(15);
  ColumnSnapshot empty = rig.columns->SnapshotAt(kT, 15);
  ASSERT_TRUE(empty.valid());
  empty.LoadResidual();
  EXPECT_EQ(empty.RowCount(), 0u);
}

TEST(ColumnStoreTest, IrregularRowsStayExact) {
  Rig rig(/*chunk_rows=*/4);
  for (int64_t k = 1; k <= 6; ++k) rig.Apply(k, 10);
  // Schema violations the projection cannot vectorize: a wrong-typed
  // column, an unknown column id, and a NULL — all must round-trip through
  // the irregular overflow (or null bitmap) without perturbing digests.
  rig.store.GetTable(kT)->ApplyCommitted(
      Ins(7, 10, {{0, Value("not-an-int")}, {1, Value(0.5)}}), 10);
  rig.columns->NoteDirty(kT, {7}, 10);
  rig.store.GetTable(kT)->ApplyCommitted(
      Ins(8, 10, {{0, Value(int64_t{80})}, {9, Value(int64_t{1})}}), 10);
  rig.columns->NoteDirty(kT, {8}, 10);
  rig.store.GetTable(kT)->ApplyCommitted(
      Ins(9, 10, {{0, Value(int64_t{90})}, {1, Value()}}), 10);
  rig.columns->NoteDirty(kT, {9}, 10);
  rig.columns->SeedFromRows(10);
  rig.ExpectParity(10);
  // An irregular row updated back to a regular shape leaves the overflow.
  rig.Apply(7, 11);
  rig.columns->Publish(11);
  rig.ExpectParity(11);
  rig.ExpectParity(10);
}

TEST(ColumnStoreTest, GenerationPruningBoundsHistory) {
  Rig rig(/*chunk_rows=*/4, /*max_generations=*/2);
  rig.Apply(1, 10);
  rig.columns->SeedFromRows(10);
  rig.Apply(2, 20);
  rig.columns->Publish(20);
  rig.Apply(3, 30);
  rig.columns->Publish(30);
  // Generation 10 is pruned: snapshots in [10, 20) fall back to the row
  // path; [20, ...] stays columnar.
  EXPECT_FALSE(rig.columns->SnapshotAt(kT, 15).valid());
  rig.ExpectParity(20);
  rig.ExpectParity(25);
  rig.ExpectParity(30);
}

TEST(ColumnStoreTest, PublishWithoutDirtyKeysPublishesNothing) {
  Rig rig;
  rig.Apply(1, 10);
  rig.columns->SeedFromRows(10);
  rig.columns->Publish(20);  // no dirty keys: watermark must not advance
  EXPECT_EQ(rig.columns->PublishedTs(kT), 10);
  rig.ExpectParity(20);  // still exact via the empty residual
}

TEST(ColumnStoreTest, ResidualIsOneEpochOfKeys) {
  Rig rig(/*chunk_rows=*/16);
  for (int64_t k = 0; k < 64; ++k) rig.Apply(k, 10);
  rig.columns->SeedFromRows(10);
  const std::set<int64_t> first = {3, 17, 40};
  rig.Update(3, 12, 1);
  rig.Update(17, 15, 2);
  rig.Delete(40, 20);
  rig.columns->Publish(20);
  ColumnSnapshot exact = rig.columns->SnapshotAt(kT, 20);
  ASSERT_TRUE(exact.valid());
  EXPECT_TRUE(exact.residual_keys().empty());
  EXPECT_TRUE(HasDeltas(exact));  // one delta, not a rewrite

  // Noted but not yet published: a query ahead of the newest generation
  // re-resolves only this epoch's keys.
  const std::set<int64_t> second = {5, 17, 70};
  rig.Update(5, 22, 3);
  rig.Update(17, 25, 4);
  rig.Apply(70, 30);
  auto expect_residual_within = [&](Timestamp qts,
                                    const std::set<int64_t>& noted) {
    ColumnSnapshot snap = rig.columns->SnapshotAt(kT, qts);
    ASSERT_TRUE(snap.valid()) << "qts " << qts;
    for (int64_t key : snap.residual_keys()) {
      EXPECT_TRUE(noted.count(key)) << "qts " << qts << " key " << key;
    }
    rig.ExpectParity(qts);
  };
  for (Timestamp qts = 21; qts <= 30; ++qts) {
    expect_residual_within(qts, second);
  }
  rig.columns->Publish(30);
  EXPECT_TRUE(rig.columns->SnapshotAt(kT, 30).residual_keys().empty());
  // Between two generations the residual is the newer one's dirty set.
  for (Timestamp qts = 11; qts < 20; ++qts) expect_residual_within(qts, first);
  for (Timestamp qts = 21; qts < 30; ++qts) expect_residual_within(qts, second);
}

TEST(ColumnStoreTest, KeyUpdatedEveryEpochScansOnceWithNewestImage) {
  Rig rig(/*chunk_rows=*/16);
  for (int64_t k = 0; k < 64; ++k) rig.Apply(k, 10);
  rig.columns->SeedFromRows(10);
  constexpr int64_t kHot = 7;
  for (int64_t e = 1; e <= 6; ++e) {
    Timestamp ts = 10 + 10 * e;
    rig.Update(kHot, ts - 5, 1000 + e);
    rig.Update(20 + e, ts, 2000 + e);  // a second, cold key per epoch
    rig.columns->Publish(ts);
    ColumnSnapshot snap = rig.columns->SnapshotAt(kT, ts);
    ASSERT_TRUE(snap.valid());
    ASSERT_TRUE(HasDeltas(snap)) << "epoch " << e << " folded early";
    ExpectChunkLayout(snap);
    snap.LoadResidual();
    int seen = 0;
    snap.ScanRows([&](int64_t key, const Row& row) {
      if (key == kHot) {
        ++seen;
        const Value* a = row.Find(0);
        EXPECT_TRUE(a != nullptr && a->as_int64() == 1000 + e);
      }
      return true;
    });
    EXPECT_EQ(seen, 1) << "epoch " << e;
  }
  // At every chunk_ts and between them.
  for (Timestamp qts = 10; qts <= 70; ++qts) rig.ExpectParity(qts);
}

TEST(ColumnStoreTest, FoldLeavesDeltaFreeGenerationWithSameRows) {
  Rig rig(/*chunk_rows=*/4);
  for (int64_t k = 0; k < 40; ++k) rig.Apply(k, 10);
  rig.columns->SeedFromRows(10);
  obs::Counter* rebuilt = obs::GetCounter("column.chunks_rebuilt");
  const uint64_t rebuilt_before = rebuilt->value();
  bool saw_delta = false;
  bool folded = false;
  for (Timestamp ts = 11; ts < 51 && !folded; ++ts) {
    rig.Update(static_cast<int64_t>(ts * 7 % 40), ts, static_cast<int64_t>(ts));
    rig.columns->Publish(ts);
    ColumnSnapshot snap = rig.columns->SnapshotAt(kT, ts);
    ASSERT_TRUE(snap.valid());
    ExpectChunkLayout(snap);
    if (HasDeltas(snap)) {
      saw_delta = true;
    } else if (saw_delta) {
      folded = true;
    }
    rig.ExpectParity(ts);
    rig.ExpectParity(ts - 1);
  }
  EXPECT_TRUE(saw_delta);
  EXPECT_TRUE(folded) << "deltas never folded into the base";
  EXPECT_GT(rebuilt->value(), rebuilt_before);
}

TEST(ColumnStoreTest, IrregularRowsSurviveDeltaAndFold) {
  Rig rig(/*chunk_rows=*/4);
  for (int64_t k = 0; k < 40; ++k) rig.Apply(k, 10);
  rig.columns->SeedFromRows(10);
  // One delta carrying every shape the typed vectors cannot hold as-is: a
  // wrong-typed column, an unknown column id, a NULL, and absent columns.
  // The keys sit in different base chunks, so none turns sparse and folds.
  auto put = [&](int64_t key, std::vector<ColumnValue> values) {
    rig.store.GetTable(kT)->ApplyCommitted(Ins(key, 11, std::move(values)), 11);
    rig.columns->NoteDirty(kT, {key}, 11);
  };
  put(5, {{0, Value("not-an-int")}, {1, Value(0.5)}});
  put(14, {{0, Value(int64_t{140})}, {9, Value(int64_t{1})}});
  put(23, {{0, Value(int64_t{230})}, {1, Value()}});
  put(100, {{2, Value("only-s")}});
  rig.columns->Publish(11);
  ColumnSnapshot snap = rig.columns->SnapshotAt(kT, 11);
  ASSERT_TRUE(snap.valid());
  ASSERT_TRUE(HasDeltas(snap));
  EXPECT_TRUE(snap.chunks().back().data->irregular.Any());
  rig.ExpectParity(10);
  rig.ExpectParity(11);
  // Push unrelated updates until the deltas fold; the odd rows must come
  // through the column-wise copy bit-identical.
  for (Timestamp ts = 12; ts < 40 && HasDeltas(snap); ++ts) {
    rig.Update(20 + static_cast<int64_t>(ts % 16), ts,
               static_cast<int64_t>(ts));
    rig.columns->Publish(ts);
    snap = rig.columns->SnapshotAt(kT, ts);
    ASSERT_TRUE(snap.valid());
    rig.ExpectParity(ts);
  }
  ASSERT_FALSE(HasDeltas(snap)) << "deltas never folded";
  ExpectChunkLayout(snap);
  bool irregular_in_base = false;
  for (const ColumnChunk& chunk : snap.chunks()) {
    irregular_in_base |= chunk.data->irregular.Any();
  }
  EXPECT_TRUE(irregular_in_base);
}

TEST(ColumnStoreTest, DeltaTierStaysLogarithmic) {
  constexpr int64_t kRows = 40'000;
  constexpr int kPublishes = 2'000;
  Rig rig(/*chunk_rows=*/4096);
  for (int64_t k = 0; k < kRows; ++k) rig.Apply(k, 10);
  rig.columns->SeedFromRows(10);
  const Memtable* mt = rig.store.GetTable(kT);
  ColumnSnapshot seeded = rig.columns->SnapshotAt(kT, 10);
  ASSERT_TRUE(seeded.valid());
  ASSERT_FALSE(HasDeltas(seeded));
  const size_t base = seeded.base_chunks();
  obs::Counter* rebuilt = obs::GetCounter("column.chunks_rebuilt");
  const uint64_t rebuilt_before = rebuilt->value();

  // One-row epochs on distinct keys (7919 is coprime to kRows): 2 000 delta
  // rows stay under the fold threshold max(4096, 40 000 / 8) = 5 000. The
  // expected digest is the row store's, kept incrementally — a full
  // DigestAt per generation would dominate the test.
  uint64_t want = mt->DigestAt(10);
  for (int i = 1; i <= kPublishes; ++i) {
    const Timestamp ts = 10 + static_cast<Timestamp>(i);
    const int64_t key = (static_cast<int64_t>(i) * 7919) % kRows;
    want ^= HashRow(key, *mt->ReadRow(key, ts - 1));
    rig.Update(key, ts, -i);
    want ^= HashRow(key, *mt->ReadRow(key, ts));
    rig.columns->Publish(ts);

    ColumnSnapshot snap = rig.columns->SnapshotAt(kT, ts);
    ASSERT_TRUE(snap.valid());
    ASSERT_EQ(snap.base_chunks(), base) << "base folded at publish " << i;
    // Each delta chunk holds more than twice the live rows of the next
    // newer one, so i live delta rows fit in at most log2(i) + 1 chunks.
    const size_t deltas = snap.chunks().size() - snap.base_chunks();
    size_t bound = 1;
    while ((size_t{1} << bound) <= static_cast<size_t>(i)) ++bound;
    ASSERT_LE(deltas, bound) << "publish " << i;
    snap.LoadResidual();
    ASSERT_EQ(snap.Digest(), want) << "publish " << i;
    if (i % 500 == 0) {
      ASSERT_EQ(want, mt->DigestAt(ts)) << "publish " << i;
      ExpectChunkLayout(snap);
    }
  }
  EXPECT_EQ(rebuilt->value(), rebuilt_before)
      << "a base chunk was rewritten before the row threshold";
}

// The TSan CI step's target: one commit-context thread publishing
// generations while reader threads pin snapshots, load residuals, and
// digest chunks. Readers only use timestamps at or below the published
// watermark they observed, so every comparison is deterministic even
// though Publish races the scans. `seed_keys` rows start in the base;
// writes land on keys [0, seed_keys * 3 / 2) at timestamps 2..last_ts.
void RacePublishAgainstPinnedQueries(size_t chunk_rows, int64_t seed_keys,
                                     Timestamp publish_every,
                                     Timestamp last_ts) {
  Rig rig(chunk_rows);
  for (int64_t k = 0; k < seed_keys; ++k) rig.Apply(k, 1);
  rig.columns->SeedFromRows(1);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(test::DeriveSeed(42));
    for (Timestamp ts = 2; ts <= last_ts; ++ts) {
      int writes = static_cast<int>(rng.UniformInt(1, 4));
      for (int w = 0; w < writes; ++w) {
        int64_t key = rng.UniformInt(0, seed_keys * 3 / 2 - 1);
        if (rng.UniformInt(0, 9) < 8) {
          rig.Apply(key, ts);
        } else {
          rig.Delete(key, ts);
        }
      }
      if (ts % publish_every == 0) rig.columns->Publish(ts);
    }
    rig.columns->Publish(last_ts);
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<uint64_t> checked{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(test::DeriveSeed(100 + static_cast<uint64_t>(r)));
      const Memtable* mt = rig.store.GetTable(kT);
      bool last_pass = false;
      while (!last_pass) {
        last_pass = done.load(std::memory_order_acquire);
        Timestamp published = rig.columns->PublishedTs(kT);
        if (published == kInvalidTimestamp) continue;
        // At or below the observed watermark every version is installed
        // and immutable, so row/column parity must hold mid-race.
        // Timestamp is unsigned: subtract-then-clamp would wrap past the
        // watermark while the writer is mid-flight, so clamp first.
        Timestamp delta = rng.UniformInt(0, 5);
        Timestamp qts = published > delta ? published - delta : 1;
        ColumnSnapshot snap = rig.columns->SnapshotAt(kT, qts);
        if (!snap.valid()) continue;  // generation already pruned
        snap.LoadResidual();
        ASSERT_EQ(snap.Digest(), mt->DigestAt(qts)) << "qts " << qts;
        ASSERT_EQ(snap.RowCount(), mt->VisibleRowCount(qts));
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(checked.load(), 0u);
  rig.ExpectParity(last_ts);
}

// Small chunks over a small table: nearly every publish folds.
TEST(ColumnStoreRaceTest, RebuildRacesPinnedQueries) {
  RacePublishAgainstPinnedQueries(/*chunk_rows=*/8, /*seed_keys=*/32,
                                  /*publish_every=*/3, /*last_ts=*/400);
}

// Large chunks: a publish per timestamp stacks up delta chunks (and
// tombstone overlays on them) between folds while readers scan them.
TEST(ColumnStoreRaceTest, DeltaChainRacesPinnedQueries) {
  RacePublishAgainstPinnedQueries(/*chunk_rows=*/32, /*seed_keys=*/128,
                                  /*publish_every=*/1, /*last_ts=*/150);
}

}  // namespace
}  // namespace storage
}  // namespace aets
