// ColumnStore unit tests (DESIGN.md §13): chunk builds, per-epoch delta
// generations, folds into the base chunks, residual top-up at every
// snapshot shape, tombstone overlays, irregular-row overflow, generation
// pruning, on-demand projection and its seed — each asserted provably
// identical to the row store's ScanVisible/DigestAt at the same snapshot.
// ColumnProjectionTest seeds through a live replayer (idle, and restored
// from a checkpoint). The ColumnStoreRaceTest suite is the TSan CI step's
// race surface: concurrent Publish and first projections against pinned
// readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "aets/catalog/catalog.h"
#include "aets/common/rng.h"
#include "aets/obs/metrics.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replication/log_shipper.h"
#include "aets/storage/column_store.h"
#include "aets/storage/memtable.h"
#include "aets/storage/table_store.h"
#include "aets/workload/driver.h"
#include "aets/workload/query_exec.h"
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
    Note(key, ts);
  }

  /// Overwrites column a of an existing row: each call leaves a distinct
  /// newest image.
  void Update(int64_t key, Timestamp ts, int64_t a) {
    store.GetTable(kT)->ApplyCommitted(
        LogRecord::Dml(LogRecordType::kUpdate, static_cast<Lsn>(ts), 1, ts, kT,
                       key, {{0, Value(a)}}),
        ts);
    Note(key, ts);
  }

  void Delete(int64_t key, Timestamp ts) {
    store.GetTable(kT)->ApplyCommitted(Del(key, ts), ts);
    Note(key, ts);
  }

  /// What the commit path does after installing `key`'s version at `ts`.
  void Note(int64_t key, Timestamp ts) {
    columns->NoteDirty(kT, {store.GetTable(kT)->FindNode(key)}, ts);
  }

  /// Projects the table and seeds it from the rows visible at `ts`.
  void Seed(Timestamp ts) {
    columns->Project(kT);
    columns->Publish(ts);
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
  rig.Seed(10);
  EXPECT_EQ(rig.columns->PublishedTs(kT), 10);
  rig.ExpectParity(10);
  // qts past the seed with nothing pending: empty residual, same rows.
  rig.ExpectParity(15);
}

TEST(ColumnStoreTest, SnapshotBelowFirstGenerationIsInvalid) {
  Rig rig;
  rig.Apply(1, 10);
  rig.Seed(10);
  EXPECT_FALSE(rig.columns->SnapshotAt(kT, 9).valid());
  EXPECT_TRUE(rig.columns->SnapshotAt(kT, 10).valid());
  // Unknown tables (off the catalog) also fall back to the row path.
  EXPECT_FALSE(rig.columns->SnapshotAt(kT + 7, 10).valid());
}

TEST(ColumnStoreTest, IncrementalPublishRoutesDirtyKeysToChunks) {
  Rig rig(/*chunk_rows=*/4);
  for (int64_t k = 1; k <= 20; ++k) rig.Apply(k, 20);
  rig.Seed(20);  // 5 chunks of 4
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
  rig.Seed(10);
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
  rig.Seed(12);
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
  rig.Note(7, 10);
  rig.store.GetTable(kT)->ApplyCommitted(
      Ins(8, 10, {{0, Value(int64_t{80})}, {9, Value(int64_t{1})}}), 10);
  rig.Note(8, 10);
  rig.store.GetTable(kT)->ApplyCommitted(
      Ins(9, 10, {{0, Value(int64_t{90})}, {1, Value()}}), 10);
  rig.Note(9, 10);
  rig.Seed(10);
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
  rig.Seed(10);
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
  rig.Seed(10);
  rig.columns->Publish(20);  // no dirty keys: watermark must not advance
  EXPECT_EQ(rig.columns->PublishedTs(kT), 10);
  rig.ExpectParity(20);  // still exact via the empty residual
}

TEST(ColumnStoreTest, ResidualIsOneEpochOfKeys) {
  Rig rig(/*chunk_rows=*/16);
  for (int64_t k = 0; k < 64; ++k) rig.Apply(k, 10);
  rig.Seed(10);
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
  rig.Seed(10);
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
  rig.Seed(10);
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
  rig.Seed(10);
  // One delta carrying every shape the typed vectors cannot hold as-is: a
  // wrong-typed column, an unknown column id, a NULL, and absent columns.
  // The keys sit in different base chunks, so none turns sparse and folds.
  auto put = [&](int64_t key, std::vector<ColumnValue> values) {
    rig.store.GetTable(kT)->ApplyCommitted(Ins(key, 11, std::move(values)), 11);
    rig.Note(key, 11);
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
  rig.Seed(10);
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

// Projection is on demand: an unprojected table keeps no dirty keys, and
// its seed waits for a watermark covering every change it skipped. Here key
// 9 and key 3's update are noted at ts 20 before the table is projected,
// and the first publish after projection is at 15.
TEST(ColumnStoreTest, SeedWaitsForChangesSkippedBeforeProjection) {
  Rig rig(/*chunk_rows=*/4);
  int hook_calls = 0;
  rig.columns = std::make_unique<ColumnStore>(
      &rig.catalog, &rig.store, rig.columns->options(), "",
      [&] { ++hook_calls; });
  auto counter = [](const char* name) {
    return obs::MetricsRegistry::Instance().Snapshot().counters[name];
  };
  const uint64_t projected_before = counter("column.tables_projected");
  const uint64_t seeded_before = counter("column.seed_rows");

  for (int64_t k = 1; k <= 8; ++k) rig.Apply(k, 10);
  rig.Update(3, 20, 333);
  rig.Apply(9, 20);
  rig.columns->Publish(20);  // nothing projected: nothing to publish
  EXPECT_EQ(rig.columns->PublishedTs(kT), kInvalidTimestamp);
  EXPECT_FALSE(rig.columns->AnyProjected());

  // The first query projects the table and takes the row path, counted.
  obs::Counter* fallbacks = obs::GetCounter("column.row_fallbacks");
  const uint64_t fallbacks_before = fallbacks->value();
  EXPECT_FALSE(rig.columns->SnapshotAt(kT, 20).valid());
  EXPECT_FALSE(rig.columns->SnapshotAt(kT, 20).valid());
  EXPECT_TRUE(rig.columns->AnyProjected());
  EXPECT_EQ(fallbacks->value(), fallbacks_before + 2);
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(counter("column.tables_projected"), projected_before + 1);

  // From projection on, changes are kept.
  rig.Apply(10, 25);
  // A watermark older than a skipped change does not seed...
  rig.columns->Publish(15);
  EXPECT_EQ(rig.columns->PublishedTs(kT), kInvalidTimestamp);
  // ...one covering them all does, and the seed holds every one of them.
  rig.columns->Publish(20);
  EXPECT_EQ(rig.columns->PublishedTs(kT), 20);
  EXPECT_EQ(counter("column.seed_rows"), seeded_before + 9);
  rig.ExpectParity(20);
  // The change noted after projection rides the residual, then a delta.
  rig.ExpectParity(25);
  rig.columns->Publish(25);
  EXPECT_EQ(rig.columns->PublishedTs(kT), 25);
  for (Timestamp qts = 20; qts <= 25; ++qts) rig.ExpectParity(qts);
  EXPECT_EQ(hook_calls, 1);
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
  rig.Seed(1);

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

// The first projection races the commit side: a writer applies and notes
// rows (skipped while the table is unprojected), a merge thread publishes
// at watermarks trailing the writer by a random lag, and readers that only
// start querying mid-stream project the table with their first SnapshotAt.
// Whenever the seed lands, every valid snapshot must digest like the rows.
// The writer holds at mid-stream until some reader has projected the table,
// so the projection races the first half and the seed races the second.
TEST(ColumnStoreRaceTest, ProjectionRacesCommits) {
  constexpr int64_t kKeys = 64;
  constexpr Timestamp kLastTs = 300;
  Rig rig(/*chunk_rows=*/16);
  std::atomic<Timestamp> committed{kInvalidTimestamp};
  std::atomic<bool> done{false};
  std::atomic<bool> published_last{false};

  std::thread writer([&] {
    Rng rng(test::DeriveSeed(7));
    for (Timestamp ts = 1; ts <= kLastTs; ++ts) {
      while (ts == kLastTs / 2 && !rig.columns->AnyProjected()) {
        std::this_thread::yield();
      }
      int writes = static_cast<int>(rng.UniformInt(1, 4));
      for (int w = 0; w < writes; ++w) {
        int64_t key = rng.UniformInt(0, kKeys - 1);
        if (rng.UniformInt(0, 9) < 8) {
          rig.Apply(key, ts);
        } else {
          rig.Delete(key, ts);
        }
      }
      committed.store(ts, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  // The merge thread: publishes only at watermarks the writer already
  // passed, sometimes one older than the newest change it skipped.
  std::thread publisher([&] {
    Rng rng(test::DeriveSeed(8));
    while (!done.load(std::memory_order_acquire)) {
      Timestamp w = committed.load(std::memory_order_acquire);
      Timestamp lag = rng.UniformInt(0, 3);
      if (w > lag) rig.columns->Publish(w - lag);
      std::this_thread::yield();
    }
    rig.columns->Publish(kLastTs);
    published_last.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<uint64_t> checked{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(test::DeriveSeed(200 + static_cast<uint64_t>(r)));
      const Memtable* mt = rig.store.GetTable(kT);
      // Each reader's first query comes at a different point of the stream.
      const Timestamp start = kLastTs / 8 * static_cast<Timestamp>(r + 1);
      while (committed.load(std::memory_order_acquire) < start) {
        std::this_thread::yield();
      }
      // The last pass reads the final publish's exact generation.
      bool last_pass = false;
      while (!last_pass) {
        last_pass = published_last.load(std::memory_order_acquire);
        Timestamp w = committed.load(std::memory_order_acquire);
        Timestamp delta = last_pass ? 0 : rng.UniformInt(0, 5);
        Timestamp qts = w > delta ? w - delta : 1;
        ColumnSnapshot snap = rig.columns->SnapshotAt(kT, qts);
        if (!snap.valid()) continue;  // not seeded yet, or pruned
        snap.LoadResidual();
        ASSERT_EQ(snap.Digest(), mt->DigestAt(qts)) << "qts " << qts;
        ASSERT_EQ(snap.RowCount(), mt->VisibleRowCount(qts));
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  publisher.join();
  for (auto& t : readers) t.join();
  EXPECT_GE(checked.load(), 3u);
  EXPECT_EQ(rig.columns->PublishedTs(kT), kLastTs);
  rig.ExpectParity(kLastTs);
}

// ---------------------------------------------------------------------------
// Projection through a live replayer: the first query wakes the merge
// thread, which seeds at the last committed watermark with no new epoch.

/// Closes a replayer's input when it leaves scope. Declared after the
/// replayer, it runs first, so a failed ASSERT cannot leave the replayer's
/// Stop() waiting for more epochs.
struct CloseOnExit {
  EpochChannel* channel;
  ~CloseOnExit() { channel->Close(); }
};

/// Polls until `table` has a generation (or ~10 s pass); its chunk_ts.
Timestamp WaitSeeded(const ColumnStore& columns, TableId table) {
  for (int i = 0; i < 10'000; ++i) {
    Timestamp ts = columns.PublishedTs(table);
    if (ts != kInvalidTimestamp) return ts;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return kInvalidTimestamp;
}

TEST(ColumnProjectionTest, IdleBackupSeedsANewlyProjectedTable) {
  Catalog catalog;
  Rig::MakeCatalog(catalog);
  LogicalClock clock;
  PrimaryDb db(&catalog, &clock);
  LogShipper shipper(/*epoch_size=*/8);
  EpochChannel channel(1024);
  shipper.AttachChannel(&channel);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  options.column_chunk_rows = 16;
  AetsReplayer backup(&catalog, &channel, options);
  CloseOnExit close_channel{&channel};
  ASSERT_TRUE(backup.Start().ok());

  for (int64_t i = 0; i < 100; ++i) {
    PrimaryTxn txn = db.Begin();
    std::vector<ColumnValue> values = {{0, Value(i)},
                                       {1, Value(static_cast<double>(i))},
                                       {2, Value("v" + std::to_string(i))}};
    if (i < 40) {
      txn.Insert(kT, i, std::move(values));
    } else {
      txn.Update(kT, i % 40, std::move(values));
    }
    ASSERT_TRUE(db.Commit(std::move(txn)).ok());
  }
  shipper.FlushEpoch();
  const Timestamp last = db.last_commit_ts();
  for (int i = 0; i < 10'000 && backup.GlobalVisibleTs() < last; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(backup.GlobalVisibleTs(), last);
  const uint64_t epochs = backup.stats().epochs.load();

  const ColumnStore* columns = backup.ColumnStoreForTable(kT);
  ASSERT_NE(columns, nullptr);
  EXPECT_EQ(columns->PublishedTs(kT), kInvalidTimestamp);  // never queried
  EXPECT_FALSE(columns->SnapshotAt(kT, last).valid());    // projects it
  EXPECT_EQ(WaitSeeded(*columns, kT), last);
  EXPECT_EQ(backup.stats().epochs.load(), epochs);  // no epoch arrived
  ColumnSnapshot snap = columns->SnapshotAt(kT, last);
  ASSERT_TRUE(snap.valid());
  snap.LoadResidual();
  EXPECT_EQ(snap.Digest(), backup.store()->GetTable(kT)->DigestAt(last));
  EXPECT_EQ(snap.RowCount(), 40u);

  shipper.Finish();
  backup.Stop();
  EXPECT_TRUE(backup.error().ok()) << backup.error().ToString();
}

TEST(ColumnProjectionTest, RestoredBackupAnswersColumnarQ6OnceSeeded) {
  TpccConfig config;
  config.warehouses = 1;
  config.items = 80;
  config.customers_per_district = 8;
  config.init_orders_per_district = 3;
  ChBenchmarkWorkload ch(config);
  LogicalClock clock;
  PrimaryDb db(&ch.catalog(), &clock);
  LogShipper shipper(/*epoch_size=*/32);
  EpochChannel channel(1024);
  shipper.AttachChannel(&channel);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  Rng rng(test::DeriveSeed(5));
  ch.Load(&db, &rng);
  {
    OltpDriver oltp(&ch, &db, 5);
    oltp.Run(200);
  }
  shipper.Finish();

  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  options.column_chunk_rows = 64;
  const std::string path =
      std::string(::testing::TempDir()) + "/column_projection_restore.ckpt";
  {
    AetsReplayer source(&ch.catalog(), &channel, options);
    ASSERT_TRUE(source.Start().ok());
    source.Stop();
    ASSERT_TRUE(source.error().ok()) << source.error().ToString();
    ASSERT_TRUE(source.WriteCheckpoint(path).ok());
  }

  EpochChannel idle(16);
  AetsReplayer restored(&ch.catalog(), &idle, options);
  CloseOnExit close_idle{&idle};
  ASSERT_TRUE(restored.Bootstrap(path).ok());
  ASSERT_TRUE(restored.Start().ok());
  const Timestamp ts = restored.GlobalVisibleTs();
  ASSERT_EQ(ts, db.last_commit_ts());
  const TableId ol = ch.tpcc().orderline();
  ChQueryExecutor rows(&ch, restored.store());
  ChQueryExecutor cols(&ch, restored.store(), restored.column_store());
  const auto want = rows.RunQ6(ts, 1, 5);
  EXPECT_GT(want.lines, 0u);
  // The first query takes the row path and projects order_line.
  EXPECT_TRUE(cols.RunQ6(ts, 1, 5) == want);
  EXPECT_EQ(WaitSeeded(*restored.column_store(), ol), ts);
  obs::Counter* scanned = obs::GetCounter("column.rows_scanned");
  const uint64_t before = scanned->value();
  EXPECT_TRUE(cols.RunQ6(ts, 1, 5) == want);
  EXPECT_GT(scanned->value(), before);  // the columns answered
  EXPECT_TRUE(cols.error().ok());

  idle.Close();
  restored.Stop();
  EXPECT_TRUE(restored.error().ok()) << restored.error().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace storage
}  // namespace aets
