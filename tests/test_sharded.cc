// Sharded multi-backup replay (DESIGN.md §11): the ShardMap partition, the
// shipper's per-shard sub-epoch split and conserved accounting, the
// ShardedBackup facade, and the cross-shard global-snapshot protocol —
// including the headline guarantee that GlobalSafeTimestamp() never exceeds
// the slowest shard's watermark, exercised with a deliberately stalled shard.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "aets/baselines/serial_replayer.h"
#include "aets/bench/harness.h"
#include "aets/catalog/shard_map.h"
#include "aets/common/clock.h"
#include "aets/common/rng.h"
#include "aets/log/record.h"
#include "aets/log/shipped_epoch.h"
#include "aets/net/epoch_stream.h"
#include "aets/net/query_server.h"
#include "aets/node/backup_node.h"
#include "aets/obs/metrics.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replay/replayer_base.h"
#include "aets/replay/sharded_backup.h"
#include "aets/replay/snapshot_coordinator.h"
#include "aets/replay/thread_allocator.h"
#include "aets/replication/fault_injection.h"
#include "aets/replication/log_shipper.h"
#include "fake_replayer.h"
#include "test_seed.h"

namespace aets {
namespace {

Catalog* MakeCatalog(int num_tables) {
  auto* catalog = new Catalog();
  for (int t = 0; t < num_tables; ++t) {
    AETS_CHECK(catalog
                   ->RegisterTable("t" + std::to_string(t),
                                   Schema::Of({{"a", ColumnType::kInt64},
                                               {"b", ColumnType::kString}}))
                   .ok());
  }
  return catalog;
}

void RunRandomWorkload(PrimaryDb* db, int num_tables, int num_txns,
                       uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < num_txns; ++i) {
    PrimaryTxn txn = db->Begin();
    int writes = static_cast<int>(rng.UniformInt(1, 6));
    for (int w = 0; w < writes; ++w) {
      TableId table = static_cast<TableId>(rng.UniformInt(0, num_tables - 1));
      int64_t key = rng.UniformInt(0, 199);
      int kind = static_cast<int>(rng.UniformInt(0, 9));
      if (kind < 5) {
        txn.Insert(table, key,
                   {{0, Value(static_cast<int64_t>(i))},
                    {1, Value(rng.AlphaString(4, 12))}});
      } else if (kind < 9) {
        txn.Update(table, key, {{0, Value(static_cast<int64_t>(i * 10))}});
      } else {
        txn.Delete(table, key);
      }
    }
    ASSERT_TRUE(db->Commit(std::move(txn)).ok());
  }
}

ReplayRecoveryOptions FastRecovery() {
  ReplayRecoveryOptions options;
  options.max_retries = 16;
  options.max_pending = 4096;
  return options;
}

/// Polls `cond` for up to `deadline_ms`; returns whether it became true.
bool WaitFor(const std::function<bool()>& cond, int deadline_ms = 10'000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// The shipper-level conservation invariant, globally and per shard.
void ExpectConserved(const LogShipper& shipper) {
  uint64_t shipped_sum = 0, dropped_sum = 0;
  for (int s = 0; s < shipper.shard_count(); ++s) {
    EXPECT_EQ(shipper.shard_produced(s),
              shipper.shard_shipped(s) + shipper.shard_dropped(s))
        << "shard " << s;
    shipped_sum += shipper.shard_shipped(s);
    dropped_sum += shipper.shard_dropped(s);
  }
  EXPECT_EQ(shipper.epochs_produced(), shipper.epochs_shipped() +
                                           shipper.epochs_dropped());
  EXPECT_EQ(shipper.epochs_produced(), shipped_sum + dropped_sum);
}

// ---------------------------------------------------------------------------
// ShardMap

TEST(ShardMapTest, HashIsRoundRobin) {
  ShardMap map = ShardMap::Hash(/*num_tables=*/10, /*num_shards=*/3);
  EXPECT_EQ(map.num_shards(), 3);
  EXPECT_EQ(map.num_tables(), 10u);
  for (TableId t = 0; t < 10; ++t) {
    EXPECT_EQ(map.shard_of(t), static_cast<int>(t % 3)) << "table " << t;
  }
  EXPECT_EQ(map.TablesOnShard(0), (std::vector<TableId>{0, 3, 6, 9}));
  EXPECT_EQ(map.TablesOnShard(1), (std::vector<TableId>{1, 4, 7}));
  EXPECT_EQ(map.TablesOnShard(2), (std::vector<TableId>{2, 5, 8}));
  // Tables beyond the map (registered after it was built) still route
  // deterministically.
  EXPECT_EQ(map.shard_of(11), 2);
}

TEST(ShardMapTest, ExplicitValidates) {
  auto ok = ShardMap::Explicit({1, 0, 1, 1}, 2);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->shard_of(0), 1);
  EXPECT_EQ(ok->shard_of(1), 0);
  EXPECT_EQ(ok->TablesOnShard(1), (std::vector<TableId>{0, 2, 3}));

  EXPECT_FALSE(ShardMap::Explicit({0, 2}, 2).ok());   // shard out of range
  EXPECT_FALSE(ShardMap::Explicit({0, -1}, 2).ok());  // negative shard
  EXPECT_FALSE(ShardMap::Explicit({}, 2).ok());       // empty map
}

// ---------------------------------------------------------------------------
// Sub-epoch split

using DmlKey = std::tuple<TableId, int64_t, Timestamp, TxnId>;

std::multiset<DmlKey> DmlsOf(const Epoch& epoch) {
  std::multiset<DmlKey> out;
  for (const TxnLog& txn : epoch.txns) {
    for (const LogRecord& rec : txn.records) {
      if (rec.is_dml()) {
        out.insert({rec.table_id, rec.row_key, rec.timestamp, rec.txn_id});
      }
    }
  }
  return out;
}

TEST(ShardedShipperTest, SubEpochSplitRoutesEveryDml) {
  constexpr int kTables = 6;
  constexpr int kShards = 3;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  ShardMap map = ShardMap::Hash(kTables, kShards);

  // The workload: a random mix, then single-table epochs that leave two of
  // the three shards untouched (forcing synthetic heartbeat fillers), then
  // an idle heartbeat.
  auto run_workload = [&](PrimaryDb* db, LogShipper* shipper) {
    RunRandomWorkload(db, kTables, 300, test::DeriveSeed(77));
    shipper->FlushEpoch();
    for (int i = 0; i < 3; ++i) {
      PrimaryTxn txn = db->Begin();
      txn.Insert(0, 1000 + i,
                 {{0, Value(static_cast<int64_t>(i))},
                  {1, Value(std::string("tail"))}});
      ASSERT_TRUE(db->Commit(std::move(txn)).ok());
      shipper->FlushEpoch();
    }
    shipper->ShipHeartbeat(db->AcquireHeartbeatTs());
    shipper->Finish();
  };

  // Record the same deterministic workload twice — once unsharded (ground
  // truth), once through the sharded shipper. Fresh clocks make the commit
  // timestamps identical run to run.
  std::vector<ShippedEpoch> whole;
  {
    LogicalClock clock;
    PrimaryDb db(catalog.get(), &clock);
    LogShipper shipper(/*epoch_size=*/16);
    db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
    EpochChannel recorder(0);
    shipper.AttachChannel(&recorder);
    run_workload(&db, &shipper);
    while (auto e = recorder.TryReceive()) whole.push_back(std::move(*e));
  }

  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/16);
  shipper.SetShardMap(&map);
  ASSERT_EQ(shipper.shard_count(), kShards);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  std::vector<std::unique_ptr<EpochChannel>> recorders;
  for (int s = 0; s < kShards; ++s) {
    recorders.push_back(std::make_unique<EpochChannel>(0));
    shipper.AttachShardChannel(s, recorders.back().get());
  }
  run_workload(&db, &shipper);

  std::vector<std::vector<ShippedEpoch>> lanes(kShards);
  for (int s = 0; s < kShards; ++s) {
    while (auto e = recorders[static_cast<size_t>(s)]->TryReceive()) {
      lanes[static_cast<size_t>(s)].push_back(std::move(*e));
    }
    ASSERT_EQ(lanes[static_cast<size_t>(s)].size(), whole.size())
        << "shard " << s << " lane is not id-aligned with the whole stream";
  }

  size_t synthetic_heartbeats = 0;
  for (size_t i = 0; i < whole.size(); ++i) {
    const ShippedEpoch& full = whole[i];
    std::multiset<DmlKey> want;
    if (!full.is_heartbeat()) {
      auto decoded = DecodeEpoch(full);
      ASSERT_TRUE(decoded.ok());
      want = DmlsOf(*decoded);
    }
    std::multiset<DmlKey> got;
    for (int s = 0; s < kShards; ++s) {
      const ShippedEpoch& sub = lanes[static_cast<size_t>(s)][i];
      EXPECT_EQ(sub.epoch_id, full.epoch_id);
      if (full.is_heartbeat()) {
        // A primary heartbeat fans out as a heartbeat on every lane.
        EXPECT_TRUE(sub.is_heartbeat());
        EXPECT_EQ(sub.heartbeat_ts, full.heartbeat_ts);
        continue;
      }
      if (sub.is_heartbeat()) {
        // Synthetic filler: this shard was untouched by the epoch, and the
        // heartbeat carries the full epoch's max commit timestamp.
        ++synthetic_heartbeats;
        EXPECT_EQ(sub.heartbeat_ts, full.max_commit_ts);
        continue;
      }
      // Data sub-epoch: CRC-intact, watermark patched to the full epoch's
      // max, and every DML owned by this shard.
      EXPECT_TRUE(sub.PayloadIntact());
      EXPECT_EQ(sub.max_commit_ts, full.max_commit_ts);
      auto decoded = DecodeEpoch(sub);
      ASSERT_TRUE(decoded.ok());
      for (const TxnLog& txn : decoded->txns) {
        ASSERT_FALSE(txn.records.empty());
        EXPECT_EQ(txn.records.front().type, LogRecordType::kBegin);
        EXPECT_EQ(txn.records.back().type, LogRecordType::kCommit);
      }
      std::multiset<DmlKey> shard_dmls = DmlsOf(*decoded);
      for (const DmlKey& d : shard_dmls) {
        EXPECT_EQ(map.shard_of(std::get<0>(d)), s)
            << "table " << std::get<0>(d) << " leaked onto shard " << s;
      }
      got.insert(shard_dmls.begin(), shard_dmls.end());
    }
    if (!full.is_heartbeat()) {
      // Exactly-once routing: the union over shards is the whole epoch.
      EXPECT_EQ(got, want) << "epoch " << full.epoch_id;
    }
  }
  EXPECT_GT(synthetic_heartbeats, 0u)
      << "workload never left a shard untouched; weak test";

  // Conserved accounting: every lane delivered the full id sequence.
  ExpectConserved(shipper);
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(shipper.shard_produced(s), whole.size()) << "shard " << s;
    EXPECT_EQ(shipper.shard_dropped(s), 0u) << "shard " << s;
  }
}

TEST(ShardedShipperTest, ShardSourceServesPerShardNacks) {
  constexpr int kTables = 4;
  constexpr int kShards = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  ShardMap map = ShardMap::Hash(kTables, kShards);
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/8, /*retention_capacity=*/1024);
  shipper.SetShardMap(&map);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  std::vector<std::unique_ptr<EpochChannel>> recorders;
  for (int s = 0; s < kShards; ++s) {
    recorders.push_back(std::make_unique<EpochChannel>(0));
    shipper.AttachShardChannel(s, recorders.back().get());
  }
  RunRandomWorkload(&db, kTables, 100, test::DeriveSeed(8));
  shipper.Finish();

  ASSERT_GT(shipper.NextEpochId(), 2u);
  for (int s = 0; s < kShards; ++s) {
    EpochSource* source = shipper.shard_source(s);
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(source->NextEpochId(), shipper.NextEpochId());
    std::vector<ShippedEpoch> lane;
    while (auto e = recorders[static_cast<size_t>(s)]->TryReceive()) {
      lane.push_back(std::move(*e));
    }
    // Every retained id re-fetches to the exact sub-epoch this lane shipped.
    for (const ShippedEpoch& sent : lane) {
      auto again = source->FetchEpoch(sent.epoch_id);
      ASSERT_TRUE(again.has_value()) << "shard " << s << " id "
                                     << sent.epoch_id;
      EXPECT_EQ(again->is_heartbeat(), sent.is_heartbeat());
      EXPECT_EQ(again->payload_crc, sent.payload_crc);
      EXPECT_EQ(again->max_commit_ts, sent.max_commit_ts);
    }
  }
  EXPECT_GT(shipper.retransmits(), 0u);
  EXPECT_FALSE(shipper.FetchShardEpoch(0, shipper.NextEpochId()).has_value());
}

// ---------------------------------------------------------------------------
// GlobalSnapshotCoordinator (unit level, fake probes)

TEST(SnapshotCoordinatorTest, SafeTimestampIsMinOverShards) {
  std::atomic<Timestamp> a{0}, b{0};
  GlobalSnapshotCoordinator coordinator;
  EXPECT_EQ(coordinator.AttachShard([&] { return a.load(); }), 0);
  EXPECT_EQ(coordinator.AttachShard([&] { return b.load(); }), 1);
  ASSERT_EQ(coordinator.num_shards(), 2);

  EXPECT_EQ(coordinator.GlobalSafeTimestamp(), kInvalidTimestamp);
  a = 10;
  EXPECT_EQ(coordinator.GlobalSafeTimestamp(), kInvalidTimestamp);  // b at 0
  b = 7;
  EXPECT_EQ(coordinator.GlobalSafeTimestamp(), 7u);
  EXPECT_EQ(coordinator.ShardWatermark(0), 10u);
  EXPECT_EQ(coordinator.ShardWatermark(1), 7u);
  // The lag gauges were refreshed by the safe-timestamp read.
  EXPECT_EQ(obs::GetGauge("shard.0.watermark_lag")->value(), 0);
  EXPECT_EQ(obs::GetGauge("shard.1.watermark_lag")->value(), 3);
  // Monotone backstop: a probe glitching backwards cannot pull the published
  // safe timestamp back.
  b = 5;
  EXPECT_EQ(coordinator.GlobalSafeTimestamp(), 7u);
  b = 12;
  EXPECT_EQ(coordinator.GlobalSafeTimestamp(), 10u);
}

TEST(SnapshotCoordinatorTest, PinsHoldTheGcHorizon) {
  std::atomic<Timestamp> a{5}, b{5};
  GlobalSnapshotCoordinator coordinator;
  coordinator.AttachShard([&] { return a.load(); });
  coordinator.AttachShard([&] { return b.load(); });

  EXPECT_EQ(coordinator.MinPinnedTs(), kInvalidTimestamp);
  EXPECT_EQ(coordinator.GcHorizon(), 5u);

  SnapshotHandle snap = coordinator.AcquireSnapshot();
  EXPECT_TRUE(snap.valid());
  EXPECT_EQ(snap.ts(), 5u);
  a = 20;
  b = 20;
  EXPECT_EQ(coordinator.GlobalSafeTimestamp(), 20u);
  // The live pin holds GC back at the snapshot even as the frontier moves.
  EXPECT_EQ(coordinator.MinPinnedTs(), 5u);
  EXPECT_EQ(coordinator.GcHorizon(), 5u);

  {
    SnapshotHandle newer = coordinator.AcquireSnapshot();
    EXPECT_EQ(newer.ts(), 20u);
    EXPECT_EQ(coordinator.GcHorizon(), 5u);  // oldest pin wins
  }
  EXPECT_EQ(coordinator.GcHorizon(), 5u);  // newer released, old pin remains

  SnapshotHandle moved = std::move(snap);
  EXPECT_FALSE(snap.valid());
  EXPECT_EQ(coordinator.GcHorizon(), 5u);  // move does not double-release
  moved.Release();
  EXPECT_EQ(coordinator.MinPinnedTs(), kInvalidTimestamp);
  EXPECT_EQ(coordinator.GcHorizon(), 20u);
}

// ---------------------------------------------------------------------------
// ShardedBackup end to end

AetsOptions BaseOptions(int num_tables) {
  AetsOptions options;
  options.replay_threads = 8;
  options.commit_threads = 4;
  options.grouping = GroupingMode::kPerTable;
  options.initial_rates.assign(static_cast<size_t>(num_tables), 1.0);
  return options;
}

// One AetsReplayer per shard of `map`, named AETS.s<i>, with BaseOptions'
// thread budgets split across the shards.
std::unique_ptr<ShardedBackup> MakeAetsBackup(
    const Catalog* catalog, const ShardMap* map,
    const std::vector<EpochChannel*>& channels, int num_tables) {
  AetsOptions base = BaseOptions(num_tables);
  std::vector<ShardThreads> budgets =
      SplitShardThreads(*map, base.initial_rates, base.replay_threads,
                        base.commit_threads);
  std::vector<std::unique_ptr<Replayer>> shards;
  for (size_t s = 0; s < budgets.size(); ++s) {
    AetsOptions options = base;
    options.name += ".s" + std::to_string(s);
    options.replay_threads = budgets[s].replay_threads;
    options.commit_threads = budgets[s].commit_threads;
    shards.push_back(
        std::make_unique<AetsReplayer>(catalog, channels[s], std::move(options)));
  }
  return std::make_unique<ShardedBackup>(map, std::move(shards));
}

TEST(ShardedBackupTest, BudgetsSplitByPerShardRateSums) {
  // Hash over 2 shards: tables 0, 2 on shard 0 (rates 3 + 3), tables 1, 3
  // on shard 1 (rates 1 + 1).
  ShardMap map = ShardMap::Hash(4, 2);
  std::vector<ShardThreads> budgets =
      SplitShardThreads(map, {3.0, 1.0, 3.0, 1.0}, /*replay_threads=*/8,
                        /*commit_threads=*/4);
  std::vector<int> replay = SplitThreadBudget({6.0, 2.0}, 8);
  std::vector<int> commit = SplitThreadBudget({6.0, 2.0}, 4);
  ASSERT_EQ(budgets.size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(budgets[s].replay_threads, replay[s]);
    EXPECT_EQ(budgets[s].commit_threads, commit[s]);
  }
  EXPECT_GT(budgets[0].replay_threads, budgets[1].replay_threads);
}

TEST(ShardedBackupDeathTest, BudgetBelowShardCountIsRejected) {
  // Every shard needs a replay and a commit context: a budget smaller than
  // the shard count stops rather than being silently raised.
  ShardMap map = ShardMap::Hash(4, 3);
  EXPECT_DEATH(SplitShardThreads(map, {}, /*replay_threads=*/2,
                                 /*commit_threads=*/3),
               "thread budget smaller than shard count");
  EXPECT_DEATH(SplitShardThreads(map, {}, /*replay_threads=*/3,
                                 /*commit_threads=*/2),
               "thread budget smaller than shard count");
}

TEST(ShardedBackupTest, MatchesPrimaryAcrossShardCounts) {
  constexpr int kTables = 6;
  for (int shards : {1, 2, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
    ShardMap map = ShardMap::Hash(kTables, shards);
    LogicalClock clock;
    PrimaryDb db(catalog.get(), &clock);
    LogShipper shipper(/*epoch_size=*/16);
    shipper.SetShardMap(&map);
    db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

    std::vector<std::unique_ptr<EpochChannel>> channels;
    std::vector<EpochChannel*> raw;
    for (int s = 0; s < shards; ++s) {
      channels.push_back(std::make_unique<EpochChannel>(1024));
      shipper.AttachShardChannel(s, channels.back().get());
      raw.push_back(channels.back().get());
    }
    auto backup = MakeAetsBackup(catalog.get(), &map, raw, kTables);
    ASSERT_EQ(backup->num_shards(), shards);
    ASSERT_TRUE(backup->Start().ok());

    RunRandomWorkload(&db, kTables, 500, test::DeriveSeed(200u + shards));
    shipper.Finish();
    backup->Stop();

    Timestamp final_ts = db.last_commit_ts();
    // Every table's history matches the primary, read through the facade's
    // per-shard routing.
    for (TableId t = 0; t < kTables; ++t) {
      const Memtable* got = backup->StoreForTable(t)->GetTable(t);
      const Memtable* want = db.store().GetTable(t);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->DigestAt(final_ts), want->DigestAt(final_ts))
          << "table " << t;
      // Algorithm 3 through the facade: the global frontier covers tables
      // whose own tg_cmt_ts stops at their last touching commit.
      EXPECT_TRUE(IsVisible(*backup, {t}, final_ts)) << "table " << t;
    }
    // The cross-shard frontier converged to the primary's last commit.
    EXPECT_EQ(backup->GlobalVisibleTs(), final_ts);
    EXPECT_EQ(backup->coordinator().GlobalSafeTimestamp(), final_ts);
    // Aggregated stats: every sub-epoch got replayed somewhere.
    EXPECT_GT(backup->stats().epochs.load(), 0u);
    ExpectConserved(shipper);
  }
}

TEST(ShardedBackupTest, ChaosPerShardLinksRecoverViaShardSources) {
  constexpr int kTables = 5;
  constexpr int kShards = 3;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  ShardMap map = ShardMap::Hash(kTables, kShards);
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/8, /*retention_capacity=*/8192);
  shipper.SetShardMap(&map);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  // The acceptance fault mix, independently seeded per shard link.
  std::vector<std::unique_ptr<FaultInjectingChannel>> channels;
  std::vector<EpochChannel*> raw;
  for (int s = 0; s < kShards; ++s) {
    FaultProfile profile;
    profile.drop = 0.05;
    profile.duplicate = 0.05;
    profile.corrupt = 0.01;
    profile.seed = test::DeriveSeed(900u + static_cast<uint64_t>(s));
    channels.push_back(
        std::make_unique<FaultInjectingChannel>(profile, /*capacity=*/4096));
    shipper.AttachShardChannel(s, channels.back().get());
    raw.push_back(channels.back().get());
  }
  auto backup = MakeAetsBackup(catalog.get(), &map, raw, kTables);
  for (int s = 0; s < kShards; ++s) {
    backup->shard(s)->SetEpochSource(shipper.shard_source(s));
    auto* base = dynamic_cast<ReplayerBase*>(backup->shard(s));
    ASSERT_NE(base, nullptr);
    base->SetRecoveryOptions(FastRecovery());
  }
  ASSERT_TRUE(backup->Start().ok());

  RunRandomWorkload(&db, kTables, 600, test::DeriveSeed(901));
  shipper.Finish();
  backup->Stop();

  uint64_t faults = 0;
  for (auto& ch : channels) faults += ch->faults_injected();
  EXPECT_GT(faults, 0u);

  Timestamp final_ts = db.last_commit_ts();
  EXPECT_TRUE(backup->error().ok()) << backup->error().ToString();
  for (TableId t = 0; t < kTables; ++t) {
    EXPECT_EQ(backup->StoreForTable(t)->GetTable(t)->DigestAt(final_ts),
              db.store().GetTable(t)->DigestAt(final_ts))
        << "table " << t;
  }
  EXPECT_EQ(backup->GlobalVisibleTs(), final_ts);
  EXPECT_GT(shipper.retransmits(), 0u);
  ExpectConserved(shipper);
}

// The metrics registry reads the components' own counters: with faults on
// every lane and idle heartbeats between bursts, each exported series equals
// the accessor it mirrors, both summed and per shard/lane.
TEST(ShardedBackupTest, ExportedSeriesEqualComponentAccessors) {
  constexpr int kTables = 5;
  constexpr int kShards = 3;
  // Retired totals from earlier tests would offset the sums; every owner
  // below stays alive until the snapshot.
  obs::MetricsRegistry::Instance().ResetAll();
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  ShardMap map = ShardMap::Hash(kTables, kShards);
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/8, /*retention_capacity=*/8192);
  shipper.SetShardMap(&map);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  std::vector<std::unique_ptr<FaultInjectingChannel>> channels;
  std::vector<EpochChannel*> raw;
  for (int s = 0; s < kShards; ++s) {
    FaultProfile profile;
    profile.drop = 0.05;
    profile.duplicate = 0.05;
    profile.corrupt = 0.01;
    profile.reorder = 0.03;
    profile.seed = test::DeriveSeed(950u + static_cast<uint64_t>(s));
    channels.push_back(
        std::make_unique<FaultInjectingChannel>(profile, /*capacity=*/4096));
    shipper.AttachShardChannel(s, channels.back().get());
    raw.push_back(channels.back().get());
  }
  auto backup = MakeAetsBackup(catalog.get(), &map, raw, kTables);
  for (int s = 0; s < kShards; ++s) {
    backup->shard(s)->SetEpochSource(shipper.shard_source(s));
    dynamic_cast<ReplayerBase*>(backup->shard(s))
        ->SetRecoveryOptions(FastRecovery());
  }
  ASSERT_TRUE(backup->Start().ok());
  for (int burst = 0; burst < 4; ++burst) {
    RunRandomWorkload(&db, kTables, 150,
                      test::DeriveSeed(951u + static_cast<uint64_t>(burst)));
    // Idle gap: the partial epoch flushes and heartbeat epoch ids follow.
    for (int hb = 0; hb < 3; ++hb) {
      shipper.ShipHeartbeat(db.AcquireHeartbeatTs());
    }
  }
  shipper.Finish();
  backup->Stop();
  ASSERT_TRUE(backup->error().ok()) << backup->error().ToString();

  obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
  auto series = [&](const std::string& name) -> uint64_t {
    auto it = snap.counters.find(name);
    EXPECT_NE(it, snap.counters.end()) << name;
    return it == snap.counters.end() ? 0 : it->second;
  };

  // replay.*: the sum over shards and each shard's {AETS.s<i>} series.
  using StatField = std::atomic<uint64_t> ReplayStats::*;
  const std::vector<std::pair<std::string, StatField>> replay = {
      {"replay.epochs_applied", &ReplayStats::epochs},
      {"replay.txns_applied", &ReplayStats::txns},
      {"replay.records_applied", &ReplayStats::records},
      {"replay.bytes_applied", &ReplayStats::bytes},
      {"replay.heartbeats_applied", &ReplayStats::heartbeats},
      {"replay.epochs_retried", &ReplayStats::epochs_retried},
      {"replay.epochs_duplicate_dropped", &ReplayStats::duplicates_dropped},
      {"replay.epochs_corrupt_dropped", &ReplayStats::corrupt_dropped}};
  for (const auto& [name, field] : replay) {
    uint64_t sum = 0;
    for (int s = 0; s < kShards; ++s) {
      const uint64_t v = (backup->shard(s)->stats().*field).load();
      EXPECT_EQ(series(name + "{AETS.s" + std::to_string(s) + "}"), v)
          << name << " shard " << s;
      sum += v;
    }
    EXPECT_EQ(series(name), sum) << name;
  }
  // The facade's aggregate is the same sum.
  EXPECT_EQ(series("replay.txns_applied"), backup->stats().txns.load());

  // shipper.* and segment.*: accessor sums, and per-lane {lane<i>} series.
  EXPECT_GT(shipper.heartbeats_shipped(), 0u);
  EXPECT_EQ(series("shipper.epochs_shipped"), shipper.epochs_shipped());
  EXPECT_EQ(series("shipper.heartbeats_shipped"), shipper.heartbeats_shipped());
  EXPECT_EQ(series("shipper.epochs_produced"), shipper.epochs_produced());
  EXPECT_EQ(series("shipper.epochs_dropped"), shipper.epochs_dropped());
  EXPECT_EQ(series("shipper.send_failures"), shipper.send_failures());
  EXPECT_EQ(series("shipper.retransmits"), shipper.retransmits());
  EXPECT_EQ(series("segment.spills"), shipper.epochs_spilled());
  EXPECT_EQ(series("segment.spill_failures"), shipper.spill_failures());
  EXPECT_EQ(series("segment.spills_below_floor"),
            shipper.spills_below_floor());
  EXPECT_EQ(series("segment.budget_triggers"), shipper.budget_triggers());
  for (int s = 0; s < kShards; ++s) {
    const std::string lane = "{lane" + std::to_string(s) + "}";
    EXPECT_EQ(series("shipper.epochs_shipped" + lane),
              shipper.shard_shipped(s));
    EXPECT_EQ(series("shipper.epochs_produced" + lane),
              shipper.shard_produced(s));
    EXPECT_EQ(series("shipper.epochs_dropped" + lane),
              shipper.shard_dropped(s));
    EXPECT_EQ(series("segment.spills" + lane), shipper.shard_spilled(s));
  }

  // fault.*: summed over the three links.
  uint64_t drops = 0, duplicates = 0, reorders = 0, corruptions = 0,
           delays = 0;
  for (const auto& ch : channels) {
    drops += ch->drops();
    duplicates += ch->duplicates();
    reorders += ch->reorders();
    corruptions += ch->corruptions();
    delays += ch->delays();
  }
  EXPECT_GT(drops + duplicates + reorders + corruptions, 0u);
  EXPECT_EQ(series("fault.drops"), drops);
  EXPECT_EQ(series("fault.duplicates"), duplicates);
  EXPECT_EQ(series("fault.reorders"), reorders);
  EXPECT_EQ(series("fault.corruptions"), corruptions);
  EXPECT_EQ(series("fault.delays"), delays);
}

TEST(ShardedBackupTest, StalledShardBoundsGlobalSafeTimestamp) {
  constexpr int kTables = 4;
  constexpr int kShards = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  ShardMap map = ShardMap::Hash(kTables, kShards);
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/16);
  shipper.SetShardMap(&map);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  // Build the shards by hand so shard 0 gets a blocking commit hook: its
  // first epoch commits, then every later commit parks on a gate.
  std::vector<std::unique_ptr<EpochChannel>> channels;
  std::vector<std::unique_ptr<Replayer>> replayers;
  for (int s = 0; s < kShards; ++s) {
    channels.push_back(std::make_unique<EpochChannel>(0));
    shipper.AttachShardChannel(s, channels.back().get());
    AetsOptions options;
    options.name = "stall.s" + std::to_string(s);
    options.replay_threads = 2;
    options.commit_threads = 1;
    options.grouping = GroupingMode::kPerTable;
    replayers.push_back(std::make_unique<AetsReplayer>(
        catalog.get(), channels.back().get(), options));
  }
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool released = false;
  int commits_seen = 0;
  auto* stalled = dynamic_cast<ReplayerBase*>(replayers[0].get());
  ASSERT_NE(stalled, nullptr);
  stalled->SetCommitHookForTest([&](const ShippedEpoch&) {
    std::unique_lock<std::mutex> lk(gate_mu);
    if (++commits_seen >= 2) gate_cv.wait(lk, [&] { return released; });
  });

  ShardedBackup backup(&map, std::move(replayers));
  ASSERT_TRUE(backup.Start().ok());

  RunRandomWorkload(&db, kTables, 400, test::DeriveSeed(55));
  Timestamp final_ts = db.last_commit_ts();
  shipper.Finish();

  // The healthy shard drains everything; the stalled shard is stuck after
  // its first epoch.
  ASSERT_TRUE(WaitFor([&] { return backup.shard(1)->GlobalVisibleTs() ==
                                   final_ts; }))
      << "healthy shard never converged";
  // Read the stalled watermark only once shard 0 is parked at the gate: its
  // first epoch has then fully applied, and nothing moves it until release.
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lk(gate_mu);
    return commits_seen >= 2;
  })) << "stalled shard never reached the gate";
  Timestamp stalled_wm = backup.shard(0)->GlobalVisibleTs();
  EXPECT_LT(stalled_wm, final_ts);

  // The headline guarantee: the global safe timestamp tracks the SLOWEST
  // shard, not the freshest — repeatedly, while the stall persists.
  for (int i = 0; i < 50; ++i) {
    Timestamp safe = backup.coordinator().GlobalSafeTimestamp();
    EXPECT_LE(safe, backup.shard(0)->GlobalVisibleTs());
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(backup.coordinator().GlobalSafeTimestamp(), stalled_wm);
  EXPECT_EQ(backup.GlobalVisibleTs(), stalled_wm);
  // The stall is observable: shard 0 lags, shard 1 does not.
  EXPECT_GT(obs::GetGauge("shard.0.watermark_lag")->value(), 0);
  EXPECT_EQ(obs::GetGauge("shard.1.watermark_lag")->value(), 0);
  // The healthy shard itself is NOT dragged down — only the cross-shard
  // frontier is. (Through the facade a single-shard query would still gate
  // on the coordinator minimum.)
  for (TableId t = 0; t < kTables; ++t) {
    if (map.shard_of(t) == 1) {
      EXPECT_TRUE(IsVisible(*backup.shard(1), {t}, final_ts));
    }
  }
  // A snapshot pinned during the stall is bounded by the stalled shard.
  {
    SnapshotHandle snap = backup.coordinator().AcquireSnapshot();
    EXPECT_EQ(snap.ts(), stalled_wm);
  }

  // Release the gate: the stalled shard catches up and the global frontier
  // converges to the primary's last commit.
  {
    std::lock_guard<std::mutex> lk(gate_mu);
    released = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(WaitFor([&] {
    return backup.coordinator().GlobalSafeTimestamp() == final_ts;
  })) << "stalled shard never caught up after release";
  backup.Stop();

  for (TableId t = 0; t < kTables; ++t) {
    EXPECT_EQ(backup.StoreForTable(t)->GetTable(t)->DigestAt(final_ts),
              db.store().GetTable(t)->DigestAt(final_ts))
        << "table " << t;
  }
}

TEST(ShardedBackupTest, LatchedShardFreezesGlobalFrontier) {
  // A shard that dies (sticky error) behaves like a permanent stall: the
  // global safe timestamp freezes at the failure point instead of serving
  // torn cross-shard reads, while healthy shards keep their own tables
  // fresh.
  constexpr int kTables = 4;
  constexpr int kShards = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  ShardMap map = ShardMap::Hash(kTables, kShards);
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/16, /*retention_capacity=*/4);
  shipper.SetShardMap(&map);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  // Shard 0's link silently eats every epoch after the first two, with no
  // NACK source attached and a tiny retention window: recovery is
  // impossible and the shard latches a terminal error.
  std::vector<std::unique_ptr<EpochChannel>> channels;
  std::vector<EpochChannel*> raw;
  for (int s = 0; s < kShards; ++s) {
    channels.push_back(std::make_unique<EpochChannel>(0));
    raw.push_back(channels.back().get());
  }
  shipper.AttachShardChannel(1, raw[1]);
  EpochChannel tap(0);
  shipper.AttachShardChannel(0, &tap);

  auto backup = MakeAetsBackup(catalog.get(), &map, raw, kTables);
  auto* shard0 = dynamic_cast<ReplayerBase*>(backup->shard(0));
  ASSERT_NE(shard0, nullptr);
  shard0->SetRecoveryOptions(FastRecovery());
  ASSERT_TRUE(backup->Start().ok());

  RunRandomWorkload(&db, kTables, 300, test::DeriveSeed(66));
  shipper.Finish();
  // Forward only the first two epochs to shard 0, then a gap it can never
  // close (the retention window is long gone for the missing ids).
  size_t forwarded = 0;
  std::vector<ShippedEpoch> held;
  while (auto e = tap.TryReceive()) {
    if (forwarded < 2) {
      ASSERT_TRUE(raw[0]->Send(std::move(*e)));
      ++forwarded;
    } else {
      held.push_back(std::move(*e));
    }
  }
  ASSERT_GT(held.size(), 2u);
  ASSERT_TRUE(raw[0]->Send(held.back()));  // reveal the gap
  raw[0]->Close();
  backup->Stop();

  EXPECT_FALSE(shard0->error().ok());
  EXPECT_TRUE(backup->shard(1)->error().ok())
      << backup->shard(1)->error().ToString();
  EXPECT_EQ(backup->error().ToString(), shard0->error().ToString());

  Timestamp final_ts = db.last_commit_ts();
  Timestamp safe = backup->coordinator().GlobalSafeTimestamp();
  EXPECT_LT(safe, final_ts);
  EXPECT_LE(safe, backup->shard(0)->GlobalVisibleTs());
  // Healthy shard's tables stayed fresh and correct.
  for (TableId t = 0; t < kTables; ++t) {
    if (map.shard_of(t) != 1) continue;
    EXPECT_TRUE(IsVisible(*backup->shard(1), {t}, final_ts));
    EXPECT_EQ(backup->StoreForTable(t)->GetTable(t)->DigestAt(final_ts),
              db.store().GetTable(t)->DigestAt(final_ts))
        << "table " << t;
  }
}

TEST(ShardedBackupTest, SingleShardFacadeIsTransparent) {
  // N=1 through the facade behaves exactly like the bare replayer: same
  // digests, same watermarks, name reflects the wrapping.
  constexpr int kTables = 3;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  ShardMap map = ShardMap::Hash(kTables, 1);
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/16);
  shipper.SetShardMap(&map);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  EpochChannel channel(1024);
  shipper.AttachShardChannel(0, &channel);

  std::vector<std::unique_ptr<Replayer>> shards;
  shards.push_back(std::make_unique<SerialReplayer>(catalog.get(), &channel));
  ShardedBackup backup(&map, std::move(shards));
  EXPECT_NE(backup.name().find("Sharded["), std::string::npos);
  ASSERT_TRUE(backup.Start().ok());
  RunRandomWorkload(&db, kTables, 200, test::DeriveSeed(12));
  shipper.Finish();
  backup.Stop();

  Timestamp final_ts = db.last_commit_ts();
  EXPECT_EQ(backup.GlobalVisibleTs(), final_ts);
  EXPECT_EQ(backup.store()->DigestAt(final_ts), db.store().DigestAt(final_ts));
  EXPECT_EQ(backup.stats().txns.load(), 200u);
  ExpectConserved(shipper);
}

TEST(ShardedBackupTest, WaitVisibleWakesOnAnyShardAdvance) {
  // Table 0 lives on shard 0, table 1 on shard 1. A query parked on the
  // facade must wake when only one shard moves: first the lagging shard's
  // per-table watermark, then the coordinator minimum over the shards'
  // global watermarks.
  ShardMap map = ShardMap::Hash(2, 2);
  std::vector<std::unique_ptr<Replayer>> shards;
  shards.push_back(std::make_unique<test::FakeReplayer>(2));
  shards.push_back(std::make_unique<test::FakeReplayer>(2));
  auto* s0 = static_cast<test::FakeReplayer*>(shards[0].get());
  auto* s1 = static_cast<test::FakeReplayer*>(shards[1].get());
  ShardedBackup backup(&map, std::move(shards));

  auto wait_until_published = [&](Timestamp qts,
                                   const std::function<void()>& publish) {
    std::atomic<bool> published{false};
    std::thread publisher([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      published.store(true, std::memory_order_release);
      publish();
    });
    WaitVisible(backup, {0, 1}, qts);
    EXPECT_TRUE(published.load(std::memory_order_acquire));
    publisher.join();
    EXPECT_TRUE(IsVisible(backup, {0, 1}, qts));
  };

  s0->SetTable(0, 50);
  s1->SetTable(1, 10);
  wait_until_published(50, [&] { s1->SetTable(1, 50); });

  s0->SetGlobal(80);
  s1->SetGlobal(60);
  EXPECT_EQ(backup.GlobalVisibleTs(), 60u);
  wait_until_published(80, [&] { s1->SetGlobal(80); });
  EXPECT_EQ(backup.TableVisibleTs(0), 50u);  // only the frontier moved
  EXPECT_EQ(backup.TableVisibleTs(1), 50u);
}

TEST(ShardedBackupTest, StatsSumEveryCounterAcrossShards) {
  // Every counter sums over the shards; the wall marks span the earliest
  // start and the latest end.
  ShardMap map = ShardMap::Hash(2, 2);
  std::vector<std::unique_ptr<Replayer>> shards;
  shards.push_back(std::make_unique<test::FakeReplayer>(2));
  shards.push_back(std::make_unique<test::FakeReplayer>(2));
  ReplayStats& a = static_cast<test::FakeReplayer*>(shards[0].get())
                       ->mutable_stats();
  ReplayStats& b = static_cast<test::FakeReplayer*>(shards[1].get())
                       ->mutable_stats();
  a.epochs = 3;
  b.epochs = 4;
  a.sync_wait_ns = 10;
  b.sync_wait_ns = 20;
  a.commit_waits = 5;
  b.commit_waits = 6;
  a.conflict_retries = 7;
  b.conflict_retries = 8;
  a.wall_start_us = 100;
  b.wall_start_us = 50;
  a.wall_end_us = 400;
  b.wall_end_us = 300;
  ShardedBackup backup(&map, std::move(shards));
  const ReplayStats& sum = backup.stats();
  EXPECT_EQ(sum.epochs.load(), 7u);
  EXPECT_EQ(sum.sync_wait_ns.load(), 30);
  EXPECT_EQ(sum.commit_waits.load(), 11u);
  EXPECT_EQ(sum.conflict_retries.load(), 15u);
  EXPECT_EQ(sum.wall_start_us.load(), 50);
  EXPECT_EQ(sum.wall_end_us.load(), 400);
}

// ---------------------------------------------------------------------------
// BackupNode

std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectPrimaryDigest(BackupNode* node, const Catalog* catalog,
                         const PrimaryDb& db) {
  ASSERT_TRUE(node->backup().error().ok())
      << node->backup().error().ToString();
  // A trailing heartbeat may carry the watermark past the last commit.
  Timestamp final_ts = db.last_commit_ts();
  EXPECT_GE(node->backup().GlobalVisibleTs(), final_ts);
  EXPECT_EQ(ReplicaDigestAt(&node->backup(), catalog, final_ts),
            db.store().DigestAt(final_ts));
}

TEST(BackupNodeTest, InProcessNodeMatchesPrimary) {
  constexpr int kTables = 5;
  for (int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
    LogicalClock clock;
    PrimaryDb db(catalog.get(), &clock);
    LogShipper shipper(/*epoch_size=*/16);
    BackupNodeOptions options;
    options.shards = shards;
    auto node = BackupNode::Attach(catalog.get(), options, &shipper);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    EXPECT_EQ((*node)->num_lanes(), shards);
    EXPECT_EQ((*node)->store(0), nullptr);  // no dir: in memory
    db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
    RunRandomWorkload(&db, kTables, 400,
                      test::DeriveSeed(1201u + static_cast<uint64_t>(shards)));
    (*node)->Stop();  // finishes the shipper
    EXPECT_TRUE(shipper.finished());
    ExpectPrimaryDigest(node->get(), catalog.get(), db);
    EXPECT_GT((*node)->backup().stats().txns.load(), 0u);
    ExpectConserved(shipper);
  }
}

TEST(BackupNodeTest, RecoversEachLaneFromItsMidStreamCheckpoint) {
  // A dir-backed node images every lane mid-stream and stops; a second node
  // over the same directory restarts each lane from its image (not cold)
  // and replays the durable tail to the primary's digest.
  constexpr int kTables = 5;
  constexpr int kShards = 2;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/16, /*retention_capacity=*/8);
  BackupNodeOptions options;
  options.shards = kShards;
  options.dir = FreshDir("backup_node_recover");
  auto first = BackupNode::Attach(catalog.get(), options, &shipper);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  RunRandomWorkload(&db, kTables, 300, test::DeriveSeed(1301));
  shipper.FlushEpoch();
  std::vector<EpochId> floors;
  for (int k = 0; k < kShards; ++k) {
    Result<EpochId> floor = (*first)->Checkpoint(k, db.last_commit_ts());
    ASSERT_TRUE(floor.ok()) << floor.status().ToString();
    EXPECT_GT(*floor, 0u);
    floors.push_back(*floor);
    EXPECT_TRUE(std::filesystem::exists(
        CheckpointPathFor(options.dir + "/shard" + std::to_string(k), *floor)));
  }
  RunRandomWorkload(&db, kTables, 300, test::DeriveSeed(1302));
  (*first)->Stop();
  ExpectPrimaryDigest(first->get(), catalog.get(), db);
  first->reset();

  auto second = BackupNode::Recover(catalog.get(), options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  for (int k = 0; k < kShards; ++k) {
    EXPECT_FALSE((*second)->restart(k).image.empty()) << "lane " << k;
    EXPECT_EQ((*second)->restart(k).next_epoch, floors[static_cast<size_t>(k)]);
    EXPECT_NE((*second)->restart_ts(k), kInvalidTimestamp);
  }
  (*second)->Stop();
  ExpectPrimaryDigest(second->get(), catalog.get(), db);
  uint64_t fetches = 0;
  for (int k = 0; k < kShards; ++k) {
    fetches += (*second)->store(k)->fetches_from_disk();
  }
  EXPECT_GT(fetches, 0u);  // the tail came off the disk
}

TEST(BackupNodeTest, TcpNodeServesQueriesAndMatchesPrimary) {
  constexpr int kTables = 4;
  std::unique_ptr<Catalog> catalog(MakeCatalog(kTables));
  LogicalClock clock;
  PrimaryDb db(catalog.get(), &clock);
  LogShipper shipper(/*epoch_size=*/16, /*retention_capacity=*/1u << 16);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
  net::EpochStreamServer server(&shipper);
  ASSERT_TRUE(server.Start(0).ok());

  auto node = BackupNode::Connect(catalog.get(), BackupNodeOptions{},
                                  "127.0.0.1", server.port());
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  ASSERT_TRUE((*node)->ServeQueries(0).ok());
  RunRandomWorkload(&db, kTables, 400, test::DeriveSeed(1401));
  shipper.ShipHeartbeat(db.AcquireHeartbeatTs());
  shipper.Finish();
  ASSERT_TRUE((*node)->WaitStreamEnd(/*timeout_ms=*/30'000));
  const Timestamp final_ts = db.last_commit_ts();
  ShardedBackup& backup = (*node)->backup();
  backup.bell().WaitUntil([&] {
    return !backup.error().ok() || backup.GlobalVisibleTs() >= final_ts;
  });

  Result<net::QueryClient> client =
      net::QueryClient::Connect("127.0.0.1", (*node)->query_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<net::QueryClient::ScanResult> scan = client->Scan(0, final_ts);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_FALSE(scan->busy);
  EXPECT_EQ(scan->pinned_ts, final_ts);
  EXPECT_EQ(scan->digest, db.store().GetTable(0)->DigestAt(final_ts));
  EXPECT_EQ(scan->row_count, db.store().GetTable(0)->VisibleRowCount(final_ts));

  (*node)->Stop();
  EXPECT_GT((*node)->epochs_received(), 0u);
  ExpectPrimaryDigest(node->get(), catalog.get(), db);
  server.Stop();
}

}  // namespace
}  // namespace aets
