// The concurrent snapshot-query serving path (DESIGN.md §12): N client
// threads scanning over real sockets while replay advances underneath, every
// response checked EXACTLY against the ReferenceModel at its pinned
// timestamp; admission-control overflow shedding with kBusy; and slow-reader
// isolation — parked query clients must never stall epoch shipping or
// replay. Runs under the TSan CI job: the server's session pool, the replay
// thread, and the test's client threads all race here on purpose.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aets/baselines/serial_replayer.h"
#include "aets/common/rng.h"
#include "aets/net/frame_io.h"
#include "aets/net/query_server.h"
#include "aets/net/socket.h"
#include "aets/obs/metrics.h"
#include "aets/replay/aets_replayer.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/snapshot_coordinator.h"
#include "aets/replication/log_shipper.h"
#include "aets/sim/reference_model.h"
#include "test_seed.h"

namespace aets {
namespace net {
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
    int writes = static_cast<int>(rng.UniformInt(1, 5));
    for (int w = 0; w < writes; ++w) {
      TableId table = static_cast<TableId>(rng.UniformInt(0, num_tables - 1));
      int64_t key = rng.UniformInt(0, 149);
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

/// Primary + shipper + one serial backup + a tee channel recording the exact
/// epoch stream for the ReferenceModel. No GC runs, so every version stays
/// readable and any pinned timestamp can be re-checked after the fact.
struct QueryRig {
  explicit QueryRig(int num_tables, size_t epoch_size = 8)
      : num_tables(num_tables),
        catalog(MakeCatalog(num_tables)),
        db(catalog.get(), &clock),
        shipper(epoch_size, /*retention_capacity=*/4096),
        replay_channel(4096),
        tee(0),
        replayer(catalog.get(), &replay_channel) {
    shipper.AttachChannel(&replay_channel);
    shipper.AttachChannel(&tee);
    db.SetCommitSink([this](TxnLog txn) { shipper.OnCommit(std::move(txn)); });
    coordinator.AttachShard([this] { return replayer.GlobalVisibleTs(); });
  }

  /// Drains the tee into a fresh model; call after shipper.Finish().
  sim::ReferenceModel BuildModel() {
    sim::ReferenceModel model(static_cast<size_t>(num_tables));
    while (auto epoch = tee.TryReceive()) {
      AETS_CHECK(model.Apply(*epoch).ok());
    }
    return model;
  }

  int num_tables;
  std::unique_ptr<Catalog> catalog;
  LogicalClock clock;
  PrimaryDb db;
  LogShipper shipper;
  EpochChannel replay_channel;
  EpochChannel tee;
  SerialReplayer replayer;
  GlobalSnapshotCoordinator coordinator;
};

struct RecordedScan {
  TableId table = 0;
  Timestamp pinned_ts = 0;
  uint64_t digest = 0;
  uint64_t row_count = 0;
  std::map<int64_t, Row> rows;
};

TEST(QueryServerTest, ConcurrentScansAreExactAgainstTheReferenceModel) {
  constexpr int kTables = 3;
  constexpr int kClients = 6;
  QueryRig rig(kTables);
  ASSERT_TRUE(rig.replayer.Start().ok());

  QueryServerOptions options;
  options.max_sessions = kClients;
  options.admission_queue = 2 * kClients;
  options.io_timeout_ms = 5'000;
  QueryServer server(&rig.replayer, &rig.coordinator, options);
  ASSERT_TRUE(server.Start(0).ok());

  // The writer: commits in bursts with heartbeats in between, so the safe
  // frontier the queries pin keeps moving while they run.
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (int burst = 0; burst < 12; ++burst) {
      RunRandomWorkload(&rig.db, kTables, 50,
                        test::DeriveSeed(10 + static_cast<uint64_t>(burst)));
      rig.shipper.ShipHeartbeat(rig.db.AcquireHeartbeatTs());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::vector<RecordedScan>> recorded(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(test::DeriveSeed(100 + static_cast<uint64_t>(c)));
      Result<QueryClient> client =
          QueryClient::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      // Keep scanning until the writer finishes, then take one last scan so
      // every client also observes the final frontier.
      bool last_pass = false;
      while (!last_pass) {
        last_pass = writer_done.load(std::memory_order_acquire);
        TableId table =
            static_cast<TableId>(rng.UniformInt(0, kTables - 1));
        Result<QueryClient::ScanResult> scan =
            client->Scan(table, /*snapshot_ts=*/0, /*want_rows=*/true);
        ASSERT_TRUE(scan.ok()) << scan.status().ToString();
        ASSERT_FALSE(scan->busy);  // queue is sized for all clients
        RecordedScan record;
        record.table = table;
        record.pinned_ts = scan->pinned_ts;
        record.digest = scan->digest;
        record.row_count = scan->row_count;
        record.rows = std::move(scan->rows);
        recorded[static_cast<size_t>(c)].push_back(std::move(record));
      }
    });
  }

  writer.join();
  for (auto& thread : clients) thread.join();
  rig.shipper.Finish();
  rig.replayer.Stop();
  ASSERT_TRUE(rig.replayer.error().ok()) << rig.replayer.error().ToString();

  // Re-check every response against the reference executor at the exact
  // timestamp the server reported pinning.
  sim::ReferenceModel model = rig.BuildModel();
  size_t total = 0, nonempty_snapshots = 0;
  Timestamp max_pinned = 0;
  for (const auto& per_client : recorded) {
    total += per_client.size();
    for (const RecordedScan& scan : per_client) {
      if (scan.pinned_ts == 0) {
        // Served before the first heartbeat/commit was replayed.
        EXPECT_EQ(scan.row_count, 0u);
        EXPECT_TRUE(scan.rows.empty());
        continue;
      }
      ++nonempty_snapshots;
      max_pinned = std::max(max_pinned, scan.pinned_ts);
      std::map<int64_t, Row> expect = model.RowsAt(scan.table, scan.pinned_ts);
      ASSERT_EQ(scan.rows, expect)
          << "table " << scan.table << " pinned_ts " << scan.pinned_ts;
      EXPECT_EQ(scan.row_count, expect.size());
      EXPECT_EQ(scan.digest, rig.replayer.store()
                                 ->GetTable(scan.table)
                                 ->DigestAt(scan.pinned_ts));
    }
  }
  EXPECT_GE(total, static_cast<size_t>(kClients));
  EXPECT_GT(nonempty_snapshots, 0u);
  // The last pass ran after the writer finished, so the final frontier must
  // have been observed by someone.
  EXPECT_GT(max_pinned, 0u);
  EXPECT_EQ(server.queries_served(), total);
  EXPECT_EQ(server.admission_rejects(), 0u);

  server.Stop();
}

TEST(QueryServerTest, ExplicitSnapshotTsIsClampedToTheSafeFrontier) {
  QueryRig rig(/*num_tables=*/2);
  ASSERT_TRUE(rig.replayer.Start().ok());
  QueryServer server(&rig.replayer, &rig.coordinator);
  ASSERT_TRUE(server.Start(0).ok());

  RunRandomWorkload(&rig.db, 2, 120, test::DeriveSeed(20));
  Timestamp mid_ts = rig.db.last_commit_ts();
  RunRandomWorkload(&rig.db, 2, 120, test::DeriveSeed(21));
  rig.shipper.ShipHeartbeat(rig.db.AcquireHeartbeatTs());
  rig.shipper.Finish();
  rig.replayer.Stop();
  ASSERT_TRUE(rig.replayer.error().ok());
  Timestamp safe = rig.coordinator.GlobalSafeTimestamp();
  ASSERT_GT(safe, mid_ts);

  sim::ReferenceModel model = rig.BuildModel();
  Result<QueryClient> client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // A historical timestamp is honored exactly.
  Result<QueryClient::ScanResult> past = client->Scan(0, mid_ts, true);
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  EXPECT_EQ(past->pinned_ts, mid_ts);
  EXPECT_EQ(past->rows, model.RowsAt(0, mid_ts));

  // A future timestamp is clamped to the safe frontier, and the reply says
  // so — the client learns what snapshot it actually got.
  Result<QueryClient::ScanResult> future =
      client->Scan(0, safe + 1'000'000, true);
  ASSERT_TRUE(future.ok());
  EXPECT_EQ(future->pinned_ts, safe);
  EXPECT_EQ(future->rows, model.RowsAt(0, safe));

  server.Stop();
}

TEST(QueryServerTest, AdmissionOverflowShedsWithBusyInsteadOfQueueing) {
  QueryRig rig(/*num_tables=*/1);
  ASSERT_TRUE(rig.replayer.Start().ok());
  RunRandomWorkload(&rig.db, 1, 40, test::DeriveSeed(30));
  rig.shipper.ShipHeartbeat(rig.db.AcquireHeartbeatTs());

  QueryServerOptions options;
  options.max_sessions = 1;
  options.admission_queue = 1;
  options.io_timeout_ms = 5'000;
  QueryServer server(&rig.replayer, &rig.coordinator, options);
  ASSERT_TRUE(server.Start(0).ok());

  // A occupies the single session thread (sessions persist across queries).
  Result<QueryClient> a = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->Scan(0).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // B fills the admission queue (accepted, not yet claimed).
  Result<QueryClient> b = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(b.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // C finds house + queue full: it must get an immediate kBusy, not a stall
  // (shedding at the door is what keeps the accept loop live).
  Result<QueryClient> c = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c.ok());
  Result<QueryClient::ScanResult> shed = c->Scan(0);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_TRUE(shed->busy);
  EXPECT_GE(server.admission_rejects(), 1u);

  // Shedding never touched the replay side.
  rig.shipper.Finish();
  rig.replayer.Stop();
  EXPECT_TRUE(rig.replayer.error().ok());

  // Once A hangs up, B's queued connection gets the session and is served.
  std::thread b_scan([&] {
    Result<QueryClient::ScanResult> served = b->Scan(0);
    EXPECT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_FALSE(served->busy);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  a->Close();
  b_scan.join();

  server.Stop();
}

TEST(QueryServerTest, SlowReadersCannotStallReplayOrShipping) {
  QueryRig rig(/*num_tables=*/2);
  ASSERT_TRUE(rig.replayer.Start().ok());

  QueryServerOptions options;
  options.max_sessions = 2;
  options.admission_queue = 2;
  options.io_timeout_ms = 400;  // slow readers are evicted after this idle
  QueryServer server(&rig.replayer, &rig.coordinator, options);
  ASSERT_TRUE(server.Start(0).ok());

  // Two connections that never send (or read) anything: they pin BOTH
  // session threads until the idle deadline evicts them.
  Result<TcpSocket> slow1 = TcpSocket::Connect("127.0.0.1", server.port(), 1000);
  Result<TcpSocket> slow2 = TcpSocket::Connect("127.0.0.1", server.port(), 1000);
  ASSERT_TRUE(slow1.ok());
  ASSERT_TRUE(slow2.ok());

  // With every session slot wedged, shipping and replay must still run at
  // full rate — the query tier shares nothing with the replay path.
  RunRandomWorkload(&rig.db, 2, 300, test::DeriveSeed(40));
  rig.shipper.ShipHeartbeat(rig.db.AcquireHeartbeatTs());
  rig.shipper.Finish();
  rig.replayer.Stop();
  ASSERT_TRUE(rig.replayer.error().ok()) << rig.replayer.error().ToString();
  Timestamp final_ts = rig.db.last_commit_ts();
  EXPECT_EQ(rig.replayer.store()->DigestAt(final_ts),
            rig.db.store().DigestAt(final_ts));

  // A well-behaved client is served once the idle deadline frees a slot.
  Result<QueryClient> client =
      QueryClient::Connect("127.0.0.1", server.port(), /*io_timeout_ms=*/5000);
  ASSERT_TRUE(client.ok());
  Result<QueryClient::ScanResult> scan = client->Scan(0, 0, true);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->busy);
  sim::ReferenceModel model = rig.BuildModel();
  EXPECT_EQ(scan->rows, model.RowsAt(0, scan->pinned_ts));

  server.Stop();
}

// The bounded-pin guarantee (DESIGN.md §13): with a columnar projection,
// the server drops the GC pin as soon as the residual rows are copied out
// of the version chains — so a client that sends a query and then goes
// quiet for an arbitrary time cannot wedge the GC horizon, and a truncation
// racing the parked reader never corrupts the already-materialized reply.
TEST(QueryServerTest, SlowReaderDoesNotHoldTheGcPinUnderTruncation) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable("t0", Schema::Of({{"a", ColumnType::kInt64},
                                                   {"b", ColumnType::kString}}))
                  .ok());
  LogicalClock clock;
  PrimaryDb db(&catalog, &clock);
  LogShipper shipper(/*epoch_size=*/8, /*retention_capacity=*/4096);
  EpochChannel channel(4096);
  EpochChannel tee(0);
  shipper.AttachChannel(&channel);
  shipper.AttachChannel(&tee);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kPerTable;
  options.column_chunk_rows = 16;
  AetsReplayer backup(&catalog, &channel, options);
  GlobalSnapshotCoordinator coordinator;
  coordinator.AttachShard([&] { return backup.GlobalVisibleTs(); });
  // The backup stops replaying before it is queried, so a first query could
  // no longer seed the columns: project the table up front.
  ASSERT_NE(backup.column_store(), nullptr);
  backup.column_store()->Project(0);

  RunRandomWorkload(&db, 1, 200, test::DeriveSeed(60));
  shipper.ShipHeartbeat(db.AcquireHeartbeatTs());
  shipper.Finish();
  ASSERT_TRUE(backup.Start().ok());
  backup.Stop();
  ASSERT_TRUE(backup.error().ok()) << backup.error().ToString();
  ASSERT_NE(backup.ColumnStoreForTable(0)->PublishedTs(0), kInvalidTimestamp);
  obs::Counter* scanned = obs::GetCounter("column.rows_scanned");
  const uint64_t scanned_before = scanned->value();
  Timestamp safe = coordinator.GlobalSafeTimestamp();
  ASSERT_NE(safe, kInvalidTimestamp);

  QueryServer server(&backup, &coordinator);
  ASSERT_TRUE(server.Start(0).ok());

  // A raw client: send the query, then stop reading — the reply sits in
  // the socket while we inspect the coordinator from outside.
  Result<TcpSocket> slow = TcpSocket::Connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(slow.ok());
  QueryBody query;
  query.snapshot_ts = 0;
  query.table_id = 0;
  query.want_rows = true;
  std::string body;
  EncodeQueryBody(query, &body);
  ASSERT_TRUE(WriteFrame(&*slow, FrameType::kQuery, body, 5000).ok());

  // The pin must be gone once the query executed, NOT once the client got
  // around to reading its reply.
  for (int spin = 0; spin < 5000 && server.queries_served() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.queries_served(), 1u);
  EXPECT_EQ(coordinator.MinPinnedTs(), kInvalidTimestamp);
  EXPECT_EQ(coordinator.GcHorizon(), coordinator.GlobalSafeTimestamp());

  // GC pressure while the reader is still parked: truncate every version
  // chain at the full safe frontier. With the pin held this would be
  // blocked at the reply's snapshot; bounded pinning lets it run.
  backup.store()->GetTable(0)->GarbageCollect(coordinator.GcHorizon());

  // The parked reader finally drains its reply: still byte-exact at the
  // pinned snapshot, because it was materialized from immutable chunk data
  // before the pin was released.
  sim::ReferenceModel model(1);
  while (auto epoch = tee.TryReceive()) ASSERT_TRUE(model.Apply(*epoch).ok());
  FrameDecoder decoder;
  std::atomic<bool> never_stop{false};
  Frame reply;
  ASSERT_TRUE(
      ReadFrame(&*slow, &decoder, 5000, 5000, never_stop, &reply).ok());
  ASSERT_EQ(reply.type, FrameType::kQueryOk);
  Result<QueryReplyBody> decoded = DecodeQueryReplyBody(reply.body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->pinned_ts, safe);
  EXPECT_EQ(decoded->rows, model.RowsAt(0, safe));
  EXPECT_EQ(decoded->digest,
            backup.store()->GetTable(0)->DigestAt(safe));
  EXPECT_GT(scanned->value(), scanned_before);  // the columns answered

  server.Stop();
}

TEST(QueryServerTest, EmptyBackupServesAnEmptyExactSnapshot) {
  QueryRig rig(/*num_tables=*/1);
  ASSERT_TRUE(rig.replayer.Start().ok());
  QueryServer server(&rig.replayer, &rig.coordinator);
  ASSERT_TRUE(server.Start(0).ok());

  Result<QueryClient> client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Result<QueryClient::ScanResult> scan = client->Scan(0, 0, true);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->busy);
  EXPECT_EQ(scan->pinned_ts, 0u);
  EXPECT_EQ(scan->row_count, 0u);
  EXPECT_TRUE(scan->rows.empty());

  rig.shipper.Finish();
  rig.replayer.Stop();
  server.Stop();
}

TEST(QueryServerTest, UnknownTableGetsErrorAndTheSessionSurvives) {
  QueryRig rig(/*num_tables=*/1);
  ASSERT_TRUE(rig.replayer.Start().ok());
  RunRandomWorkload(&rig.db, 1, 40, test::DeriveSeed(50));
  rig.shipper.ShipHeartbeat(rig.db.AcquireHeartbeatTs());
  rig.shipper.Finish();
  rig.replayer.Stop();

  QueryServer server(&rig.replayer, &rig.coordinator);
  ASSERT_TRUE(server.Start(0).ok());
  Result<QueryClient> client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // A table id off the wire that the catalog never registered must be a
  // clean error (NOT the AETS_CHECK crash GetTable reserves for programmer
  // error)...
  Result<QueryClient::ScanResult> bad = client->Scan(/*table=*/99);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("no such table"), std::string::npos)
      << bad.status().ToString();

  // ...and the session keeps serving afterwards.
  Result<QueryClient::ScanResult> good = client->Scan(0);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_GT(good->row_count, 0u);

  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace aets
