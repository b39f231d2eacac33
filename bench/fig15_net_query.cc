// Network-tier serving benchmark (DESIGN.md §12): a closed-loop multi-client
// driver measuring snapshot-query latency against a live backup while epoch
// replay runs at FULL rate underneath — the HTAP claim of the paper carried
// across a real TCP hop.
//
// One process, two real localhost TCP paths:
//   primary thread -> LogShipper -> EpochStreamServer ==tcp==> a one-lane
//   BackupNode (subscriber, AETS replayer, TCP NACK source), and N
//   QueryClient threads ==tcp==> the node's QueryServer, each issuing
//   back-to-back snapshot scans until the writer finishes. Reports
//   per-client-count rows:
//
//   clients  queries     qps   p50_us   p95_us   p99_us  busy  replay_ktps
//
// The check the CI sweep cares about: at >= 64 concurrent connections the
// query path still answers (p99 finite, zero errors) and replay throughput
// is not starved by the serving tier.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aets/bench/harness.h"
#include "aets/common/histogram.h"
#include "aets/net/epoch_stream.h"
#include "aets/net/query_server.h"
#include "aets/node/backup_node.h"
#include "aets/primary/primary_db.h"
#include "aets/replication/log_shipper.h"

namespace aets {
namespace {

constexpr int kNumTables = 8;

void FillCatalog(Catalog* catalog) {
  for (int t = 0; t < kNumTables; ++t) {
    AETS_CHECK(catalog
                   ->RegisterTable("t" + std::to_string(t),
                                   Schema::Of({{"count", ColumnType::kInt64},
                                               {"payload", ColumnType::kString}}))
                   .ok());
  }
}

struct RunResult {
  uint64_t queries = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;
  double qps = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  double replay_ktps = 0;
};

RunResult RunOnce(int clients, uint64_t txns, uint64_t seed) {
  Catalog catalog;
  FillCatalog(&catalog);
  LogicalClock clock;
  PrimaryDb primary(&catalog, &clock);
  LogShipper shipper(/*epoch_size=*/64, /*retention_capacity=*/1u << 16);
  primary.SetCommitSink(
      [&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  net::EpochStreamServer stream_server(&shipper);
  AETS_CHECK(stream_server.Start(0).ok());
  auto started = BackupNode::Connect(&catalog, BackupNodeOptions{},
                                     "127.0.0.1", stream_server.port());
  AETS_CHECK_MSG(started.ok(), started.status().ToString().c_str());
  std::unique_ptr<BackupNode> node = std::move(started).value();
  net::QueryServerOptions qopts;
  qopts.max_sessions = clients;
  qopts.admission_queue = static_cast<size_t>(clients);
  AETS_CHECK(node->ServeQueries(0, qopts).ok());
  const uint16_t query_port = node->query_port();

  // Closed loop: each client thread holds one connection and issues
  // back-to-back scans until the writer is done.
  std::atomic<bool> done{false};
  std::vector<std::unique_ptr<Histogram>> lat;
  std::vector<uint64_t> busy(static_cast<size_t>(clients), 0);
  std::vector<uint64_t> errors(static_cast<size_t>(clients), 0);
  for (int c = 0; c < clients; ++c) lat.push_back(std::make_unique<Histogram>());
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + static_cast<uint64_t>(c));
      auto client = net::QueryClient::Connect("127.0.0.1", query_port);
      if (!client.ok()) {
        errors[static_cast<size_t>(c)] += 1;
        return;
      }
      while (!done.load(std::memory_order_acquire)) {
        TableId table =
            static_cast<TableId>(rng.UniformInt(0, kNumTables - 1));
        int64_t start = MonotonicMicros();
        auto scan = client->Scan(table);
        if (!scan.ok()) {
          // Counted, then the loop retries on a fresh connection — in the
          // closed loop the only expected failure is teardown racing Stop.
          errors[static_cast<size_t>(c)] += 1;
          client = net::QueryClient::Connect("127.0.0.1", query_port);
          if (!client.ok()) return;
          continue;
        }
        if (scan->busy) {
          busy[static_cast<size_t>(c)] += 1;
          client = net::QueryClient::Connect("127.0.0.1", query_port);
          if (!client.ok()) return;
          continue;
        }
        lat[static_cast<size_t>(c)]->Record(MonotonicMicros() - start);
      }
    });
  }

  // The writer: full rate, no pacing. Heartbeats keep the queryable
  // frontier moving between epoch seals.
  Rng rng(seed);
  int64_t write_start = MonotonicMicros();
  for (uint64_t i = 1; i <= txns; ++i) {
    PrimaryTxn txn = primary.Begin();
    TableId t = static_cast<TableId>(rng.UniformInt(0, kNumTables - 1));
    int64_t key = rng.UniformInt(0, 499);
    txn.Insert(t, key,
               {{0, Value(static_cast<int64_t>(i))},
                {1, Value(rng.AlphaString(8, 24))}});
    AETS_CHECK(primary.Commit(std::move(txn)).ok());
    if (i % 512 == 0) shipper.ShipHeartbeat(primary.AcquireHeartbeatTs());
  }
  shipper.ShipHeartbeat(primary.AcquireHeartbeatTs());
  shipper.Finish();
  double write_secs =
      static_cast<double>(MonotonicMicros() - write_start) / 1e6;

  done.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  AETS_CHECK(node->WaitStreamEnd(/*timeout_ms=*/60'000));
  node->Stop();
  AETS_CHECK(node->backup().error().ok());
  Timestamp final_ts = primary.last_commit_ts();
  AETS_CHECK(ReplicaDigestAt(&node->backup(), &catalog, final_ts) ==
             primary.store().DigestAt(final_ts));
  stream_server.Stop();

  Histogram merged;
  RunResult result;
  for (int c = 0; c < clients; ++c) {
    merged.Merge(*lat[static_cast<size_t>(c)]);
    result.busy += busy[static_cast<size_t>(c)];
    result.errors += errors[static_cast<size_t>(c)];
  }
  Histogram::Stats stats = merged.SnapshotStats();
  result.queries = static_cast<uint64_t>(stats.count);
  result.qps = write_secs > 0 ? static_cast<double>(stats.count) / write_secs
                              : 0;
  result.p50 = stats.p50;
  result.p95 = stats.p95;
  result.p99 = stats.p99;
  result.replay_ktps =
      write_secs > 0 ? static_cast<double>(txns) / write_secs / 1e3 : 0;
  return result;
}

void Run() {
  const uint64_t txns = Scaled(60000, 4000);
  std::printf("Fig 15: snapshot-query latency over TCP vs client count "
              "(%" PRIu64 " txns replayed at full rate per row)\n",
              txns);
  std::printf("%8s %9s %9s %9s %9s %9s %6s %6s %12s\n", "clients", "queries",
              "qps", "p50_us", "p95_us", "p99_us", "busy", "errs",
              "replay_ktps");
  for (int clients : {1, 8, 32, 64, 96}) {
    RunResult r = RunOnce(clients, txns, /*seed=*/29 + clients);
    std::printf("%8d %9" PRIu64 " %9.0f %9.0f %9.0f %9.0f %6" PRIu64
                " %6" PRIu64 " %12.1f\n",
                clients, r.queries, r.qps, r.p50, r.p95, r.p99, r.busy,
                r.errors, r.replay_ktps);
    std::fflush(stdout);
    AETS_CHECK(r.queries > 0);
  }
}

}  // namespace
}  // namespace aets

int main() {
  aets::Run();
  return 0;
}
