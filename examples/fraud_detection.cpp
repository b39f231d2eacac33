// Fraud detection on a live TPC-C payment stream — the paper's motivating
// scenario: a real-time model scores recent payments and needs maximum data
// freshness on a handful of hot tables, while bulky order traffic floods the
// log. AETS's two-stage replay keeps the fraud queries' tables (customer,
// history via the payment path) visible with low delay even though most log
// volume lands elsewhere.
//
//   $ ./fraud_detection

#include <cstdio>

#include "aets/replay/aets_replayer.h"
#include "aets/replication/log_shipper.h"
#include "aets/workload/driver.h"
#include "aets/workload/tpcc.h"

using namespace aets;

int main() {
  TpccConfig config;
  config.warehouses = 1;
  config.items = 200;
  config.customers_per_district = 30;
  TpccWorkload tpcc(config);

  LogicalClock clock;
  PrimaryDb primary(&tpcc.catalog(), &clock);
  LogShipper shipper(/*epoch_size=*/128);
  EpochChannel channel;
  shipper.AttachChannel(&channel);
  primary.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  Rng rng(2024);
  std::printf("loading TPC-C (1 warehouse)...\n");
  tpcc.Load(&primary, &rng);
  shipper.StartHeartbeats([&primary] { return primary.AcquireHeartbeatTs(); });

  // The fraud model reads customer balances and payment history: make those
  // the first-class group; everything else is second-class.
  AetsOptions options;
  options.replay_threads = 2;
  options.grouping = GroupingMode::kStatic;
  options.static_hot_groups = {{tpcc.customer(), tpcc.history()}};
  options.initial_rates = std::vector<double>(tpcc.catalog().num_tables(), 0.0);
  options.initial_rates[tpcc.customer()] = 500;
  options.initial_rates[tpcc.history()] = 500;
  AetsReplayer backup(&tpcc.catalog(), &channel, options);
  if (!backup.Start().ok()) return 1;

  // OLTP in the background: payments (fraud-relevant) buried in order
  // traffic.
  OltpDriver oltp(&tpcc, &primary, 7);
  oltp.Start(/*num_txns=*/5000);

  // The fraud scorer: every few milliseconds, snapshot "now", wait for the
  // hot tables only, and scan recent balances for anomalies.
  Histogram freshness;
  int alerts = 0;
  for (int round = 0; round < 200; ++round) {
    Timestamp qts = clock.Now();
    freshness.Record(WaitVisible(backup, {tpcc.customer(), tpcc.history()}, qts));
    // "Model": flag customers whose balance fell below -4000.
    backup.store()->GetTable(tpcc.customer())
        ->ScanVisible(qts, [&](int64_t, const Row& row) {
          auto it = row.find(3);  // c_balance
          if (it != row.end() && it->second.is_double() &&
              it->second.as_double() < -4000.0) {
            ++alerts;
          }
          return true;
        });
  }

  oltp.Join();
  shipper.Finish();
  backup.Stop();

  std::printf("scored 200 rounds; %d balance alerts\n", alerts);
  std::printf("hot-table visibility wait per round: %s\n",
              freshness.Summary().c_str());
  const bool same = backup.store()->DigestAt(primary.last_commit_ts()) ==
                    primary.store().DigestAt(primary.last_commit_ts());
  std::printf("backup replayed %llu txns, state %s\n",
              static_cast<unsigned long long>(backup.stats().txns.load()),
              same ? "== primary" : "MISMATCH");
  return same ? 0 : 1;
}
