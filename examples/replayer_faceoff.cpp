// Replayer face-off: ships one identical CH-benCHmark log to four backup
// replayers (AETS, TPLR, ATR, C5) side by side, verifies every backup
// converges to the primary's exact state, and prints each algorithm's
// throughput and phase breakdown — a miniature of the paper's evaluation
// you can eyeball in seconds.
//
//   $ ./replayer_faceoff

#include <cstdio>

#include "aets/baselines/atr_replayer.h"
#include "aets/baselines/c5_replayer.h"
#include "aets/baselines/tplr_replayer.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replication/log_shipper.h"
#include "aets/workload/chbenchmark.h"
#include "aets/workload/driver.h"

using namespace aets;

int main() {
  TpccConfig config;
  config.warehouses = 1;
  config.items = 200;
  config.customers_per_district = 20;
  ChBenchmarkWorkload ch(config);

  LogicalClock clock;
  PrimaryDb primary(&ch.catalog(), &clock);
  LogShipper shipper(/*epoch_size=*/128);

  // Four backups, four channels: the shipper fans every epoch out to all.
  EpochChannel ch_aets, ch_tplr, ch_atr, ch_c5;
  for (EpochChannel* c : {&ch_aets, &ch_tplr, &ch_atr, &ch_c5}) {
    shipper.AttachChannel(c);
  }
  primary.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  Rng rng(1);
  std::printf("loading CH-benCHmark and running 3000 transactions...\n");
  ch.Load(&primary, &rng);

  std::vector<double> rates(ch.catalog().num_tables(), 0.0);
  for (const auto& q : ch.analytic_queries()) {
    for (TableId t : q.tables) rates[t] += 50;
  }
  AetsOptions aets_options;
  aets_options.replay_threads = 2;
  aets_options.grouping = GroupingMode::kPerTable;
  aets_options.initial_rates = rates;

  AetsReplayer aets(&ch.catalog(), &ch_aets, aets_options);
  auto tplr = MakeTplrReplayer(&ch.catalog(), &ch_tplr, 2);
  AtrReplayer atr(&ch.catalog(), &ch_atr, AtrOptions{2});
  C5Replayer c5(&ch.catalog(), &ch_c5, C5Options{2});
  std::vector<Replayer*> replayers = {&aets, tplr.get(), &atr, &c5};
  for (Replayer* r : replayers) {
    if (!r->Start().ok()) return 1;
  }

  OltpDriver oltp(&ch, &primary, 1);
  oltp.Run(3000);
  shipper.Finish();
  for (Replayer* r : replayers) r->Stop();

  Timestamp final_ts = primary.last_commit_ts();
  uint64_t truth = primary.store().DigestAt(final_ts);
  bool all_ok = true;
  std::printf("\n%-6s %12s %10s %10s %10s %8s\n", "name", "txn/s", "dispatch",
              "replay", "commit", "state");
  for (Replayer* r : replayers) {
    const ReplayStats& s = r->stats();
    const bool ok = r->store()->DigestAt(final_ts) == truth;
    all_ok = all_ok && ok;
    std::printf("%-6s %12.0f %9.1f%% %9.1f%% %9.1f%% %8s\n", r->name().c_str(),
                s.TxnsPerSec(), 100 * s.DispatchFraction(),
                100 * s.ReplayFraction(), 100 * s.CommitFraction(),
                ok ? "ok" : "BAD");
  }

  // One analytic query against each backup, same snapshot.
  const AnalyticQuery& q3 = ch.analytic_queries()[2];  // customer/orders/...
  std::printf("\nQ3 snapshot reads at ts=%llu:\n",
              static_cast<unsigned long long>(final_ts));
  for (Replayer* r : replayers) {
    int64_t wait = WaitVisible(*r, q3.tables, final_ts);
    size_t rows = r->store()->GetTable(ch.tpcc().orders())->VisibleRowCount(final_ts);
    std::printf("  %-6s waited %lld us, sees %zu orders\n", r->name().c_str(),
                static_cast<long long>(wait), rows);
  }
  return all_ok ? 0 : 1;
}
