// Reproduces paper Fig. 10: per-query visibility delay on CH-benCHmark
// (Q1..Q22) for AETS vs ATR vs C5, under the catch-up methodology: the
// replayer drains a recorded backlog while the 22 analytic queries arrive
// with snapshots spread over the commit range. Paper shapes: AETS below
// ATR/C5 for every query; per-query AETS delays close to one another because
// multi-group queries wait on the slowest group they touch (Algorithm 3).

#include <algorithm>
#include <cstdio>

#include "aets/bench/harness.h"
#include "aets/common/clock.h"
#include "aets/obs/metrics.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replication/channel.h"
#include "aets/workload/chbenchmark.h"
#include "aets/workload/query_exec.h"

namespace aets {
namespace {

void Run() {
  int threads = BenchThreads(4);
  TpccConfig config;
  config.warehouses = 2;
  config.items = 300;
  config.customers_per_district = 30;
  config.init_orders_per_district = 5;

  ChBenchmarkWorkload workload(config);
  std::printf("Fig 10: CH-benCHmark per-query visibility delay "
              "(22 queries, %d threads, per-table groups)\n",
              threads);

  // Per-table access rates derived from how many queries touch each table.
  std::vector<double> rates(workload.catalog().num_tables(), 0.0);
  for (const auto& q : workload.analytic_queries()) {
    for (TableId t : q.tables) rates[t] += 50.0;
  }

  RecordedLog log = RecordWorkload(&workload, Scaled(10000, 500),
                                   /*epoch_size=*/256, /*seed=*/77);
  CatchUpOptions options;
  options.queries = Scaled(2200, 220);  // ~100 arrivals per query template
  options.seed = 77;

  const ReplayerKind kinds[] = {ReplayerKind::kAets, ReplayerKind::kAtr,
                                ReplayerKind::kC5};
  std::vector<CatchUpResult> results;
  for (ReplayerKind kind : kinds) {
    ReplayerSpec spec;
    spec.kind = kind;
    spec.threads = threads;
    spec.grouping = GroupingMode::kPerTable;  // paper: each table own group
    spec.rates = rates;
    // Median of three repeats.
    std::vector<CatchUpResult> reps;
    for (int rep = 0; rep < 3; ++rep) {
      options.seed = 77 + static_cast<uint64_t>(rep);
      reps.push_back(RunCatchUp(log, &workload, spec, options));
      AETS_CHECK(reps.back().state_matches_primary);
    }
    std::sort(reps.begin(), reps.end(),
              [](const CatchUpResult& a, const CatchUpResult& b) {
                return a.mean_delay_us < b.mean_delay_us;
              });
    results.push_back(reps[1]);
  }

  TablePrinter table({"query", "AETS mean us", "ATR mean us", "C5 mean us"});
  for (size_t q = 0; q < workload.analytic_queries().size(); ++q) {
    std::vector<std::string> row = {workload.analytic_queries()[q].name};
    for (const auto& r : results) {
      row.push_back(q < r.per_query_mean_us.size()
                        ? TablePrinter::Fmt(r.per_query_mean_us[q], 1)
                        : "-");
    }
    table.AddRow(std::move(row));
  }
  table.Print();

  std::printf("overall mean visibility delay: ");
  for (const auto& r : results) {
    std::printf("%s=%.1fus ", r.name.c_str(), r.mean_delay_us);
  }
  std::printf("\n");

  // Variant (DESIGN.md §13): once the stream is visible, how fast is the
  // analytic side? Q1/Q6 over the replayed order_line at the final
  // snapshot, row-store version-chain walk vs the columnar projection.
  std::printf("\nFig 10 variant: OLAP scan path at the final snapshot "
              "(order_line)\n");
  EpochChannel channel(log.epochs.size() + 1);
  for (const auto& shipped : log.epochs) channel.Send(shipped);
  channel.Close();
  AetsOptions aets;
  aets.replay_threads = threads;
  aets.grouping = GroupingMode::kPerTable;
  AetsReplayer backup(&workload.catalog(), &channel, aets);
  // Replay stops before the first query, which therefore could not seed the
  // columns: project order_line up front.
  backup.column_store()->Project(workload.tpcc().orderline());
  AETS_CHECK(backup.Start().ok());
  backup.Stop();
  AETS_CHECK(backup.error().ok());

  obs::Counter* scanned = obs::GetCounter("column.rows_scanned");
  const uint64_t scanned_before = scanned->value();
  ChQueryExecutor row_exec(&workload, backup.store());
  ChQueryExecutor col_exec(&workload, backup.store(), backup.column_store());
  AETS_CHECK(row_exec.RunQ1(log.final_ts, INT64_MAX) ==
             col_exec.RunQ1(log.final_ts, INT64_MAX));
  AETS_CHECK(row_exec.RunQ6(log.final_ts, 1, 10) ==
             col_exec.RunQ6(log.final_ts, 1, 10));
  AETS_CHECK(scanned->value() > scanned_before);  // the columns answered
  auto time_us = [&](auto&& fn) {
    constexpr int kReps = 20;
    int64_t best = INT64_MAX;
    for (int rep = 0; rep < kReps; ++rep) {
      int64_t start = MonotonicMicros();
      fn();
      best = std::min(best, MonotonicMicros() - start);
    }
    return static_cast<double>(best);
  };
  double q1_row = time_us([&] { row_exec.RunQ1(log.final_ts, INT64_MAX); });
  double q1_col = time_us([&] { col_exec.RunQ1(log.final_ts, INT64_MAX); });
  double q6_row = time_us([&] { row_exec.RunQ6(log.final_ts, 1, 10); });
  double q6_col = time_us([&] { col_exec.RunQ6(log.final_ts, 1, 10); });
  TablePrinter scan({"query", "row-path us", "column us", "speedup"});
  scan.AddRow({"Q1", TablePrinter::Fmt(q1_row, 1), TablePrinter::Fmt(q1_col, 1),
               TablePrinter::Fmt(q1_row / q1_col, 1)});
  scan.AddRow({"Q6", TablePrinter::Fmt(q6_row, 1), TablePrinter::Fmt(q6_col, 1),
               TablePrinter::Fmt(q6_row / q6_col, 1)});
  scan.Print();
}

}  // namespace
}  // namespace aets

int main(int argc, char** argv) {
  aets::BenchInit(argc, argv);
  aets::Run();
  return 0;
}
