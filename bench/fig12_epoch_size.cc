// Reproduces paper Fig. 12: effect of epoch size on average visibility
// delay (TPC-C). Paper shape: a U-curve — too-small epochs forfeit the
// two-stage prioritization (hot logs of the next epoch queue behind cold
// logs of this one) and pay per-epoch overhead; too-large epochs wait to
// assemble enough transactions before anything becomes visible. The paper's
// minimum sits near 2048; with the scaled-down transaction counts here the
// minimum lands at a proportionally smaller size.
//
// A second table sweeps the shipper's age bound at a large epoch size: the
// age seal caps the assembly wait however slowly epochs fill, and its cost
// is more, smaller epochs — the lag/throughput trade of sealing on age.

#include <cstdio>

#include "aets/bench/harness.h"
#include "aets/workload/tpcc.h"

namespace aets {
namespace {

void Run() {
  int threads = BenchThreads(4);
  TpccConfig config;
  config.warehouses = 2;
  config.items = 400;
  config.customers_per_district = 40;
  config.init_orders_per_district = 10;

  TpccWorkload shape(config);
  std::vector<double> rates(shape.catalog().num_tables(), 0.0);
  rates[shape.district()] = 100;
  rates[shape.stock()] = 100;
  rates[shape.customer()] = 100;
  rates[shape.orders()] = 100;
  rates[shape.orderline()] = 200;

  std::printf("Fig 12: epoch size vs average visibility delay "
              "(TPC-C, AETS, %d threads)\n\n",
              threads);

  // The visibility delay has two opposed components (the paper's U-shape):
  //  - replay-side: tiny epochs forfeit two-stage prioritization and pay
  //    per-epoch overhead — measured by draining a recorded backlog;
  //  - shipping-side: large epochs wait to assemble enough transactions
  //    before anything ships — measured live (heartbeats at the paper's
  //    50 ms flush idle partial epochs).
  // The combined column is their sum: high at both extremes, minimal at a
  // moderate epoch size (paper: 2048 at their scale).
  auto make_workload = [config]() -> std::unique_ptr<Workload> {
    return std::make_unique<TpccWorkload>(config);
  };
  ReplayerSpec spec;
  spec.kind = ReplayerKind::kAets;
  spec.threads = threads;
  spec.grouping = GroupingMode::kStatic;
  spec.hot_groups = shape.DefaultHotGroups();
  spec.rates = rates;

  // The live-run shape both sweeps share. The OLTP phase must outlast the
  // query stream so every query observes the epoch-assembly wait in
  // progress (queries arriving after OLTP ends see only heartbeat-flushed
  // data).
  LiveRunOptions live_base;
  live_base.oltp_txns = Scaled(20000, 2000);
  live_base.olap_queries = Scaled(200, 40);
  live_base.think_us = 4000;
  live_base.seed = 44;
  live_base.heartbeat_interval_us = 50'000;  // paper Section V-B

  const size_t epoch_sizes[] = {16, 64, 256, 1024, 4096, 16384};
  TablePrinter table({"epoch size", "replay-side us", "assembly-side us",
                      "combined us"});
  for (size_t epoch_size : epoch_sizes) {
    // Replay-side component (catch-up drain; epoch sealing re-recorded at
    // this size).
    TpccWorkload workload(config);
    RecordedLog log =
        RecordWorkload(&workload, Scaled(6000, 300), epoch_size, /*seed=*/44);
    CatchUpOptions catch_options;
    catch_options.queries = Scaled(600, 60);
    catch_options.seed = 44;
    double replay_side = 0;
    for (int rep = 0; rep < 3; ++rep) {
      CatchUpResult r = RunCatchUp(log, &workload, spec, catch_options);
      AETS_CHECK(r.state_matches_primary);
      replay_side += r.mean_delay_us / 3;
    }

    // Shipping/assembly component (live run). Only the size trigger seals,
    // so this sweep measures epoch size alone.
    LiveRunOptions live_options = live_base;
    live_options.epoch_size = epoch_size;
    live_options.max_epoch_age_us = 0;
    LiveRunResult live = RunLive(make_workload, spec, live_options);
    AETS_CHECK(live.state_matches_primary);

    table.AddRow({std::to_string(epoch_size),
                  TablePrinter::Fmt(replay_side, 1),
                  TablePrinter::Fmt(live.mean_delay_us, 1),
                  TablePrinter::Fmt(replay_side + live.mean_delay_us, 1)});
  }
  table.Print();

  // Age axis: at epoch 4096 the size trigger rarely binds, so the age bound
  // sets the epoch length. Lag is the visibility delay of a query at the
  // primary's current clock, i.e. how long the newest commit takes to
  // become visible (0 when the backup already shows it); txn/s is committed
  // transactions over the wall time until the backup applied them.
  std::printf("\nAge bound at epoch size 4096: lag vs throughput\n\n");
  const int64_t ages_us[] = {1'000, 2'000, 4'000, 8'000};
  TablePrinter age_table(
      {"age bound us", "lag mean us", "lag p50 us", "txn/s"});
  for (int64_t age_us : ages_us) {
    LiveRunOptions live_options = live_base;
    live_options.epoch_size = 4096;
    live_options.max_epoch_age_us = age_us;
    LiveRunResult live = RunLive(make_workload, spec, live_options);
    AETS_CHECK(live.state_matches_primary);
    age_table.AddRow({std::to_string(age_us),
                      TablePrinter::Fmt(live.mean_delay_us, 1),
                      TablePrinter::Fmt(live.p50_delay_us, 1),
                      TablePrinter::Fmt(live.txns_per_sec, 0)});
  }
  age_table.Print();
}

}  // namespace
}  // namespace aets

int main(int argc, char** argv) {
  aets::BenchInit(argc, argv);
  aets::Run();
  return 0;
}
