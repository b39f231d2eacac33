// Real-time bus-arrival dashboard over the BusTracker workload — the
// adaptive side of AETS end to end: the access tracker observes which tables
// the dashboard queries hit, a DTGM model forecasts the next slot's table
// access rates, and the replayer regroups/reallocates threads from the
// forecast while device-log spam floods the replication stream.
//
//   $ ./bus_dashboard

#include <cstdio>

#include "aets/predictor/dtgm.h"
#include "aets/replay/access_tracker.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replication/log_shipper.h"
#include "aets/workload/bustracker.h"
#include "aets/workload/driver.h"

using namespace aets;

int main() {
  BusTrackerConfig config;
  config.rows_per_table = 40;
  BusTrackerWorkload bus(config);

  LogicalClock clock;
  PrimaryDb primary(&bus.catalog(), &clock);
  LogShipper shipper(/*epoch_size=*/128);
  EpochChannel channel;
  shipper.AttachChannel(&channel);
  primary.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  Rng rng(99);
  std::printf("loading BusTracker (65 tables, 14 hot)...\n");
  bus.Load(&primary, &rng);
  shipper.StartHeartbeats([&primary] { return primary.AcquireHeartbeatTs(); });

  // Train DTGM offline on historical access rates (the tracker would supply
  // these in production; here the generator's history plays that role).
  std::printf("training DTGM on 100 slots of access-rate history...\n");
  RateMatrix history = bus.GenerateRateSeries(100, 0.1, 7);
  DtgmConfig dtgm_config;
  dtgm_config.input_window = 16;
  dtgm_config.hidden = 16;
  dtgm_config.layers = 2;
  dtgm_config.horizon = 1;
  dtgm_config.train_steps = 40;
  DtgmPredictor dtgm(dtgm_config);
  dtgm.Fit(history);

  // The replayer pulls its rates from the latest DTGM forecast.
  std::vector<double> forecast = history.back();
  std::mutex forecast_mu;
  AetsOptions options;
  options.replay_threads = 3;
  options.grouping = GroupingMode::kByAccessRate;
  options.initial_rates = forecast;
  options.rate_provider = [&] {
    std::lock_guard<std::mutex> lk(forecast_mu);
    return forecast;
  };
  AetsReplayer backup(&bus.catalog(), &channel, options);
  if (!backup.Start().ok()) return 1;

  AccessTracker tracker(bus.catalog().num_tables());
  Histogram freshness;

  // Four dashboard refresh cycles ("minutes"); OLTP runs throughout.
  for (int slot = 100; slot < 104; ++slot) {
    OltpDriver oltp(&bus, &primary, static_cast<uint64_t>(slot));
    oltp.Start(/*num_txns=*/1500);

    // Dashboard queries for this slot, mix following the diurnal phase.
    Rng qrng(static_cast<uint64_t>(slot));
    double phase = static_cast<double>(slot % config.rate_period_slots) /
                   config.rate_period_slots;
    for (int q = 0; q < 120; ++q) {
      size_t qi = bus.SampleQuery(&qrng, phase);
      const AnalyticQuery& query = bus.analytic_queries()[qi];
      Timestamp qts = clock.Now();
      freshness.Record(WaitVisible(backup, query.tables, qts));
      tracker.RecordQuery(query.tables);
      for (TableId t : query.tables) {
        (void)backup.store()->GetTable(t)->ReadRow(1, qts);
      }
    }
    oltp.Join();

    // Close the slot: feed the observed rates to DTGM, refresh the forecast.
    tracker.AdvanceSlot();
    history.push_back(tracker.LastSlot());
    {
      std::lock_guard<std::mutex> lk(forecast_mu);
      forecast = dtgm.Predict(
          RateMatrix(history.end() - 16, history.end()), 1)[0];
    }
    std::printf("slot %d done: %zu replay groups, freshness %s\n", slot,
                backup.groups().size(), freshness.Summary().c_str());
  }

  shipper.Finish();
  backup.Stop();
  const bool same = backup.store()->DigestAt(primary.last_commit_ts()) ==
                    primary.store().DigestAt(primary.last_commit_ts());
  std::printf("final state %s; %llu txns replayed\n",
              same ? "== primary" : "MISMATCH",
              static_cast<unsigned long long>(backup.stats().txns.load()));
  return same ? 0 : 1;
}
