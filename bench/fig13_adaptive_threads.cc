// Reproduces paper Fig. 13: the effect of the thread-allocation policy on
// visibility delay over time (BusTracker). Three policies, all sharing the
// SAME table grouping and differing only in the access-rate estimate fed to
// the adaptive thread allocator:
//   AETS      — DTGM-predicted per-slot access rates;
//   AETS-HA   — the trailing 5-slot historical average (lags shifts);
//   AETS-NOAC — no access rates: allocation by pending log size only.
// Paper shape: AETS below AETS-NOAC throughout; AETS-HA close to NOAC on
// average ("forecasting based on historical data does not impact the
// average visibility delay significantly").
//
// Methodology: each slot is one catch-up drain of that slot's recorded
// backlog while queries arrive with the slot's query mix; the allocator
// sees each policy's rate estimate for the slot.

#include <algorithm>
#include <cstdio>

#include "aets/bench/harness.h"
#include "aets/predictor/dtgm.h"
#include "aets/workload/bustracker.h"

namespace aets {
namespace {

enum class Policy { kDtgm, kHistAvg, kNoac };

void Run() {
  int threads = BenchThreads(8);
  BusTrackerConfig config;
  config.rows_per_table = 60;
  config.rate_period_slots = 48;  // fast shifts stress the allocator
  BusTrackerWorkload bus(config);

  const int first_slot = 100;
  const int num_slots = static_cast<int>(Scaled(8, 4));
  const uint64_t queries_per_slot = Scaled(150, 40);
  const uint64_t txns_per_slot = Scaled(8000, 800);

  // Realized access-rate history; DTGM trains on the prefix before the
  // evaluation window.
  RateMatrix realized = bus.GenerateRateSeries(first_slot + num_slots + 2,
                                               /*noise_frac=*/0.10, 4242);
  DtgmConfig dtgm_config;
  dtgm_config.input_window = 16;
  dtgm_config.hidden = 20;
  dtgm_config.layers = 2;
  dtgm_config.horizon = 4;
  dtgm_config.train_steps = static_cast<int>(Scaled(100, 30));
  dtgm_config.batch = 3;
  DtgmPredictor dtgm(dtgm_config);
  std::printf("Fig 13: adaptive thread allocation on BusTracker "
              "(%d slots x %llu queries, %d threads; training DTGM...)\n",
              num_slots, static_cast<unsigned long long>(queries_per_slot),
              threads);
  dtgm.Fit(RateMatrix(realized.begin(), realized.begin() + first_slot));

  // Per-policy per-slot allocator inputs. All policies keep the same
  // grouping (built from the realized rates at the window start).
  auto estimate_for = [&](Policy policy, int slot) -> std::vector<double> {
    switch (policy) {
      case Policy::kDtgm: {
        RateMatrix recent(realized.begin() + slot - 16,
                          realized.begin() + slot);
        return dtgm.Predict(recent, 1)[0];
      }
      case Policy::kHistAvg: {
        std::vector<double> mean(realized.front().size(), 0.0);
        for (int k = slot - 5; k < slot; ++k) {
          for (size_t t = 0; t < mean.size(); ++t) {
            mean[t] += realized[static_cast<size_t>(k)][t] / 5;
          }
        }
        return mean;
      }
      case Policy::kNoac:
      default:
        return realized[static_cast<size_t>(slot)];  // unused by allocator
    }
  };

  // One recorded backlog per slot, shared by the three policies. The first
  // drain of the process is a discarded warm-up (allocator/page-cache).
  std::vector<RecordedLog> slot_logs;
  for (int s = 0; s < num_slots; ++s) {
    slot_logs.push_back(RecordWorkload(&bus, txns_per_slot, /*epoch_size=*/256,
                                       1000 + static_cast<uint64_t>(s)));
  }

  {
    ReplayerSpec warm;
    warm.threads = threads;
    warm.grouping = GroupingMode::kPerTable;
    warm.rates = realized[static_cast<size_t>(first_slot)];
    CatchUpOptions warm_options;
    warm_options.queries = 10;
    (void)RunCatchUp(slot_logs[0], &bus, warm, warm_options);
  }

  std::vector<std::vector<double>> slot_means;  // [policy][slot]
  std::vector<double> overall;
  for (Policy policy : {Policy::kDtgm, Policy::kHistAvg, Policy::kNoac}) {
    std::vector<double> means;
    double sum = 0;
    for (int s = 0; s < num_slots; ++s) {
      int slot = first_slot + s;
      ReplayerSpec spec;
      spec.kind = policy == Policy::kNoac ? ReplayerKind::kAetsNoac
                                          : ReplayerKind::kAets;
      spec.threads = threads;
      // DBSCAN grouping at eps 0.2 yields a handful of hot groups with
      // contrasting rates, where allocation differences act.
      spec.grouping = GroupingMode::kByAccessRate;
      spec.dbscan_eps = 0.2;
      spec.rates = realized[static_cast<size_t>(first_slot)];  // grouping base
      spec.regroup_on_rate_change = false;  // same groups for all policies
      std::vector<double> estimate = estimate_for(policy, slot);
      spec.rate_provider = [estimate] { return estimate; };

      CatchUpOptions options;
      options.lead_txns = 128;  // half an epoch of freshness demand
      options.queries = queries_per_slot;
      double phase = static_cast<double>(slot % config.rate_period_slots) /
                     config.rate_period_slots;
      options.phase_fn = [phase] { return phase; };
      // Median of three repeats with distinct query seeds.
      std::vector<double> reps;
      for (int rep = 0; rep < 3; ++rep) {
        options.seed = 700 + static_cast<uint64_t>(slot) * 10 +
                       static_cast<uint64_t>(rep);
        CatchUpResult r =
            RunCatchUp(slot_logs[static_cast<size_t>(s)], &bus, spec, options);
        AETS_CHECK(r.state_matches_primary);
        reps.push_back(r.mean_delay_us);
      }
      std::sort(reps.begin(), reps.end());
      means.push_back(reps[1]);
      sum += reps[1];
    }
    slot_means.push_back(std::move(means));
    overall.push_back(sum / num_slots);
  }

  TablePrinter table({"slot", "AETS us", "AETS-HA us", "AETS-NOAC us"});
  for (int s = 0; s < num_slots; ++s) {
    table.AddRow({std::to_string(first_slot + s),
                  TablePrinter::Fmt(slot_means[0][static_cast<size_t>(s)], 1),
                  TablePrinter::Fmt(slot_means[1][static_cast<size_t>(s)], 1),
                  TablePrinter::Fmt(slot_means[2][static_cast<size_t>(s)], 1)});
  }
  table.Print();
  std::printf("overall mean: AETS=%.1fus AETS-HA=%.1fus AETS-NOAC=%.1fus\n",
              overall[0], overall[1], overall[2]);
}

}  // namespace
}  // namespace aets

int main(int argc, char** argv) {
  aets::BenchInit(argc, argv);
  aets::Run();
  return 0;
}
