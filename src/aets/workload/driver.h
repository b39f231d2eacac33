#ifndef AETS_WORKLOAD_DRIVER_H_
#define AETS_WORKLOAD_DRIVER_H_

#include <atomic>
#include <thread>
#include <vector>

#include "aets/common/histogram.h"
#include "aets/common/rng.h"
#include "aets/replay/access_tracker.h"
#include "aets/replay/replayer.h"
#include "aets/workload/workload.h"

namespace aets {

/// Runs the OLTP side: executes `num_txns` transactions of the workload mix
/// against the primary (optionally across several client threads).
class OltpDriver {
 public:
  OltpDriver(Workload* workload, PrimaryDb* db, uint64_t seed = 7)
      : workload_(workload), db_(db), seed_(seed) {}

  /// Synchronously runs `num_txns` transactions on `threads` client threads.
  void Run(uint64_t num_txns, int threads = 1);

  /// Starts the run in the background; `Join` waits for completion.
  void Start(uint64_t num_txns, int threads = 1);
  void Join();

  uint64_t txns_committed() const {
    return committed_.load(std::memory_order_relaxed);
  }

 private:
  Workload* workload_;
  PrimaryDb* db_;
  uint64_t seed_;
  std::atomic<uint64_t> committed_{0};
  std::vector<std::thread> threads_;
};

/// Runs the OLAP side against a replayer: issues analytic queries with
/// snapshot timestamps drawn from the primary clock, waits for visibility
/// per Algorithm 3, records the per-query visibility delay, and (optionally)
/// feeds the access tracker the tables each query touched.
class OlapDriver {
 public:
  struct Options {
    /// Queries to issue.
    uint64_t num_queries = 1000;
    /// Pause between queries (microseconds of think time, 0 = none).
    int64_t think_us = 0;
    /// Optional access tracker to feed.
    AccessTracker* tracker = nullptr;
    /// Read a sample row after visibility (exercises the MVCC read path).
    bool read_rows = true;
    uint64_t seed = 13;
  };

  OlapDriver(Workload* workload, Replayer* replayer, LogicalClock* clock,
             Options options)
      : workload_(workload),
        replayer_(replayer),
        clock_(clock),
        options_(std::move(options)) {}

  /// Synchronously issues the configured number of queries.
  void Run();

  void Start();
  void Join();

  /// Visibility delay per query, microseconds.
  const Histogram& delays() const { return delays_; }
  /// Per-query-template delay histograms (Fig. 10's per-query series).
  const std::vector<Histogram>& per_query_delays() const {
    return per_query_delays_;
  }

 private:
  Workload* workload_;
  Replayer* replayer_;
  LogicalClock* clock_;
  Options options_;
  Histogram delays_;
  std::vector<Histogram> per_query_delays_;
  std::thread thread_;
};

}  // namespace aets

#endif  // AETS_WORKLOAD_DRIVER_H_
