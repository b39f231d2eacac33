#include "aets/workload/driver.h"

#include <chrono>

#include "aets/common/macros.h"

namespace aets {

void OltpDriver::Run(uint64_t num_txns, int threads) {
  Start(num_txns, threads);
  Join();
}

void OltpDriver::Start(uint64_t num_txns, int threads) {
  AETS_CHECK(threads >= 1);
  std::atomic<uint64_t>* committed = &committed_;
  for (int t = 0; t < threads; ++t) {
    uint64_t share = num_txns / static_cast<uint64_t>(threads) +
                     (static_cast<uint64_t>(t) <
                              num_txns % static_cast<uint64_t>(threads)
                          ? 1
                          : 0);
    threads_.emplace_back([this, committed, share, t] {
      Rng rng(seed_ + static_cast<uint64_t>(t) * 0x9E3779B9ull);
      for (uint64_t i = 0; i < share; ++i) {
        Status st = workload_->RunOltpTransaction(db_, &rng);
        if (st.ok()) committed->fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
}

void OltpDriver::Join() {
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void OlapDriver::Run() {
  per_query_delays_ =
      std::vector<Histogram>(workload_->analytic_queries().size());
  Rng rng(options_.seed);
  for (uint64_t i = 0; i < options_.num_queries; ++i) {
    size_t qi = workload_->SampleQuery(&rng, /*phase=*/0.0);
    const AnalyticQuery& query = workload_->analytic_queries()[qi];

    // Real-time query: snapshot at the primary's latest timestamp, then wait
    // until the backup has replayed everything up to it (Algorithm 3).
    Timestamp qts = clock_->Now();
    int64_t delay_us = WaitVisible(*replayer_, query.tables, qts);
    delays_.Record(delay_us);
    per_query_delays_[qi].Record(delay_us);

    if (options_.tracker != nullptr) {
      options_.tracker->RecordQuery(query.tables);
    }
    if (options_.read_rows) {
      // Touch one row per accessed table at the snapshot (the MVCC read).
      for (TableId t : query.tables) {
        (void)replayer_->store()->GetTable(t)->ReadRow(1, qts);
      }
    }
    if (options_.think_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(options_.think_us));
    }
  }
}

void OlapDriver::Start() {
  thread_ = std::thread([this] { Run(); });
}

void OlapDriver::Join() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace aets
