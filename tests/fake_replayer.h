// A replayer whose visibility watermarks a test sets directly, for the
// Algorithm-3 wait tests (WaitVisible, and the ShardedBackup facade over
// fake shards).
#ifndef AETS_TESTS_FAKE_REPLAYER_H_
#define AETS_TESTS_FAKE_REPLAYER_H_

#include <atomic>
#include <string>
#include <vector>

#include "aets/replay/replayer.h"

namespace aets {
namespace test {

class FakeReplayer : public Replayer {
 public:
  explicit FakeReplayer(size_t num_tables) : table_ts_(num_tables) {}

  Status Start() override { return Status::OK(); }
  void Stop() override {}
  Timestamp TableVisibleTs(TableId table) const override {
    return table_ts_[table].load();
  }
  Timestamp GlobalVisibleTs() const override { return global_.load(); }
  TableStore* store() override { return nullptr; }
  const ReplayStats& stats() const override { return stats_; }
  std::string name() const override { return "Fake"; }

  // Each store rings the bell, as the real replayers' publish paths do.
  void SetTable(TableId t, Timestamp ts) {
    table_ts_[t].store(ts);
    bell().Ring();
  }
  void SetGlobal(Timestamp ts) {
    global_.store(ts);
    bell().Ring();
  }
  ReplayStats& mutable_stats() { return stats_; }

 private:
  std::vector<std::atomic<Timestamp>> table_ts_;
  std::atomic<Timestamp> global_{0};
  ReplayStats stats_;
};

}  // namespace test
}  // namespace aets

#endif  // AETS_TESTS_FAKE_REPLAYER_H_
