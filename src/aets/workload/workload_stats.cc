#include "aets/workload/workload_stats.h"

#include <algorithm>
#include <map>

#include "aets/workload/driver.h"

namespace aets {

namespace {

/// Per-table DML counts produced by `num_txns` of the OLTP mix, excluding
/// the load phase.
std::map<TableId, uint64_t> MixDmlCounts(Workload* workload, uint64_t num_txns,
                                         uint64_t seed) {
  LogicalClock clock;
  PrimaryDb db(&workload->catalog(), &clock);
  Rng rng(seed);
  workload->Load(&db, &rng);
  std::map<TableId, uint64_t> before = db.DmlCountsByTable();
  OltpDriver driver(workload, &db, seed);
  driver.Run(num_txns);
  std::map<TableId, uint64_t> after = db.DmlCountsByTable();
  for (const auto& [table, count] : before) after[table] -= count;
  return after;
}

double RatioOf(const std::map<TableId, uint64_t>& counts,
               const std::vector<TableId>& hot) {
  uint64_t total = 0, hot_count = 0;
  for (const auto& [table, count] : counts) total += count;
  for (TableId t : hot) {
    auto it = counts.find(t);
    if (it != counts.end()) hot_count += it->second;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hot_count) / static_cast<double>(total);
}

}  // namespace

WorkloadStats MeasureWorkloadStats(Workload* workload, uint64_t num_txns,
                                   uint64_t seed) {
  WorkloadStats stats;
  stats.benchmark = workload->name();
  stats.num_written_tables = workload->WrittenTables().size();
  stats.num_accessed_tables = workload->AccessedTables().size();
  std::vector<TableId> hot = workload->HotTables();
  stats.num_hot_tables = hot.size();
  stats.hot_log_ratio = RatioOf(MixDmlCounts(workload, num_txns, seed), hot);
  return stats;
}

double HotRatioForTables(Workload* workload, uint64_t num_txns,
                         const std::vector<TableId>& query_tables,
                         uint64_t seed) {
  std::vector<TableId> written = workload->WrittenTables();
  std::sort(written.begin(), written.end());
  std::vector<TableId> hot;
  for (TableId t : query_tables) {
    if (std::binary_search(written.begin(), written.end(), t)) hot.push_back(t);
  }
  return RatioOf(MixDmlCounts(workload, num_txns, seed), hot);
}

}  // namespace aets
