#include "aets/replay/sharded_backup.h"

#include <algorithm>
#include <utility>

#include "aets/common/macros.h"
#include "aets/replay/thread_allocator.h"

namespace aets {

ShardedBackup::ShardedBackup(const ShardMap* map,
                             std::vector<std::unique_ptr<Replayer>> shards)
    : map_(map), shards_(std::move(shards)) {
  AETS_CHECK(map_ != nullptr);
  AETS_CHECK_MSG(static_cast<int>(shards_.size()) == map_->num_shards(),
                 "shard replayer count does not match the shard map");
  for (auto& shard : shards_) {
    AETS_CHECK(shard != nullptr);
    Replayer* r = shard.get();
    // Every shard rings the facade's bell: a per-table advance on any shard,
    // or the lagging shard lifting the coordinator minimum, wakes the
    // facade's WaitVisible callers.
    r->ShareBell(&bell());
    coordinator_.AttachShard([r] { return r->GlobalVisibleTs(); });
  }
}

ShardedBackup::~ShardedBackup() { Stop(); }

Status ShardedBackup::Start() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status st = shards_[i]->Start();
    if (!st.ok()) {
      // Roll back the shards already running so the caller gets a clean
      // all-or-nothing facade.
      for (size_t j = 0; j < i; ++j) shards_[j]->Stop();
      return st;
    }
  }
  return Status::OK();
}

void ShardedBackup::Stop() {
  for (auto& shard : shards_) shard->Stop();
}

Timestamp ShardedBackup::TableVisibleTs(TableId table) const {
  return shards_[static_cast<size_t>(map_->shard_of(table))]->TableVisibleTs(
      table);
}

Timestamp ShardedBackup::GlobalVisibleTs() const {
  return coordinator_.GlobalSafeTimestamp();
}

TableStore* ShardedBackup::store() { return shards_[0]->store(); }

TableStore* ShardedBackup::StoreForTable(TableId table) {
  return shards_[static_cast<size_t>(map_->shard_of(table))]->StoreForTable(
      table);
}

const storage::ColumnStore* ShardedBackup::ColumnStoreForTable(
    TableId table) const {
  return shards_[static_cast<size_t>(map_->shard_of(table))]
      ->ColumnStoreForTable(table);
}

namespace {

// The ReplayStats counters a facade sums over its shards: every field but
// the two wall-clock marks.
constexpr std::atomic<uint64_t> ReplayStats::*kSummedCounts[] = {
    &ReplayStats::epochs,          &ReplayStats::txns,
    &ReplayStats::records,         &ReplayStats::bytes,
    &ReplayStats::epochs_retried,  &ReplayStats::duplicates_dropped,
    &ReplayStats::corrupt_dropped, &ReplayStats::heartbeats,
    &ReplayStats::pipeline_stalls, &ReplayStats::commit_waits,
    &ReplayStats::conflict_retries};
constexpr std::atomic<int64_t> ReplayStats::*kSummedNanos[] = {
    &ReplayStats::dispatch_ns,    &ReplayStats::replay_ns,
    &ReplayStats::commit_ns,      &ReplayStats::stage1_wall_ns,
    &ReplayStats::stage2_wall_ns, &ReplayStats::sync_wait_ns};

}  // namespace

const ReplayStats& ShardedBackup::stats() const {
  // Re-aggregated on every call: cheap (a few atomic loads per shard) and
  // always current. agg_ is only ever written here; concurrent readers see
  // a consistent-enough snapshot for stats purposes, same as any ReplayStats
  // read while replay runs.
  auto sum = [&](auto field) {
    decltype((agg_.*field).load()) total = 0;
    for (const auto& shard : shards_) total += (shard->stats().*field).load();
    (agg_.*field).store(total);
  };
  for (auto field : kSummedCounts) sum(field);
  for (auto field : kSummedNanos) sum(field);
  int64_t wall_start = 0, wall_end = 0;
  for (const auto& shard : shards_) {
    int64_t start = shard->stats().wall_start_us.load();
    if (start != 0 && (wall_start == 0 || start < wall_start)) {
      wall_start = start;
    }
    wall_end = std::max(wall_end, shard->stats().wall_end_us.load());
  }
  agg_.wall_start_us.store(wall_start);
  agg_.wall_end_us.store(wall_end);
  return agg_;
}

Status ShardedBackup::error() const {
  for (const auto& shard : shards_) {
    Status st = shard->error();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

std::string ShardedBackup::name() const {
  return "Sharded[" + shards_[0]->name() + " x " +
         std::to_string(shards_.size()) + "]";
}

std::vector<ShardThreads> SplitShardThreads(
    const ShardMap& map, const std::vector<double>& table_rates,
    int replay_threads, int commit_threads) {
  const size_t n = static_cast<size_t>(map.num_shards());
  // Predicted per-shard load: the sum of the access rates over the shard's
  // tables. All-zero (no prediction) falls back to an even split inside
  // SplitThreadBudget, which also rejects a budget below the shard count.
  std::vector<double> loads(n, 0.0);
  for (size_t t = 0; t < table_rates.size(); ++t) {
    loads[static_cast<size_t>(map.shard_of(static_cast<TableId>(t)))] +=
        table_rates[t];
  }
  std::vector<int> replay_split = SplitThreadBudget(loads, replay_threads);
  std::vector<int> commit_split = SplitThreadBudget(loads, commit_threads);
  std::vector<ShardThreads> out(n);
  for (size_t s = 0; s < n; ++s) {
    out[s] = {replay_split[s], commit_split[s]};
  }
  return out;
}

}  // namespace aets
