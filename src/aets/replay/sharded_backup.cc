#include "aets/replay/sharded_backup.h"

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

void ShardedBackup::SetEpochSource(EpochSource* source) {
  for (auto& shard : shards_) shard->SetEpochSource(source);
}

void ShardedBackup::SetShardEpochSource(int shard, EpochSource* source) {
  AETS_CHECK(shard >= 0 && shard < num_shards());
  shards_[static_cast<size_t>(shard)]->SetEpochSource(source);
}

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

const ReplayStats& ShardedBackup::stats() const {
  // Re-aggregated on every call: cheap (a few atomic loads per shard) and
  // always current. agg_ is only ever written here; concurrent readers see
  // a consistent-enough snapshot for stats purposes, same as any ReplayStats
  // read while replay runs.
  uint64_t epochs = 0, txns = 0, records = 0, bytes = 0;
  uint64_t retried = 0, dups = 0, corrupt = 0, heartbeats = 0, stalls = 0;
  int64_t dispatch = 0, replay = 0, commit = 0, stage1 = 0, stage2 = 0;
  int64_t sync_wait = 0;
  int64_t wall_start = 0, wall_end = 0;
  for (const auto& shard : shards_) {
    const ReplayStats& s = shard->stats();
    epochs += s.epochs.load();
    txns += s.txns.load();
    records += s.records.load();
    bytes += s.bytes.load();
    dispatch += s.dispatch_ns.load();
    replay += s.replay_ns.load();
    commit += s.commit_ns.load();
    stage1 += s.stage1_wall_ns.load();
    stage2 += s.stage2_wall_ns.load();
    sync_wait += s.sync_wait_ns.load();
    retried += s.epochs_retried.load();
    dups += s.duplicates_dropped.load();
    corrupt += s.corrupt_dropped.load();
    heartbeats += s.heartbeats.load();
    stalls += s.pipeline_stalls.load();
    int64_t start = s.wall_start_us.load();
    if (start != 0 && (wall_start == 0 || start < wall_start)) {
      wall_start = start;
    }
    int64_t end = s.wall_end_us.load();
    if (end > wall_end) wall_end = end;
  }
  agg_.epochs.store(epochs);
  agg_.txns.store(txns);
  agg_.records.store(records);
  agg_.bytes.store(bytes);
  agg_.dispatch_ns.store(dispatch);
  agg_.replay_ns.store(replay);
  agg_.commit_ns.store(commit);
  agg_.stage1_wall_ns.store(stage1);
  agg_.stage2_wall_ns.store(stage2);
  agg_.sync_wait_ns.store(sync_wait);
  agg_.epochs_retried.store(retried);
  agg_.duplicates_dropped.store(dups);
  agg_.corrupt_dropped.store(corrupt);
  agg_.heartbeats.store(heartbeats);
  agg_.pipeline_stalls.store(stalls);
  agg_.wall_start_us.store(wall_start);
  agg_.wall_end_us.store(wall_end);
  return agg_;
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
