#ifndef AETS_REPLAY_SHARDED_BACKUP_H_
#define AETS_REPLAY_SHARDED_BACKUP_H_

#include <memory>
#include <string>
#include <vector>

#include "aets/catalog/shard_map.h"
#include "aets/replay/replayer.h"
#include "aets/replay/snapshot_coordinator.h"

namespace aets {

/// N in-process backup shards behind the single-replayer interface (ISSUE 7
/// tentpole, DESIGN.md §11). Each shard is a full ReplayerBase-derived
/// replayer — its own channel, worker pools, sticky error latch, and
/// TableStore — consuming its sub-epoch stream from the sharded LogShipper.
/// The facade routes per-table reads to the owning shard and answers global
/// visibility through a GlobalSnapshotCoordinator, so existing callers
/// (WaitVisible, the sim oracle, the bench harness) see one Replayer whose
/// epoch-level parallelism is shard_count. The shards ring the facade's
/// WatermarkBell, so WaitVisible over the facade wakes on any shard's
/// watermark advance.
///
/// Failure semantics: a shard that latches a sticky error freezes its
/// watermark; GlobalVisibleTs() (the coordinator minimum) freezes with it.
/// Healthy shards keep replaying — per-table reads on their tables stay
/// fresh — but no cross-shard snapshot past the failure point is ever
/// promised.
class ShardedBackup : public Replayer {
 public:
  /// `map` must outlive the backup; `shards[i]` replays the tables
  /// `map->TablesOnShard(i)` (each shard is built over the full catalog —
  /// tables it does not own simply stay empty in its store).
  ShardedBackup(const ShardMap* map,
                std::vector<std::unique_ptr<Replayer>> shards);
  ~ShardedBackup() override;

  Status Start() override;
  void Stop() override;

  /// Routed to the shard owning `table` (exact per-table freshness; may run
  /// ahead of the global snapshot frontier).
  Timestamp TableVisibleTs(TableId table) const override;

  /// The cross-shard safe frontier: GlobalSnapshotCoordinator minimum over
  /// every shard's own global watermark.
  Timestamp GlobalVisibleTs() const override;

  /// Shard 0's store — only meaningful for single-store callers that predate
  /// sharding. Snapshot readers must use StoreForTable().
  TableStore* store() override;
  TableStore* StoreForTable(TableId table) override;
  /// Routed to the owning shard's columnar projection (nullptr when that
  /// shard maintains none).
  const storage::ColumnStore* ColumnStoreForTable(TableId table) const override;

  /// Aggregated over all shards: every counter sums; wall_start is the
  /// earliest shard start, wall_end the latest shard end (so TxnsPerSec
  /// reflects the parallel aggregate).
  const ReplayStats& stats() const override;
  std::string name() const override;
  /// The first failing shard's sticky error, or OK.
  Status error() const override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Shard i. Each shard NACKs its own source (with a sharded LogShipper,
  /// shard(i)->SetEpochSource(shipper.shard_source(i))) before Start().
  Replayer* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }
  const ShardMap& shard_map() const { return *map_; }
  GlobalSnapshotCoordinator& coordinator() { return coordinator_; }
  const GlobalSnapshotCoordinator& coordinator() const { return coordinator_; }

 private:
  const ShardMap* map_;
  std::vector<std::unique_ptr<Replayer>> shards_;
  GlobalSnapshotCoordinator coordinator_;
  mutable ReplayStats agg_;
};

/// One shard's share of a backup's thread budgets.
struct ShardThreads {
  int replay_threads = 0;
  int commit_threads = 0;
};

/// Divides TOTAL `replay_threads` and `commit_threads` budgets across the
/// shards of `map` by SplitThreadBudget, proportionally to each shard's
/// predicted load (the sum of `table_rates` over its tables; an even split
/// when no rates are given). Entry s is shard s's share. Every shard needs
/// both a replay and a commit context, so both budgets must be >=
/// map.num_shards(). Callers build shard s's replayer with entry s —
/// conventionally named `<name>.s<s>`, so each lane exports its own
/// `name{<name>.s<s>}` series — and hand the shards to ShardedBackup.
std::vector<ShardThreads> SplitShardThreads(
    const ShardMap& map, const std::vector<double>& table_rates,
    int replay_threads, int commit_threads);

}  // namespace aets

#endif  // AETS_REPLAY_SHARDED_BACKUP_H_
