#ifndef AETS_NODE_BACKUP_NODE_H_
#define AETS_NODE_BACKUP_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aets/common/result.h"
#include "aets/net/epoch_stream.h"
#include "aets/net/query_server.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replay/sharded_backup.h"
#include "aets/replication/durable_source.h"
#include "aets/replication/log_shipper.h"

namespace aets {

/// What differs between deployments of a backup node; the lanes' threads,
/// grouping and recovery budget, the segment size and the images kept are
/// constants of the node.
struct BackupNodeOptions {
  int shards = 1;  // lanes, over ShardMap::Hash(catalog tables, shards)
  /// Segment logs and checkpoint images; empty keeps the node in memory.
  /// Lane k of N > 1 lives in <dir>/shard<k>, a single lane in <dir>.
  std::string dir;
  /// Per-lane durable-log budget (SegmentStoreOptions::disk_budget_bytes);
  /// when nonzero, Checkpoint() truncates the lane's log below its image.
  uint64_t disk_budget = 0;
};

/// The paper's backup as one component (DESIGN.md §11-§12): AetsReplayer
/// lanes named AETS.s<k> behind one ShardedBackup, their feed, durable logs
/// and checkpoints, and an optional QueryServer on the facade's coordinator.
/// Each factory returns a started node with one kind of feed.
class BackupNode {
 public:
  /// In process: the node installs its shard map on `shipper` and attaches
  /// each lane's channel (and store) to it; lane k NACKs
  /// shipper->shard_source(k). Before the first epoch ships; `shipper` must
  /// outlive the node, and Stop() finishes it.
  static Result<std::unique_ptr<BackupNode>> Attach(const Catalog* catalog,
                                                    BackupNodeOptions options,
                                                    LogShipper* shipper);
  /// Over TCP: an EpochStreamClient pumps shard k of the stream at host:port
  /// into lane k, which NACKs over a TcpEpochSource.
  static Result<std::unique_ptr<BackupNode>> Connect(const Catalog* catalog,
                                                     BackupNodeOptions options,
                                                     const std::string& host,
                                                     uint16_t port);
  /// From its own dir ("load snapshot, replay delta"): each lane restarts
  /// from the image ChooseRestartPoint picks, or cold, and replays its
  /// durable tail through a DurableEpochSource; Stop() returns once it has.
  static Result<std::unique_ptr<BackupNode>> Recover(const Catalog* catalog,
                                                     BackupNodeOptions options);

  ~BackupNode() { Stop(); }
  BackupNode(const BackupNode&) = delete;
  BackupNode& operator=(const BackupNode&) = delete;

  /// Serves snapshot scans over the facade on `port` (0: ephemeral).
  Status ServeQueries(uint16_t port, net::QueryServerOptions options = {});
  uint16_t query_port() const { return queries_->port(); }

  /// TCP feed: true once every lane's stream ended cleanly (the primary's
  /// shipper finished), false after `timeout_ms`.
  bool WaitStreamEnd(int64_t timeout_ms);

  /// Parks on the facade's bell until the backup covers `through_ts` or a
  /// lane latches an error; then images lane `lane`, truncates its log below
  /// the image when a disk budget is set, and prunes old images, keeping the
  /// floor image. Returns the image's next epoch id. Nothing may ship
  /// between `through_ts` and the return.
  Result<EpochId> Checkpoint(int lane, Timestamp through_ts);

  /// Ends the feed (the attached shipper finishes; a TCP subscriber stops,
  /// closing its lane's channel if the stream has not ended), drains every
  /// lane, and stops the query server. Idempotent.
  void Stop();

  ShardedBackup& backup() { return *backup_; }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  /// Lane `lane`'s segment log; nullptr without a dir.
  SegmentStore* store(int lane) { return lanes_[lane].store.get(); }
  /// Recover: where lane `lane` restarted, and its watermark then.
  const RestartPoint& restart(int lane) const { return lanes_[lane].restart; }
  Timestamp restart_ts(int lane) const { return lanes_[lane].restart_ts; }
  /// TCP feed, summed over the lanes' subscribers.
  uint64_t epochs_received() const {
    return SumClients(&net::EpochStreamClient::epochs_received);
  }
  uint64_t reconnects() const {
    return SumClients(&net::EpochStreamClient::reconnects);
  }

 private:
  struct Lane {
    std::unique_ptr<SegmentStore> store;
    std::unique_ptr<EpochChannel> channel;
    std::unique_ptr<net::EpochStreamClient> client;
    EpochSource* source = nullptr;            // NACKs go here
    std::unique_ptr<EpochSource> own_source;  // TCP and disk feeds
    AetsReplayer* replayer = nullptr;         // owned by backup_
    RestartPoint restart;
    Timestamp restart_ts = kInvalidTimestamp;
  };
  /// Gives lane k its feed and NACK source; returns its replayer.
  using WireFn = std::function<Result<std::unique_ptr<AetsReplayer>>(
      BackupNode* node, int k, Lane* lane)>;

  BackupNode(const Catalog* catalog, BackupNodeOptions options);
  /// Opens each lane (a channel of `capacity`, a store when the node has a
  /// dir), wires it, and starts the facade.
  static Result<std::unique_ptr<BackupNode>> Build(const Catalog* catalog,
                                                   BackupNodeOptions options,
                                                   size_t capacity,
                                                   const WireFn& wire);
  std::string LaneDir(int lane) const;
  std::unique_ptr<AetsReplayer> NewReplayer(int lane) const;
  uint64_t SumClients(uint64_t (net::EpochStreamClient::*counter)() const) const;

  const Catalog* catalog_;
  const BackupNodeOptions options_;
  const ShardMap map_;
  LogShipper* shipper_ = nullptr;  // Attach only
  std::vector<Lane> lanes_;
  std::unique_ptr<ShardedBackup> backup_;
  std::unique_ptr<net::QueryServer> queries_;
};

}  // namespace aets

#endif  // AETS_NODE_BACKUP_NODE_H_
