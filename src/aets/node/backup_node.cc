#include "aets/node/backup_node.h"

#include <chrono>
#include <thread>
#include <utility>

#include "aets/common/macros.h"
#include "aets/net/tcp_source.h"

namespace aets {

namespace {

// One recovery budget, sized for a lane fed over TCP, where a reconnect can
// leave a long gap to NACK.
constexpr ReplayRecoveryOptions kRecovery{.max_retries = 64,
                                          .max_pending = 65536};
// An in-process lane keeps EpochChannel's default; a TCP lane's channel
// absorbs the burst a reconnect delivers.
constexpr size_t kLinkChannelCapacity = 128;
constexpr size_t kStreamChannelCapacity = 4096;
constexpr int kMaxReconnects = 200;
constexpr size_t kSegmentMaxBytes = 256u << 10;  // small, forces rollovers
constexpr size_t kKeepImages = 3;                // per lane directory

}  // namespace

BackupNode::BackupNode(const Catalog* catalog, BackupNodeOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      map_(ShardMap::Hash(catalog->num_tables(), options_.shards)) {}

std::string BackupNode::LaneDir(int lane) const {
  return options_.shards == 1 ? options_.dir
                              : options_.dir + "/shard" + std::to_string(lane);
}

std::unique_ptr<AetsReplayer> BackupNode::NewReplayer(int lane) const {
  // Per-table groups, two phase-1 translators and two committers per lane.
  AetsOptions options;
  options.replay_threads = 2;
  options.commit_threads = 2;
  options.initial_rates = std::vector<double>(catalog_->num_tables(), 1.0);
  options.name = "AETS.s" + std::to_string(lane);
  auto replayer = std::make_unique<AetsReplayer>(
      catalog_, lanes_[lane].channel.get(), options);
  replayer->SetRecoveryOptions(kRecovery);
  return replayer;
}

Result<std::unique_ptr<BackupNode>> BackupNode::Build(
    const Catalog* catalog, BackupNodeOptions options, size_t capacity,
    const WireFn& wire) {
  std::unique_ptr<BackupNode> node(new BackupNode(catalog, std::move(options)));
  std::vector<std::unique_ptr<Replayer>> shards;
  for (int k = 0; k < node->options_.shards; ++k) {
    Lane& lane = node->lanes_.emplace_back();
    lane.channel = std::make_unique<EpochChannel>(capacity);
    if (!node->options_.dir.empty()) {
      SegmentStoreOptions store;
      store.dir = node->LaneDir(k);
      store.segment_max_bytes = kSegmentMaxBytes;
      store.disk_budget_bytes = node->options_.disk_budget;
      AETS_ASSIGN_OR_RETURN(lane.store, SegmentStore::Open(store));
    }
    std::unique_ptr<AetsReplayer> replayer;
    AETS_ASSIGN_OR_RETURN(replayer, wire(node.get(), k, &lane));
    replayer->SetEpochSource(lane.source);
    lane.replayer = replayer.get();
    shards.push_back(std::move(replayer));
  }
  node->backup_ = std::make_unique<ShardedBackup>(&node->map_, std::move(shards));
  AETS_RETURN_NOT_OK(node->backup_->Start());
  return node;
}

Result<std::unique_ptr<BackupNode>> BackupNode::Attach(
    const Catalog* catalog, BackupNodeOptions options, LogShipper* shipper) {
  auto wire = [shipper](BackupNode* node, int k,
                        Lane* lane) -> Result<std::unique_ptr<AetsReplayer>> {
    if (k == 0) {
      node->shipper_ = shipper;
      shipper->SetShardMap(&node->map_);
    }
    if (lane->store) shipper->AttachShardSegmentStore(k, lane->store.get());
    shipper->AttachShardChannel(k, lane->channel.get());
    lane->source = shipper->shard_source(k);
    return node->NewReplayer(k);
  };
  return Build(catalog, std::move(options), kLinkChannelCapacity, wire);
}

Result<std::unique_ptr<BackupNode>> BackupNode::Connect(
    const Catalog* catalog, BackupNodeOptions options, const std::string& host,
    uint16_t port) {
  auto wire = [&](BackupNode* node, int k,
                  Lane* lane) -> Result<std::unique_ptr<AetsReplayer>> {
    const auto shard = static_cast<uint32_t>(k);
    net::EpochStreamClientOptions client;
    client.max_reconnects = kMaxReconnects;
    lane->client = std::make_unique<net::EpochStreamClient>(
        host, port, shard, lane->channel.get(), client);
    auto source = std::make_unique<net::TcpEpochSource>(host, port, shard);
    AETS_RETURN_NOT_OK(lane->client->Start());
    AETS_RETURN_NOT_OK(source->Connect());
    lane->source = source.get();
    lane->own_source = std::move(source);
    return node->NewReplayer(k);
  };
  return Build(catalog, std::move(options), kStreamChannelCapacity, wire);
}

Result<std::unique_ptr<BackupNode>> BackupNode::Recover(
    const Catalog* catalog, BackupNodeOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("recovery needs the node's dir");
  }
  auto wire = [](BackupNode* node, int k,
                 Lane* lane) -> Result<std::unique_ptr<AetsReplayer>> {
    // A closed channel: Start() + Stop() drives the normal gap-filling loop,
    // which fetches every epoch in [restart point, next_epoch) from disk and
    // replays it through the regular two-stage loop.
    lane->channel->Close();
    std::unique_ptr<AetsReplayer> replayer;
    Result<RestartPoint> point = ChooseRestartPoint(
        node->LaneDir(k), lane->store->first_epoch(), lane->store->next_epoch(),
        [&](const std::string& image) -> Result<EpochId> {
          replayer = node->NewReplayer(k);
          AETS_RETURN_NOT_OK(replayer->Bootstrap(image));
          return replayer->next_expected_epoch();
        });
    if (!point.ok()) {
      return Status(point.status().code(),
                    "shard " + std::to_string(k) + " unrecoverable: " +
                        std::string(point.status().message()));
    }
    if (point->image.empty()) replayer = node->NewReplayer(k);
    lane->restart = std::move(point).value();
    lane->restart_ts = replayer->GlobalVisibleTs();
    lane->own_source = std::make_unique<DurableEpochSource>(lane->store.get());
    lane->source = lane->own_source.get();
    return replayer;
  };
  return Build(catalog, std::move(options), kLinkChannelCapacity, wire);
}

Status BackupNode::ServeQueries(uint16_t port, net::QueryServerOptions options) {
  queries_ = std::make_unique<net::QueryServer>(
      backup_.get(), &backup_->coordinator(), options);
  return queries_->Start(port);
}

bool BackupNode::WaitStreamEnd(int64_t timeout_ms) {
  // A subscriber sees kStreamEnd only once the primary's shipper finished;
  // resets, timeouts and a primary still starting are absorbed by reconnect
  // and NACK.
  auto ended = [&] {
    for (const Lane& lane : lanes_) {
      if (lane.client && !lane.client->clean_end()) return false;
    }
    return true;
  };
  const int64_t deadline = MonotonicMicros() + timeout_ms * 1000;
  while (!ended() && MonotonicMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return ended();
}

Result<EpochId> BackupNode::Checkpoint(int lane, Timestamp through_ts) {
  AETS_CHECK_MSG(!options_.dir.empty(), "checkpoints need the node's dir");
  // Every lane rings the facade's bell on a watermark advance and on its
  // error latch, so this parks until one of the two can have happened.
  backup_->bell().WaitUntil([&] {
    return !backup_->error().ok() || backup_->GlobalVisibleTs() >= through_ts;
  });
  AETS_RETURN_NOT_OK(backup_->error());
  Lane& l = lanes_[lane];
  const std::string dir = LaneDir(lane);
  const EpochId floor = l.replayer->next_expected_epoch();
  AETS_RETURN_NOT_OK(l.replayer->WriteCheckpoint(CheckpointPathFor(dir, floor)));
  if (options_.disk_budget > 0) AETS_RETURN_NOT_OK(l.store->TruncateBelow(floor));
  PruneCheckpoints(dir, kKeepImages, l.store->first_epoch());
  return floor;
}

void BackupNode::Stop() {
  if (shipper_ != nullptr) shipper_->Finish();
  for (Lane& lane : lanes_) {
    if (lane.client) lane.client->Stop();
  }
  if (backup_) backup_->Stop();
  if (queries_) queries_->Stop();
}

uint64_t BackupNode::SumClients(
    uint64_t (net::EpochStreamClient::*counter)() const) const {
  uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    if (lane.client) total += (lane.client.get()->*counter)();
  }
  return total;
}

}  // namespace aets
