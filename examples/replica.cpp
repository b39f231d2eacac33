// Replica driver: one seeded workload, one backup node, and the process-level
// gauntlets built on them (DESIGN.md §10-§12;
// scripts/crash_restart_gauntlet.sh, scripts/endurance_check.sh,
// scripts/net_integration.sh).
//
// Every mode runs the same fully deterministic workload (no wall-clock
// heartbeats — epoch ids and commit timestamps depend only on --seed), and
// every backup is the same aets::BackupNode: one AetsReplayer per lane behind
// a ShardedBackup. A single shard is just --shard_count 1, whose lane keeps
// its segments directly in --dir; lane k of N > 1 uses <dir>/shard<k>.
//
//   run        Streams the workload through primary -> LogShipper (durable
//              segment tier attached, small RAM retention so epochs spill)
//              -> in-process backup, pacing itself so a kill -9 lands
//              mid-stream, and writing live checkpoints into each lane's
//              directory between epochs. The crash gauntlet kills this
//              process at a seeded random point.
//
//   digest     The uninterrupted reference: same pipeline run to completion,
//              then one line per data epoch
//                  EPOCH <id> <max_commit_ts> <digest>
//              and a FINAL line. Digests are taken at each epoch's max
//              commit timestamp (valid historically: no GC here).
//
//   recover    Reopens each lane's segment directory after a crash
//              (SegmentStore::Open truncates any torn tail), restarts each
//              lane from the image ChooseRestartPoint picks, and replays the
//              durable tail through the normal main loop via
//              DurableEpochSource. Verifies every lane against the sim
//              oracle's ReferenceModel (exact rows, not just a digest) and
//              prints
//                  RECOVERED next_epoch=<n> last_data=<e> ts=<ts> digest=<d>
//                            fetches=<f> tail=<n> torn=<n> floor=<f>
//              for the gauntlet to match against the reference EPOCH table.
//
//   primary    Serves the workload on a TCP EpochStreamServer (prints
//              LISTENING <port> once bound), paced, with a heartbeat at
//              fixed txn indices. After Finish it prints
//                  FINAL <last_commit_ts> <digest>
//              and lingers serving NACK fetches; its retention buffer covers
//              the whole run, so a backup restarted from empty recovers the
//              entire prefix by NACK.
//
//   backup     The backup node fed over TCP: one EpochStreamClient per lane
//              from --connect, NACKs over TcpEpochSource, snapshot scans on a
//              QueryServer (prints QUERY_LISTENING <port>). When the stream
//              ends cleanly it prints
//                  FINAL <watermark> <digest> epochs=<n> reconnects=<n>
//              (the watermark may sit at the trailing heartbeat, past the
//              last commit — no commits separate them, so digests agree).
//
//   client     Issues snapshot scans against a backup's query port and
//              prints one QUERY line each.
//
//   reference  The primary's workload with no network; prints the same
//              FINAL line. All three FINAL digests must be identical.
//
// With --disk_budget B > 0 the shipper's CheckpointTrigger fires whenever a
// lane's durable log exceeds B bytes; the driver then seals the open epoch
// and the node quiesces, writes a live checkpoint image, truncates the
// durable log below it (SegmentStore::TruncateBelow), and rotates old images.
// Budget triggers land at deterministic txn indices (bytes appended are a
// pure function of the seed), so run and digest modes checkpoint and truncate
// at identical epochs and the reference EPOCH table — harvested incrementally
// before each truncation — still covers the whole history. Recovery then has
// to bridge the deleted prefix through the checkpoint image, which is the
// case the endurance gauntlet exists to prove.
//
//   $ ./replica run --dir /tmp/aets-seg --seed 11
//   $ ./replica recover --dir /tmp/aets-seg --seed 11
//   $ ./replica primary --listen_port 0 --seed 11
//   $ ./replica backup --connect 127.0.0.1:9xxx --query_port 0
//   $ ./replica client --connect 127.0.0.1:9yyy

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aets/bench/harness.h"
#include "aets/catalog/shard_map.h"
#include "aets/net/epoch_stream.h"
#include "aets/net/query_server.h"
#include "aets/node/backup_node.h"
#include "aets/primary/primary_db.h"
#include "aets/replication/log_shipper.h"
#include "aets/sim/reference_model.h"

using namespace aets;

namespace {

// The settings a script varies; everything else is a per-mode constant.
struct Config {
  std::string mode;
  std::string dir;        // run/digest/recover: segments + checkpoint images
  uint64_t seed = 1;
  int num_txns = 20000;
  int shard_count = 1;    // backup lanes (DESIGN.md §11)
  // Per-lane durable-log budget in bytes (SegmentStoreOptions::
  // disk_budget_bytes). 0 disables truncation entirely.
  uint64_t disk_budget = 0;
  int listen_port = 0;    // primary's epoch-stream port (0 = ephemeral)
  std::string connect;    // host:port (backup: stream port; client: query)
  int query_port = 0;     // backup's query port (0 = ephemeral)
};

constexpr int kTables = 4;
constexpr int kEpochSize = 32;
constexpr int kPaceBatch = 50;     // txns per pacing step (run, primary)
constexpr int kPauseUs = 2000;     // sleep per pacing step
constexpr int kCkptEvery = 3000;   // txns between epoch flushes / checkpoints
constexpr int kHeartbeatEvery = 500;  // primary: fixed indices, so commit
                                      // timestamps stay seed-deterministic
constexpr size_t kSpillRetention = 16;       // run/digest: forces spills
constexpr size_t kNackRetention = 1u << 16;  // primary: covers a from-empty
                                             // backup restart
constexpr int kLingerMs = 60000;   // primary: serve NACKs after FINAL
constexpr int kStreamWaitMs = 120000;  // backup: bound on waiting for the end
constexpr int kScans = 8;          // client

// ---------------------------------------------------------------------------
// The seeded workload.

// Deterministic splitmix64 — the workload must replay identically in every
// process with the same seed.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

void FillCatalog(Catalog* catalog) {
  for (int t = 0; t < kTables; ++t) {
    AETS_CHECK(catalog
                   ->RegisterTable("t" + std::to_string(t),
                                   Schema::Of({{"count", ColumnType::kInt64},
                                               {"payload", ColumnType::kString}}))
                   .ok());
  }
}

// One deterministic transaction: 1-3 ops over 150 keys per table, with the
// insert/update/delete choice keyed to what is currently live.
void ApplyOneTxn(PrimaryDb* db, Rng* rng, std::vector<std::set<int64_t>>* live,
                 int64_t i) {
  PrimaryTxn txn = db->Begin();
  int ops = 1 + static_cast<int>(rng->Below(3));
  for (int o = 0; o < ops; ++o) {
    TableId t = static_cast<TableId>(rng->Below(kTables));
    int64_t key = static_cast<int64_t>(rng->Below(150));
    uint64_t roll = rng->Below(100);
    auto& alive = (*live)[t];
    if (alive.count(key) == 0) {
      txn.Insert(t, key,
                 {{0, Value(i)}, {1, Value("ins-" + std::to_string(i))}});
      alive.insert(key);
    } else if (roll < 75) {
      txn.Update(t, key,
                 {{0, Value(i)}, {1, Value("upd-" + std::to_string(i))}});
    } else {
      txn.Delete(t, key);
      alive.erase(key);
    }
  }
  if (!db->Commit(std::move(txn)).ok()) {
    std::fprintf(stderr, "commit %lld failed\n", static_cast<long long>(i));
    std::exit(2);
  }
}

// Commits --txns transactions, calling `after(i)` after the i-th; stops early
// when `after` returns false. Pacing only sleeps, so paced and unpaced runs
// emit the identical epoch stream.
void RunWorkload(const Config& cfg, PrimaryDb* db, bool paced,
                 const std::function<bool(int)>& after) {
  Rng rng{cfg.seed};
  std::vector<std::set<int64_t>> live(kTables);
  for (int i = 1; i <= cfg.num_txns; ++i) {
    ApplyOneTxn(db, &rng, &live, i);
    if (paced && i % kPaceBatch == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(kPauseUs));
    }
    if (!after(i)) return;
  }
}

// ---------------------------------------------------------------------------
// The backup node (src/aets/node/backup_node.h): every mode's backup is one
// BackupNode with --shard_count lanes, fed in process, over TCP, or from its
// own --dir.

BackupNodeOptions NodeOptions(const Config& cfg) {
  return {.shards = cfg.shard_count,
          .dir = cfg.dir,
          .disk_budget = cfg.disk_budget};
}

// The started node, or nullptr after printing why it did not start.
std::unique_ptr<BackupNode> Started(Result<std::unique_ptr<BackupNode>> node) {
  if (node.ok()) return std::move(node).value();
  std::fprintf(stderr, "backup: %s\n", node.status().ToString().c_str());
  return nullptr;
}

// ---------------------------------------------------------------------------
// Durable modes: run, digest, recover.

// Resident set size in KiB, for the endurance gauntlet's memory check.
long ReadRssKb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::atol(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

int RunMode(const Config& cfg, bool paced) {
  Catalog catalog;
  FillCatalog(&catalog);
  LogicalClock clock;
  PrimaryDb primary(&catalog, &clock);
  const int n = cfg.shard_count;
  LogShipper shipper(kEpochSize, kSpillRetention);
  std::unique_ptr<BackupNode> node =
      Started(BackupNode::Attach(&catalog, NodeOptions(cfg), &shipper));
  if (!node) return 2;
  primary.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  // Disk budget: the shipper's trigger marks the over-budget lane; the
  // driver consumes the mark at one deterministic point per txn (below), so
  // paced and unpaced runs checkpoint and truncate at identical epochs. A
  // mark is level-held until consumed, so a slow driver never misses one.
  std::vector<std::atomic<bool>> checkpoint_wanted(static_cast<size_t>(n));
  if (cfg.disk_budget > 0) {
    shipper.SetCheckpointTrigger([&](int shard, EpochId, uint64_t) {
      checkpoint_wanted[static_cast<size_t>(shard)].store(
          true, std::memory_order_release);
    });
  }

  // The epoch table, harvested incrementally: truncation deletes the oldest
  // durable epochs, so the (id, ts) rows digest mode prints are collected
  // BEFORE each truncation and completed after Finish. The digests
  // themselves still come from the fully caught-up backup at the very end
  // (valid at historical timestamps: the replay store runs no GC). An epoch
  // counts as data if any lane carries transactions; its timestamp is the
  // full-epoch max every lane header carries.
  std::vector<std::pair<EpochId, Timestamp>> epoch_table;
  EpochId harvested = 0;
  auto harvest = [&]() {
    EpochId limit = node->store(0)->next_epoch();
    for (int s = 1; s < n; ++s) {
      limit = std::min(limit, node->store(s)->next_epoch());
    }
    for (EpochId id = harvested; id < limit; ++id) {
      bool has_data = false;
      Timestamp ts = kInvalidTimestamp;
      for (int s = 0; s < n; ++s) {
        auto epoch = node->store(s)->Read(id);
        if (!epoch || epoch->is_heartbeat()) continue;
        has_data = true;
        ts = std::max(ts, epoch->max_commit_ts);
      }
      if (has_data) epoch_table.emplace_back(id, ts);
    }
    harvested = std::max(harvested, limit);
  };

  // One lane checkpoint: seal the open epoch, harvest (the shipper appends
  // at deliver time, so the disk already holds every shipped epoch), then
  // let the node image the lane once the backup caught up, truncate below
  // the image when a budget is set, and rotate old images. The
  // single-threaded driver ships nothing while the node checkpoints.
  auto checkpoint = [&](int s, int txns) -> Status {
    shipper.FlushEpoch();
    harvest();  // the epochs below a new floor leave the disk now
    Result<EpochId> floor = node->Checkpoint(s, primary.last_commit_ts());
    if (!floor.ok()) return floor.status();
    SegmentStore* store = node->store(s);
    std::printf("%s shard=%d floor=%" PRIu64 " first=%" PRIu64
                " deleted=%" PRIu64 " reclaimed=%" PRIu64 " disk=%" PRIu64
                " rss_kb=%ld txns=%d\n",
                cfg.disk_budget > 0 ? "TRUNC" : "CKPT", s,
                static_cast<uint64_t>(*floor),
                static_cast<uint64_t>(store->first_epoch()),
                store->segments_deleted(), store->bytes_reclaimed(),
                store->disk_bytes(), ReadRssKb(), txns);
    std::fflush(stdout);
    return Status::OK();
  };

  uint64_t max_disk = 0;
  Status failed;
  RunWorkload(cfg, &primary, paced, [&](int i) {
    for (int s = 0; s < n; ++s) {
      max_disk = std::max(max_disk, node->store(s)->disk_bytes());
    }
    if (i % kCkptEvery == 0) {
      // Flush in BOTH modes: epoch boundaries are part of the deterministic
      // stream, and the reference digest table must place them exactly where
      // the killed run did.
      shipper.FlushEpoch();
    }
    for (int s = 0; s < n && failed.ok(); ++s) {
      // A budget checkpoint runs in BOTH modes — the trigger fires at a
      // deterministic txn index, so the reference stream must incur the same
      // extra flush. Without a budget only the paced run writes images.
      bool due = cfg.disk_budget > 0
                     ? checkpoint_wanted[static_cast<size_t>(s)].exchange(
                           false, std::memory_order_acq_rel)
                     : paced && i % kCkptEvery == 0;
      if (due) failed = checkpoint(s, i);
    }
    return failed.ok();
  });
  node->Stop();  // finishes the shipper, then drains every lane
  if (failed.ok()) failed = node->backup().error();
  if (!failed.ok()) {
    std::fprintf(stderr, "run: %s\n", failed.ToString().c_str());
    return 2;
  }

  // The epoch table (digest mode prints it; run mode prints FINAL only,
  // used when the gauntlet's kill misses and the run completes).
  harvest();
  EpochId last_data = 0;
  Timestamp last_ts = kInvalidTimestamp;
  for (const auto& [id, ts] : epoch_table) {
    if (cfg.mode == "digest") {
      std::printf("EPOCH %" PRIu64 " %" PRIu64 " %016" PRIx64 "\n",
                  static_cast<uint64_t>(id), static_cast<uint64_t>(ts),
                  ReplicaDigestAt(&node->backup(), &catalog, ts));
    }
    last_data = id;
    last_ts = ts;
  }
  uint64_t truncations = 0;
  uint64_t reclaimed = 0;
  for (int s = 0; s < n; ++s) {
    truncations += node->store(s)->truncations();
    reclaimed += node->store(s)->bytes_reclaimed();
  }
  std::printf("FINAL %" PRIu64 " %" PRIu64 " %016" PRIx64 " spills=%" PRIu64
              " produced=%" PRIu64 " covered=%" PRIu64 " truncations=%" PRIu64
              " reclaimed=%" PRIu64 " max_disk=%" PRIu64 " budget=%" PRIu64
              "\n",
              static_cast<uint64_t>(last_data),
              static_cast<uint64_t>(last_ts),
              ReplicaDigestAt(&node->backup(), &catalog, last_ts),
              shipper.epochs_spilled(), shipper.epochs_produced(),
              shipper.spills_below_floor(), truncations, reclaimed, max_disk,
              cfg.disk_budget);
  std::fflush(stdout);
  return 0;
}

// What the exactness probes gather across the lanes.
struct Tally {
  EpochId last_data = 0;
  Timestamp last_ts = kInvalidTimestamp;
  size_t rows = 0;
};

// Exactness probe of recovered lane `s`: rebuild the lane's history from its
// durable log (the model is a second implementation of the storage
// semantics) and check the lane row-for-row against it. When the image
// covers epochs the log no longer holds, the model is seeded from the lane's
// store at the snapshot timestamp (still valid after the tail replayed: the
// MVCC store keeps history and runs no GC here) and replays only the tail —
// epochs still on disk below the image's coverage are scanned for the
// last-data bookkeeping but skipped by the model, exactly as recovery itself
// skipped them.
Status ProbeLane(BackupNode* node, int s, EpochId common_end, Tally* tally) {
  Replayer* lane = node->backup().shard(s);
  SegmentStore* store = node->store(s);
  const EpochId boot = node->restart(s).next_epoch;
  const Timestamp snapshot = node->restart_ts(s);
  AETS_RETURN_NOT_OK(lane->error());
  sim::ReferenceModel model(kTables);
  if (boot > 0) {
    AETS_RETURN_NOT_OK(model.SeedFromStore(*lane->store(), snapshot, boot));
  }
  // The head of the lane's durable history: the image's snapshot, then
  // every replayed header. A lane header carries the FULL epoch's
  // max_commit_ts, so with N > 1 the head may sit past the lane's own
  // last commit; the replayed watermark must land exactly on it.
  Timestamp head = boot > 0 ? snapshot : kInvalidTimestamp;
  for (EpochId id = store->first_epoch(); id < store->next_epoch(); ++id) {
    auto epoch = store->Read(id);
    if (!epoch) {
      return Status::Corruption("durable epoch " + std::to_string(id) +
                                " unreadable");
    }
    if (id >= boot) {
      AETS_RETURN_NOT_OK(model.Apply(*epoch));
      head = std::max(head, epoch->max_commit_ts);
    }
    if (!epoch->is_heartbeat() && id < common_end) {
      tally->last_data = std::max(tally->last_data, id);
      tally->last_ts = std::max(tally->last_ts, epoch->max_commit_ts);
    }
  }
  if (lane->GlobalVisibleTs() != head) {
    return Status::Corruption(
        "watermark " + std::to_string(lane->GlobalVisibleTs()) +
        " != durable history " + std::to_string(head));
  }
  // The model only sees the lane's own commits: probe at the lane's own
  // history point — between it and the watermark the lane's tables have
  // no writes by construction.
  if (model.MaxVisibleTs() != kInvalidTimestamp) {
    AETS_RETURN_NOT_OK(
        model.ExpectStoreExact(*lane->store(), model.MaxVisibleTs()));
    tally->rows += lane->store()->VisibleRowCount(model.MaxVisibleTs());
  }
  return Status::OK();
}

// Restart after a crash: the node restarts each lane from the image
// ChooseRestartPoint picks (or cold) and replays every lane's durable tail
// through its own DurableEpochSource; then each lane is checked row-for-row
// against a per-lane ReferenceModel (a lane's durable log plus its image is
// a complete history of its own tables, so model and lane must agree).
int RecoverMode(const Config& cfg) {
  Catalog catalog;
  FillCatalog(&catalog);
  const int n = cfg.shard_count;
  std::unique_ptr<BackupNode> node =
      Started(BackupNode::Recover(&catalog, NodeOptions(cfg)));
  if (!node) return 2;
  for (int s = 0; s < n; ++s) {
    const RestartPoint& point = node->restart(s);
    for (const std::string& why : point.rejected) {
      std::fprintf(stderr, "shard %d skipped %s\n", s, why.c_str());
    }
    if (!point.image.empty()) {
      std::printf("BOOTSTRAP shard=%d %s epoch=%" PRIu64 "\n", s,
                  point.image.c_str(), static_cast<uint64_t>(point.next_epoch));
    }
  }
  node->Stop();  // every lane has replayed its durable tail

  // A kill can land between two lanes' appends of one epoch, leaving their
  // logs at different lengths. The digest is taken at the last data epoch
  // every lane holds: past it, a shorter lane has not replayed its part.
  EpochId common_end = node->store(0)->next_epoch();
  for (int s = 1; s < n; ++s) {
    common_end = std::min(common_end, node->store(s)->next_epoch());
  }
  Tally tally;
  EpochId floor = node->store(0)->first_epoch();
  uint64_t fetches = 0;
  uint64_t tail = 0;
  uint64_t torn = 0;
  for (int s = 0; s < n; ++s) {
    Status st = ProbeLane(node.get(), s, common_end, &tally);
    if (!st.ok()) {
      std::fprintf(stderr, "shard %d: %s\n", s, st.ToString().c_str());
      return 2;
    }
    SegmentStore* store = node->store(s);
    floor = std::min(floor, store->first_epoch());
    fetches += store->fetches_from_disk();
    tail += store->next_epoch() - node->restart(s).next_epoch;
    torn += store->torn_frames_truncated();
  }
  std::printf("ORACLE exact rows=%zu shards=%d\n", tally.rows, n);
  std::printf("RECOVERED next_epoch=%" PRIu64 " last_data=%" PRIu64
              " ts=%" PRIu64 " digest=%016" PRIx64 " fetches=%" PRIu64
              " tail=%" PRIu64 " torn=%" PRIu64 " floor=%" PRIu64 "\n",
              static_cast<uint64_t>(node->store(0)->next_epoch()),
              static_cast<uint64_t>(tally.last_data),
              static_cast<uint64_t>(tally.last_ts),
              ReplicaDigestAt(&node->backup(), &catalog, tally.last_ts),
              fetches, tail, torn, static_cast<uint64_t>(floor));
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// Network modes: primary, reference, backup, client.

bool SplitHostPort(const std::string& s, std::string* host, uint16_t* port) {
  size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon + 1 >= s.size()) return false;
  *host = s.substr(0, colon);
  *port = static_cast<uint16_t>(std::atoi(s.c_str() + colon + 1));
  return *port != 0;
}

int PrimaryMode(const Config& cfg, bool networked) {
  Catalog catalog;
  FillCatalog(&catalog);
  LogicalClock clock;
  PrimaryDb primary(&catalog, &clock);
  ShardMap map = ShardMap::Hash(kTables, cfg.shard_count);
  LogShipper shipper(kEpochSize, kNackRetention);
  shipper.SetShardMap(&map);
  primary.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  net::EpochStreamServer server(&shipper);
  if (networked) {
    Status s = server.Start(static_cast<uint16_t>(cfg.listen_port));
    if (!s.ok()) {
      std::fprintf(stderr, "listen: %s\n", s.ToString().c_str());
      return 2;
    }
    std::printf("LISTENING %u\n", server.port());
    std::fflush(stdout);
  }

  // The primary (paced, networked) and the reference (unpaced, no network)
  // emit the exact same epoch stream.
  RunWorkload(cfg, &primary, networked, [&](int i) {
    if (i % kHeartbeatEvery == 0) {
      shipper.ShipHeartbeat(primary.AcquireHeartbeatTs());
    }
    return true;
  });
  // The trailing heartbeat carries the watermark past the last commit, so
  // the backup's final snapshot covers the whole history.
  shipper.ShipHeartbeat(primary.AcquireHeartbeatTs());
  shipper.Finish();
  Timestamp final_ts = primary.last_commit_ts();
  std::printf("FINAL %" PRIu64 " %016" PRIx64 "\n",
              static_cast<uint64_t>(final_ts),
              primary.store().DigestAt(final_ts));
  std::fflush(stdout);

  if (networked) {
    // The stream is finished but a (possibly restarted) backup may still be
    // draining the gap by NACK against the retention buffer — keep the
    // control plane alive until the script tears us down.
    std::this_thread::sleep_for(std::chrono::milliseconds(kLingerMs));
    server.Stop();
  }
  return 0;
}

int BackupMode(const Config& cfg) {
  std::string host;
  uint16_t port = 0;
  if (!SplitHostPort(cfg.connect, &host, &port)) {
    std::fprintf(stderr, "--connect host:port required\n");
    return 2;
  }
  Catalog catalog;
  FillCatalog(&catalog);
  // A restarted backup starts empty and recovers the whole prefix by NACK.
  BackupNodeOptions options;
  options.shards = cfg.shard_count;
  std::unique_ptr<BackupNode> node =
      Started(BackupNode::Connect(&catalog, options, host, port));
  if (!node) return 2;
  Status s = node->ServeQueries(static_cast<uint16_t>(cfg.query_port));
  if (!s.ok()) {
    std::fprintf(stderr, "query listen: %s\n", s.ToString().c_str());
    return 2;
  }
  std::printf("QUERY_LISTENING %u\n", node->query_port());
  std::fflush(stdout);

  const bool clean = node->WaitStreamEnd(kStreamWaitMs);
  node->Stop();
  if (!clean) {
    std::fprintf(stderr, "stream did not end within %d ms\n", kStreamWaitMs);
    return 2;
  }
  Status error = node->backup().error();
  if (!error.ok()) {
    std::fprintf(stderr, "replay error: %s\n", error.ToString().c_str());
    return 2;
  }
  Timestamp watermark = node->backup().GlobalVisibleTs();
  std::printf("FINAL %" PRIu64 " %016" PRIx64 " epochs=%" PRIu64
              " reconnects=%" PRIu64 "\n",
              static_cast<uint64_t>(watermark),
              ReplicaDigestAt(&node->backup(), &catalog, watermark),
              node->epochs_received(), node->reconnects());
  std::fflush(stdout);
  return 0;
}

int ClientMode(const Config& cfg) {
  std::string host;
  uint16_t port = 0;
  if (!SplitHostPort(cfg.connect, &host, &port)) {
    std::fprintf(stderr, "--connect host:port required\n");
    return 2;
  }
  for (int i = 0; i < kScans; ++i) {
    // One connection per scan: exercises admission each time, and a kBusy
    // shed (connection gone) is retried on a fresh connection.
    Result<net::QueryClient> client = net::QueryClient::Connect(host, port);
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
      return 2;
    }
    TableId table = static_cast<TableId>(i % kTables);
    Result<net::QueryClient::ScanResult> scan = client->Scan(table);
    if (!scan.ok()) {
      std::fprintf(stderr, "scan: %s\n", scan.status().ToString().c_str());
      return 2;
    }
    if (scan->busy) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --i;
      continue;
    }
    std::printf("QUERY table=%u ts=%" PRIu64 " rows=%" PRIu64
                " digest=%016" PRIx64 "\n",
                table, static_cast<uint64_t>(scan->pinned_ts), scan->row_count,
                scan->digest);
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s run|digest|recover|primary|backup|client|reference "
                 "[--dir D] [--seed N] [--txns N] [--shard_count N] "
                 "[--disk_budget BYTES] [--listen_port P] [--connect H:P] "
                 "[--query_port P]\n",
                 argv[0]);
    return 2;
  }
  cfg.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--dir") cfg.dir = val;
    else if (flag == "--seed") cfg.seed = std::strtoull(val, nullptr, 10);
    else if (flag == "--txns") cfg.num_txns = std::atoi(val);
    else if (flag == "--shard_count") cfg.shard_count = std::atoi(val);
    else if (flag == "--disk_budget") cfg.disk_budget = std::strtoull(val, nullptr, 10);
    else if (flag == "--listen_port") cfg.listen_port = std::atoi(val);
    else if (flag == "--connect") cfg.connect = val;
    else if (flag == "--query_port") cfg.query_port = std::atoi(val);
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (cfg.shard_count < 1) {
    std::fprintf(stderr, "--shard_count must be >= 1\n");
    return 2;
  }
  const bool durable =
      cfg.mode == "run" || cfg.mode == "digest" || cfg.mode == "recover";
  if (durable && cfg.dir.empty()) {
    std::fprintf(stderr, "--dir is required\n");
    return 2;
  }
  if (cfg.mode == "run") return RunMode(cfg, /*paced=*/true);
  if (cfg.mode == "digest") return RunMode(cfg, /*paced=*/false);
  if (cfg.mode == "recover") return RecoverMode(cfg);
  if (cfg.mode == "primary") return PrimaryMode(cfg, /*networked=*/true);
  if (cfg.mode == "reference") return PrimaryMode(cfg, /*networked=*/false);
  if (cfg.mode == "backup") return BackupMode(cfg);
  if (cfg.mode == "client") return ClientMode(cfg);
  std::fprintf(stderr, "unknown mode %s\n", cfg.mode.c_str());
  return 2;
}
