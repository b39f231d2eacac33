#include "aets/bench/harness.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <thread>

#include <string>

#include "aets/common/macros.h"
#include "aets/obs/export.h"
#include "aets/replication/log_shipper.h"

namespace aets {

namespace {

std::string g_metrics_json_path;  // set by BenchInit, read by the atexit hook

void DumpMetricsAtExit() {
  if (g_metrics_json_path.empty()) return;
  Status st = obs::WriteMetricsJsonFile(g_metrics_json_path);
  if (st.ok()) {
    std::fprintf(stderr, "metrics snapshot written to %s\n",
                 g_metrics_json_path.c_str());
  } else {
    std::fprintf(stderr, "metrics export failed: %s\n", st.ToString().c_str());
  }
}

}  // namespace

void BenchInit(int argc, char** argv) {
  const char* env = std::getenv("AETS_METRICS_JSON");
  if (env != nullptr && env[0] != '\0') {
    g_metrics_json_path = env;
    // Take ownership of the dump: without this the MetricsRegistry's own
    // env hook would also fire at exit and write a second file.
    unsetenv("AETS_METRICS_JSON");
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--metrics-json" && i + 1 < argc) {
      g_metrics_json_path = argv[++i];
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      g_metrics_json_path = arg.substr(std::string("--metrics-json=").size());
    } else {
      std::fprintf(stderr, "usage: %s [--metrics-json <path>]\n", argv[0]);
      std::exit(2);
    }
  }
  if (!g_metrics_json_path.empty()) std::atexit(DumpMetricsAtExit);
}

double BenchScale() {
  const char* env = std::getenv("AETS_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

int BenchThreads(int fallback) {
  const char* env = std::getenv("AETS_BENCH_THREADS");
  if (env == nullptr) return fallback;
  int v = std::atoi(env);
  return v > 0 ? v : fallback;
}

uint64_t Scaled(uint64_t n, uint64_t min_value) {
  double scaled = static_cast<double>(n) * BenchScale();
  uint64_t out = static_cast<uint64_t>(scaled);
  return out < min_value ? min_value : out;
}

std::string KindName(ReplayerKind kind) {
  switch (kind) {
    case ReplayerKind::kAets:
      return "AETS";
    case ReplayerKind::kAetsNoTwoStage:
      return "AETS(-two-stage)";
    case ReplayerKind::kAetsNoac:
      return "AETS-NOAC";
    case ReplayerKind::kAetsSingleCommit:
      return "AETS(-par-commit)";
    case ReplayerKind::kTplr:
      return "TPLR";
    case ReplayerKind::kAtr:
      return "ATR";
    case ReplayerKind::kC5:
      return "C5";
    case ReplayerKind::kSerial:
      return "Serial";
  }
  return "?";
}

namespace {

/// MakeReplayer, with `lane` appended to the name of the AETS-engine kinds
/// (the baselines carry fixed names).
std::unique_ptr<Replayer> BuildReplayer(const ReplayerSpec& spec,
                                        const Catalog* catalog,
                                        EpochChannel* channel,
                                        const std::string& lane) {
  switch (spec.kind) {
    case ReplayerKind::kAets:
    case ReplayerKind::kAetsNoTwoStage:
    case ReplayerKind::kAetsNoac:
    case ReplayerKind::kAetsSingleCommit: {
      AetsOptions options;
      options.replay_threads = spec.threads;
      options.commit_threads =
          spec.kind == ReplayerKind::kAetsSingleCommit ? 1 : spec.commit_threads;
      options.two_stage = spec.kind != ReplayerKind::kAetsNoTwoStage;
      options.adaptive_alloc = spec.kind != ReplayerKind::kAetsNoac;
      options.grouping = spec.grouping;
      options.static_hot_groups = spec.hot_groups;
      options.initial_rates = spec.rates;
      options.rate_provider = spec.rate_provider;
      options.regroup_on_rate_change = spec.regroup_on_rate_change;
      options.dbscan_eps = spec.dbscan_eps;
      options.column_store_enabled = false;
      options.name += lane;
      return std::make_unique<AetsReplayer>(catalog, channel, options);
    }
    case ReplayerKind::kTplr: {
      AetsOptions options = TplrBaselineOptions(spec.threads);
      options.column_store_enabled = false;
      options.name += lane;
      return std::make_unique<AetsReplayer>(catalog, channel, options);
    }
    case ReplayerKind::kAtr:
      return std::make_unique<AtrReplayer>(catalog, channel,
                                           AtrOptions{spec.threads});
    case ReplayerKind::kC5:
      return std::make_unique<C5Replayer>(catalog, channel,
                                          C5Options{spec.threads});
    case ReplayerKind::kSerial:
      return std::make_unique<SerialReplayer>(catalog, channel);
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Replayer> MakeReplayer(const ReplayerSpec& spec,
                                       const Catalog* catalog,
                                       EpochChannel* channel) {
  return BuildReplayer(spec, catalog, channel, "");
}

std::unique_ptr<ShardedBackup> MakeShardedReplayer(
    const ReplayerSpec& spec, const Catalog* catalog, const ShardMap* map,
    const std::vector<EpochChannel*>& shard_channels) {
  std::vector<ShardThreads> budgets =
      SplitShardThreads(*map, spec.rates, spec.threads, spec.commit_threads);
  AETS_CHECK_MSG(shard_channels.size() == budgets.size(),
                 "need exactly one channel per shard");
  std::vector<std::unique_ptr<Replayer>> shards;
  for (size_t s = 0; s < budgets.size(); ++s) {
    ReplayerSpec sub = spec;
    sub.threads = budgets[s].replay_threads;
    sub.commit_threads = budgets[s].commit_threads;
    shards.push_back(BuildReplayer(sub, catalog, shard_channels[s],
                                   ".s" + std::to_string(s)));
  }
  return std::make_unique<ShardedBackup>(map, std::move(shards));
}

std::vector<std::vector<ShippedEpoch>> ShardRecordedLog(const RecordedLog& log,
                                                        const ShardMap& map) {
  const int n = map.num_shards();
  // One lane carries the log exactly as recorded: share its payloads instead
  // of decoding and re-shipping them.
  if (n == 1) return {log.epochs};
  // Seal only on FlushEpoch so the re-shipped epoch boundaries land exactly
  // where the recorded ones did.
  LogShipper shipper(/*epoch_size=*/SIZE_MAX);
  shipper.SetShardMap(&map);
  std::vector<std::unique_ptr<EpochChannel>> recorders;
  for (int s = 0; s < n; ++s) {
    recorders.push_back(std::make_unique<EpochChannel>(0));
    shipper.AttachShardChannel(s, recorders.back().get());
  }
  for (const ShippedEpoch& shipped : log.epochs) {
    if (shipped.is_heartbeat()) {
      shipper.ShipHeartbeat(shipped.heartbeat_ts);
      continue;
    }
    auto epoch = DecodeEpoch(shipped);
    AETS_CHECK(epoch.ok());
    for (auto& txn : epoch->txns) shipper.OnCommit(std::move(txn));
    shipper.FlushEpoch();
  }
  shipper.Finish();
  std::vector<std::vector<ShippedEpoch>> streams(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    while (auto sub = recorders[static_cast<size_t>(s)]->TryReceive()) {
      streams[static_cast<size_t>(s)].push_back(std::move(*sub));
    }
  }
  return streams;
}

uint64_t ReplicaDigestAt(Replayer* replayer, const Catalog* catalog,
                         Timestamp ts) {
  uint64_t digest = 0;
  for (TableId t = 0; t < static_cast<TableId>(catalog->num_tables()); ++t) {
    digest ^= TableStore::Mix(
        t, replayer->StoreForTable(t)->GetTable(t)->DigestAt(ts));
  }
  return digest;
}

RecordedLog RecordWorkload(Workload* workload, uint64_t num_txns,
                           size_t epoch_size, uint64_t seed) {
  RecordedLog log;
  LogicalClock clock;
  PrimaryDb db(&workload->catalog(), &clock);
  LogShipper shipper(epoch_size);
  // Unbounded channel acting as the recorder.
  EpochChannel recorder(0);
  shipper.AttachChannel(&recorder);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  Rng rng(seed);
  workload->Load(&db, &rng);
  log.load_txns = db.last_committed_txn();
  log.load_end_ts = db.last_commit_ts();

  int64_t start = MonotonicMicros();
  OltpDriver driver(workload, &db, seed);
  driver.Run(num_txns);
  int64_t elapsed = MonotonicMicros() - start;
  log.mix_txns = driver.txns_committed();
  log.primary_txns_per_sec =
      elapsed > 0 ? static_cast<double>(log.mix_txns) * 1e6 /
                        static_cast<double>(elapsed)
                  : 0;

  shipper.Finish();
  while (auto epoch = recorder.TryReceive()) {
    log.epochs.push_back(std::move(*epoch));
  }
  log.final_ts = db.last_commit_ts();
  log.primary_digest = db.store().DigestAt(log.final_ts);
  return log;
}

namespace {

void FillBatchResult(const Replayer& replayer, BatchReplayResult* result) {
  const ReplayStats& stats = replayer.stats();
  result->wall_us = stats.WallMicros();
  result->txns_per_sec = stats.TxnsPerSec();
  result->stage1_wall_us = stats.stage1_wall_ns.load() / 1000;
  result->stage2_wall_us = stats.stage2_wall_ns.load() / 1000;
  result->dispatch_frac = stats.DispatchFraction();
  result->replay_frac = stats.ReplayFraction();
  result->commit_frac = stats.CommitFraction();
  int64_t busy = stats.dispatch_ns.load() + stats.replay_ns.load() +
                 stats.commit_ns.load();
  result->sync_frac = busy > 0
                          ? static_cast<double>(stats.sync_wait_ns.load()) /
                                static_cast<double>(busy)
                          : 0;
}

}  // namespace

BatchReplayResult ReplayRecorded(const RecordedLog& log, const Catalog* catalog,
                                 const ReplayerSpec& spec) {
  // Split the recorded stream into per-shard lanes (DESIGN.md §11; one lane
  // when unsharded) and fill the per-shard channels BEFORE building the
  // backup, so the measured wall covers replay only.
  ShardMap map = ShardMap::Hash(catalog->num_tables(), spec.shard_count);
  std::vector<std::vector<ShippedEpoch>> streams = ShardRecordedLog(log, map);
  std::vector<std::unique_ptr<EpochChannel>> channels;
  std::vector<EpochChannel*> raw;
  for (auto& stream : streams) {
    channels.push_back(std::make_unique<EpochChannel>(0));
    for (const ShippedEpoch& sub : stream) {
      ShippedEpoch copy = sub;  // payload shared; metadata copied
      AETS_CHECK(channels.back()->Send(std::move(copy)));
    }
    channels.back()->Close();
    raw.push_back(channels.back().get());
  }
  std::unique_ptr<ShardedBackup> backup =
      MakeShardedReplayer(spec, catalog, &map, raw);
  AETS_CHECK(backup->Start().ok());
  backup->Stop();

  BatchReplayResult result;
  result.name = KindName(spec.kind);
  FillBatchResult(*backup, &result);
  result.state_matches_primary =
      ReplicaDigestAt(backup.get(), catalog, log.final_ts) ==
      log.primary_digest;
  return result;
}

LiveRunResult RunLive(
    const std::function<std::unique_ptr<Workload>()>& make_workload,
    const ReplayerSpec& spec, const LiveRunOptions& options) {
  AETS_CHECK_MSG(spec.shard_count == 1,
                 "RunLive replays through one replayer; shard_count must be 1");
  std::unique_ptr<Workload> workload = make_workload();
  LogicalClock clock;
  PrimaryDb db(&workload->catalog(), &clock);
  LogShipper shipper(options.epoch_size);
  EpochChannel channel(0);
  shipper.AttachChannel(&channel);
  db.SetCommitSink([&](TxnLog txn) { shipper.OnCommit(std::move(txn)); });

  Rng rng(options.seed);
  workload->Load(&db, &rng);
  shipper.StartHeartbeats([&db] { return db.AcquireHeartbeatTs(); },
                          options.heartbeat_interval_us,
                          options.max_epoch_age_us);

  std::unique_ptr<Replayer> replayer =
      MakeReplayer(spec, &workload->catalog(), &channel);
  AETS_CHECK(replayer->Start().ok());

  OltpDriver oltp(workload.get(), &db, options.seed);
  const int64_t oltp_start_us = MonotonicMicros();
  oltp.Start(options.oltp_txns);

  OlapDriver::Options olap_options;
  olap_options.num_queries = options.olap_queries;
  olap_options.think_us = options.think_us;
  olap_options.seed = options.seed ^ 0xABCD;
  OlapDriver olap(workload.get(), replayer.get(), &clock, olap_options);
  olap.Run();

  oltp.Join();
  shipper.Finish();
  replayer->Stop();
  const int64_t drained_us = MonotonicMicros() - oltp_start_us;

  LiveRunResult result;
  result.txns_per_sec = static_cast<double>(oltp.txns_committed()) * 1e6 /
                        static_cast<double>(std::max<int64_t>(drained_us, 1));
  result.name = KindName(spec.kind);
  result.queries = static_cast<uint64_t>(olap.delays().count());
  result.mean_delay_us = olap.delays().Mean();
  result.p50_delay_us = olap.delays().Percentile(50);
  result.p95_delay_us = olap.delays().Percentile(95);
  result.p99_delay_us = olap.delays().Percentile(99);
  for (const auto& h : olap.per_query_delays()) {
    result.per_query_mean_us.push_back(h.Mean());
  }
  Timestamp final_ts = db.last_commit_ts();
  result.state_matches_primary =
      replayer->store()->DigestAt(final_ts) == db.store().DigestAt(final_ts);
  return result;
}

CatchUpResult RunCatchUp(const RecordedLog& log, Workload* workload,
                         const ReplayerSpec& spec,
                         const CatchUpOptions& options) {
  AETS_CHECK_MSG(
      spec.shard_count == 1,
      "RunCatchUp replays through one replayer; shard_count must be 1");
  EpochChannel channel(0);
  for (const auto& epoch : log.epochs) {
    ShippedEpoch copy = epoch;
    AETS_CHECK(channel.Send(std::move(copy)));
  }
  channel.Close();

  std::unique_ptr<Replayer> replayer =
      MakeReplayer(spec, &workload->catalog(), &channel);

  CatchUpResult result;
  result.name = KindName(spec.kind);
  Histogram delays;
  std::vector<Histogram> per_query(workload->analytic_queries().size());

  // The query stream rides the drain: each query demands a snapshot
  // `lead_txns` commits fresher than the current global watermark, so its
  // delay is the Algorithm 3 wait until the tables it touches publish that
  // snapshot. Queries stop demanding beyond the recorded range.
  std::thread query_thread([&] {
    Rng rng(options.seed);
    Timestamp lo = log.load_end_ts;
    Timestamp hi = log.final_ts;
    for (uint64_t i = 0; i < options.queries; ++i) {
      double progress =
          static_cast<double>(std::max(lo, replayer->GlobalVisibleTs()) - lo) /
          std::max<double>(1.0, static_cast<double>(hi - lo));
      double phase = options.phase_fn ? options.phase_fn() : progress;
      size_t qi = workload->SampleQuery(&rng, phase);
      const AnalyticQuery& query = workload->analytic_queries()[qi];
      // The query demands data `lead_txns` fresher than the global
      // watermark — its delay is how long its tables' groups take to
      // publish that snapshot.
      Timestamp base = std::max(lo, replayer->GlobalVisibleTs());
      Timestamp qts = std::min(hi, base + options.lead_txns);
      int64_t waited = WaitVisible(*replayer, query.tables, qts);
      delays.Record(waited);
      per_query[qi].Record(waited);
      if (options.on_delay) options.on_delay(i, waited);
      // Touch a row per table at the snapshot (the MVCC read path).
      for (TableId t : query.tables) {
        (void)replayer->store()->GetTable(t)->ReadRow(1, qts);
      }
    }
  });

  AETS_CHECK(replayer->Start().ok());
  replayer->Stop();
  query_thread.join();

  result.drain_wall_us = replayer->stats().WallMicros();
  result.mean_delay_us = delays.Mean();
  result.p50_delay_us = delays.Percentile(50);
  result.p95_delay_us = delays.Percentile(95);
  result.p99_delay_us = delays.Percentile(99);
  for (const auto& h : per_query) result.per_query_mean_us.push_back(h.Mean());
  result.state_matches_primary =
      replayer->store()->DigestAt(log.final_ts) == log.primary_digest;
  return result;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  AETS_CHECK(row.size() == headers_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf(" %-*s |", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  auto print_sep = [&] {
    std::printf("+");
    for (size_t c = 0; c < widths.size(); ++c) {
      for (size_t i = 0; i < widths[c] + 2; ++i) std::printf("-");
      std::printf("+");
    }
    std::printf("\n");
  };
  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
  std::fflush(stdout);
}

}  // namespace aets
