// The repository benchmark: commit-to-visible lag, real-time query latency
// and catch-up throughput of the AETS pipeline on three HTAP workloads,
// driven through the public library API from outside the library.
//
//   htap_bench --workload tpcc-fresh|ch-olap-tcp|bus-catchup --seed N
//              --seconds S [--trace 0|1] [--trace-out FILE] [--workdir DIR]
//              [--smoke]
//
// Prints a human-readable report and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 1 when the
// correctness gate fails (replica digest, sampled answers, latched replayer
// error) or the run was overloaded (backlog not drained, generator late).
// See README.md for the workloads, metrics and sizing.

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "aets/bench/harness.h"
#include "aets/net/epoch_stream.h"
#include "aets/net/query_server.h"
#include "aets/net/tcp_source.h"
#include "aets/obs/metrics.h"
#include "aets/primary/primary_db.h"
#include "aets/replay/aets_replayer.h"
#include "aets/replay/snapshot_coordinator.h"
#include "aets/replication/log_shipper.h"
#include "aets/storage/segment_store.h"
#include "aets/workload/bustracker.h"
#include "aets/workload/chbenchmark.h"
#include "aets/workload/query_exec.h"
#include "aets/workload/tpcc.h"
#include "bench_util.h"

namespace perfbench {
namespace {

using aets::AetsOptions;
using aets::AetsReplayer;
using aets::Catalog;
using aets::ChBenchmarkWorkload;
using aets::ChQueryExecutor;
using aets::EpochChannel;
using aets::LogicalClock;
using aets::LogShipper;
using aets::PrimaryDb;
using aets::Rng;
using aets::Row;
using aets::TableId;
using aets::Timestamp;
using aets::TxnLog;
using aets::Workload;

constexpr int kReplayThreads = 2;  // 2 replay + 2 commit on a 4-core box
constexpr int kCommitThreads = 2;
constexpr int kSetupReps = 5;      // setup_s is the median of these
constexpr int64_t kOltpSpinNs = 200'000;  // see OpenLoop
// ch-olap-tcp's durable tier: fsync when a segment seals. A constant, so
// both sides of any comparison run the same policy.
constexpr aets::FsyncPolicy kFsyncPolicy = aets::FsyncPolicy::kSegment;
// Live epochs: small enough that the epoch fill time stays comparable to
// replay time at the live rates (1000-1500 txn/s fill one in 11-16 ms).
constexpr size_t kLiveEpochSize = 16;
// Overload bounds: a run whose backlog does not drain within kMaxDrainMs of
// the end of the timed region, or whose generators ran later than
// kMaxLateP99Us at the 99th percentile, fails instead of reporting latency.
// Stalls of the shared host alone have pushed the lateness p99 to ~300 ms.
constexpr double kMaxDrainMs = 5000;
constexpr double kMaxLateP99Us = 500'000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string workdir = ".bench_build/run";  // segment logs
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One failure class, counted against its own base.
struct OpClass {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Everything one pass (setup + timed region + gate) produces.
struct Pass {
  // End-to-end samples.
  Series commit_us, lag_us, vis_us, query_us;
  std::vector<double> setup_s;
  // bus-catchup, one entry per drain: its catch-up rate and the medians of
  // its timings.
  std::vector<double> drain_rates, drain_lag_p50, drain_vis_p50, drain_query_p50;
  double replay_txn_per_s = 0;
  double cpu_ms = 0;
  uint64_t txns = 0;  // transactions replicated in the timed region
  double rss_mb = 0;

  // Failure accounting.
  OpClass oltp, query, scan, nack;
  bool latched = false;

  // Correctness gate.
  std::vector<std::string> errors;
  uint64_t answers_checked = 0;
  double drain_ms = 0;

  // Layer samples (observer / sampler) and counters over the timed region.
  std::vector<double> hot_lag_us, late_us, channel_depth, inflight,
      publish_lag, rss_x_txns, rss_y_kb, poll_gap_us;
  uint64_t send_failures = 0, retransmits = 0, segment_bytes = 0,
           segment_fsyncs = 0, net_reconnects = 0, chunks_rebuilt = 0,
           rows_scanned = 0, residual_rows = 0, column_queries = 0,
           type_mismatches = 0, pipeline_stalls = 0, epochs_retried = 0,
           replay_epochs = 0;
  std::vector<double> apply_txn_per_s;
  int64_t dispatch_ns = 0, replay_ns = 0, commit_ns = 0, sync_ns = 0,
          stage1_ns = 0, stage2_ns = 0;
  std::vector<std::vector<Span>> spans;

  void Fail(std::string why) { errors.push_back(std::move(why)); }
};

// ---------------------------------------------------------------------------
// Open-loop generation

void SleepUntilNs(int64_t due_ns) {
  // steady_clock is CLOCK_MONOTONIC on Linux, so NowNs() and this agree.
  timespec ts{};
  ts.tv_sec = due_ns / 1'000'000'000;
  ts.tv_nsec = due_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Issues requests i = first, first + stride, ... due at t0 + i * period
/// until t_end (or `stop`), whatever the previous ones took. `late_us`
/// receives how late each started; `fn(i, due_ns)` does the work and times
/// it from its due time. With `spin_ns` > 0 the generator sleeps until that
/// long before the due time and spins the rest, so a microsecond-scale
/// request is not timed against the scheduler's wake-up latency.
template <typename Fn>
void OpenLoop(int64_t t0, int64_t t_end, double period_ns, uint64_t first,
              uint64_t stride, const std::atomic<bool>* stop, int64_t spin_ns,
              std::vector<double>* late_us, Fn&& fn) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time, not 50 us late
  for (uint64_t i = first;; i += stride) {
    int64_t due = t0 + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    if (due >= t_end) break;
    SleepUntilNs(due - spin_ns);
    while (NowNs() < due) {
    }
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    late_us->push_back(static_cast<double>(NowNs() - due) / 1e3);
    fn(i, due);
  }
}

// ---------------------------------------------------------------------------
// Lag observer: its own thread, never the query executor's (running a query
// on it inflates the measured lag by the query's duration).

class Observer {
 public:
  /// `sample` runs about once a millisecond for the layer samplers. Lags are
  /// recorded in commit-log order: lag_us()[i] belongs to log->at(i).
  Observer(const AetsReplayer* replayer, const CommitLog* log,
           std::vector<TableId> hot_tables, std::function<void()> sample)
      : replayer_(replayer),
        log_(log),
        hot_tables_(std::move(hot_tables)),
        sample_(std::move(sample)),
        thread_([this] { Loop(); }) {}

  ~Observer() { Stop(); }
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Blocks until every logged commit is globally visible or `timeout_ms`
  /// passes; returns the wait in ms, or -1 on timeout.
  double WaitAllVisible(double timeout_ms) {
    int64_t start = NowNs();
    while (matched_.load(std::memory_order_acquire) < log_->size()) {
      if (static_cast<double>(NowNs() - start) / 1e6 > timeout_ms) return -1;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return static_cast<double>(NowNs() - start) / 1e6;
  }

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  // Read only after Stop().
  const std::vector<double>& lag_us() const { return lag_us_; }
  const std::vector<double>& hot_lag_us() const { return hot_lag_us_; }
  const std::vector<double>& poll_gap_us() const { return poll_gap_us_; }

 private:
  void Loop() {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    LagMatcher global, hot;
    int64_t last_poll = 0, last_sample = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      size_t n = log_->size();
      Timestamp g = replayer_->GlobalVisibleTs();
      Timestamp h = UINT64_MAX;
      for (TableId t : hot_tables_) h = std::min(h, replayer_->TableVisibleTs(t));
      int64_t now = NowNs();
      global.Advance(*log_, n, g, now, &lag_us_);
      hot.Advance(*log_, n, std::max(g, h), now, &hot_lag_us_);
      matched_.store(global.cursor(), std::memory_order_release);
      if (last_poll != 0) {
        poll_gap_us_.push_back(static_cast<double>(now - last_poll) / 1e3);
      }
      last_poll = now;
      if (now - last_sample >= 1'000'000) {
        sample_();
        last_sample = now;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  const AetsReplayer* replayer_;
  const CommitLog* log_;
  std::vector<TableId> hot_tables_;
  std::function<void()> sample_;
  std::vector<double> lag_us_, hot_lag_us_, poll_gap_us_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> matched_{0};
  std::thread thread_;  // last: starts once the members it uses exist
};

/// Commit timestamp of the last transaction this thread committed, set by
/// the commit sink (which runs on the committing thread).
thread_local uint64_t t_last_commit_ts = 0;

/// The commit sink the benchmark owns: forwards to LogShipper::OnCommit and,
/// when tracing, times the call, marking the calls that sealed an epoch.
std::function<void(TxnLog)> MakeSink(LogShipper* shipper, Tracer* tracer) {
  return [shipper, tracer](TxnLog txn) {
    uint64_t ts = txn.commit_ts;
    if (tracer->enabled()) {
      uint64_t before = shipper->epochs_shipped();
      int64_t start = NowNs();
      shipper->OnCommit(std::move(txn));
      int64_t end = NowNs();
      tracer->Record(shipper->epochs_shipped() != before ? SpanKind::kSeal
                                                         : SpanKind::kSink,
                     ts, start, end);
    } else {
      shipper->OnCommit(std::move(txn));
    }
    t_last_commit_ts = ts;
  };
}

/// Per-table weights from how many analytic templates touch each table —
/// the access-rate signal AETS sizes its thread allocation by.
std::vector<double> FootprintRates(const Workload& workload) {
  std::vector<double> rates(workload.catalog().num_tables(), 0.0);
  for (const auto& q : workload.analytic_queries()) {
    for (TableId t : q.tables) rates[t] += 50.0;
  }
  return rates;
}

uint64_t Counter(const char* name) { return aets::obs::GetCounter(name)->value(); }

/// Process-wide column-store and query counters, diffed around a region.
struct CounterSnap {
  uint64_t chunks_rebuilt, rows_scanned, residual_rows, mismatches;
  static CounterSnap Take() {
    return {Counter("column.chunks_rebuilt"), Counter("column.rows_scanned"),
            Counter("column.residual_rows"),
            Counter("query.column_type_mismatches")};
  }
  void AddDeltaTo(const CounterSnap& before, Pass* pass) const {
    pass->chunks_rebuilt += chunks_rebuilt - before.chunks_rebuilt;
    pass->rows_scanned += rows_scanned - before.rows_scanned;
    pass->residual_rows += residual_rows - before.residual_rows;
    pass->type_mismatches += mismatches - before.mismatches;
  }
};

/// ReplayStats fields, diffed around a region.
struct ReplaySnap {
  int64_t dispatch, replay, commit, sync, stage1, stage2;
  uint64_t stalls, retried, epochs;
  static ReplaySnap Take(const aets::ReplayStats& s) {
    return {s.dispatch_ns.load(), s.replay_ns.load(), s.commit_ns.load(),
            s.sync_wait_ns.load(), s.stage1_wall_ns.load(),
            s.stage2_wall_ns.load(), s.pipeline_stalls.load(),
            s.epochs_retried.load(), s.epochs.load()};
  }
  void AddDeltaTo(const ReplaySnap& b, Pass* pass) const {
    pass->dispatch_ns += dispatch - b.dispatch;
    pass->replay_ns += replay - b.replay;
    pass->commit_ns += commit - b.commit;
    pass->sync_ns += sync - b.sync;
    pass->stage1_ns += stage1 - b.stage1;
    pass->stage2_ns += stage2 - b.stage2;
    pass->pipeline_stalls += stalls - b.stalls;
    pass->epochs_retried += retried - b.retried;
    pass->replay_epochs += epochs - b.epochs;
  }
};

struct RowRead {
  TableId table;
  int64_t key;
  std::optional<Row> row;
};

/// True when every row read on the backup at qts equals the primary's.
bool SameAsPrimary(const PrimaryDb& primary, const std::vector<RowRead>& reads,
                   Timestamp qts) {
  for (const RowRead& rr : reads) {
    if (primary.Read(rr.table, rr.key, qts) != rr.row) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Live workloads: tpcc-fresh (in-process link) and ch-olap-tcp (TCP link,
// durable segment log, QueryServer).

struct LiveSpec {
  bool ch = false;   // CH-benCHmark catalog, TCP link, segment log, Q1/Q6/scan
  double oltp_rate = 0;   // txn/s, open loop
  double query_rate = 0;  // queries/s over all query threads, open loop
  int query_threads = 1;
  aets::TpccConfig tpcc;
};

/// One primary/backup pair, assembled bottom-up and torn down in reverse.
class LivePipeline {
 public:
  LivePipeline(const LiveSpec& spec, uint64_t seed, const std::string& seg_dir,
               Tracer* tracer, Pass* pass)
      : seg_dir_(seg_dir) {
    if (spec.ch) {
      auto ch = std::make_unique<ChBenchmarkWorkload>(spec.tpcc);
      ch_ = ch.get();
      tpcc_ = &ch->tpcc();
      workload_ = std::move(ch);
    } else {
      auto tpcc = std::make_unique<aets::TpccWorkload>(spec.tpcc);
      tpcc_ = tpcc.get();
      workload_ = std::move(tpcc);
    }
    const Catalog* catalog = &workload_->catalog();
    primary_ = std::make_unique<PrimaryDb>(catalog, &clock_);
    shipper_ = std::make_unique<LogShipper>(kLiveEpochSize);
    channel_ = std::make_unique<EpochChannel>(1024);
    if (spec.ch) {
      std::filesystem::remove_all(seg_dir_);
      aets::SegmentStoreOptions so;
      so.dir = seg_dir_;
      so.fsync_policy = kFsyncPolicy;
      auto store = aets::SegmentStore::Open(so);
      AETS_CHECK_MSG(store.ok(), "segment store open failed");
      segments_ = std::move(store).value();
      shipper_->AttachSegmentStore(segments_.get());
      stream_server_ = std::make_unique<aets::net::EpochStreamServer>(shipper_.get());
      AETS_CHECK(stream_server_->Start(0).ok());
      stream_client_ = std::make_unique<aets::net::EpochStreamClient>(
          "127.0.0.1", stream_server_->port(), 0, channel_.get());
      AETS_CHECK(stream_client_->Start().ok());
      nack_ = std::make_unique<aets::net::TcpEpochSource>(
          "127.0.0.1", stream_server_->port(), 0);
      AETS_CHECK(nack_->Connect().ok());
    } else {
      shipper_->AttachChannel(channel_.get());
    }

    AetsOptions opts;
    opts.replay_threads = kReplayThreads;
    opts.commit_threads = kCommitThreads;
    opts.initial_rates = FootprintRates(*workload_);
    if (spec.ch) {
      opts.grouping = aets::GroupingMode::kPerTable;
    } else {
      opts.grouping = aets::GroupingMode::kStatic;
      opts.static_hot_groups = workload_->DefaultHotGroups();
    }
    replayer_ = std::make_unique<AetsReplayer>(catalog, channel_.get(), opts);
    if (spec.ch) {
      replayer_->SetEpochSource(nack_.get());
      AetsReplayer* r = replayer_.get();
      coordinator_.AttachShard([r] { return r->GlobalVisibleTs(); });
      aets::net::QueryServerOptions qo;
      qo.max_sessions = 2;
      qo.admission_queue = 2;
      query_server_ = std::make_unique<aets::net::QueryServer>(
          replayer_.get(), &coordinator_, qo);
      AETS_CHECK(query_server_->Start(0).ok());
      auto client = aets::net::QueryClient::Connect("127.0.0.1",
                                                   query_server_->port());
      AETS_CHECK_MSG(client.ok(), "query client connect failed");
      query_client_.emplace(std::move(client).value());
    } else {
      replayer_->SetEpochSource(shipper_.get());
    }

    primary_->SetCommitSink(MakeSink(shipper_.get(), tracer));
    Rng rng(seed);
    int64_t load_start = NowNs();
    workload_->Load(primary_.get(), &rng);
    PrimaryDb* p = primary_.get();
    shipper_->StartHeartbeats([p] { return p->AcquireHeartbeatTs(); });
    shipper_->FlushEpoch();
    // The backup starts after the load, so loading and catching up are two
    // phases of set-up instead of two threads racing for the same cores.
    int64_t load_end = NowNs();
    AETS_CHECK(replayer_->Start().ok());
    Timestamp loaded = primary_->last_commit_ts();
    while (replayer_->GlobalVisibleTs() < loaded) {
      if (NowNs() - load_end > 60'000'000'000LL) {
        pass->Fail("setup: backup did not replay the load within 60 s");
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::printf("setup: load %.3f s, backup catch-up %.3f s\n",
                static_cast<double>(load_end - load_start) / 1e9,
                static_cast<double>(NowNs() - load_end) / 1e9);
  }

  ~LivePipeline() { Shutdown(); }
  LivePipeline(const LivePipeline&) = delete;
  LivePipeline& operator=(const LivePipeline&) = delete;

  /// Seals the stream and stops the replayer; the backup state is then final.
  void FinishStream() {
    if (finished_) return;
    finished_ = true;
    shipper_->Finish();
    replayer_->Stop();
  }

  void Shutdown() {
    FinishStream();
    if (query_client_) query_client_->Close();
    if (query_server_) query_server_->Stop();
    if (stream_client_) stream_client_->Stop();
    if (stream_server_) stream_server_->Stop();
    if (segments_) std::filesystem::remove_all(seg_dir_);
  }

  std::string seg_dir_;
  // Declaration order is the reverse of teardown order: everything that
  // holds a pointer is declared after what it points to.
  std::unique_ptr<Workload> workload_;
  const aets::TpccWorkload* tpcc_ = nullptr;
  const ChBenchmarkWorkload* ch_ = nullptr;
  LogicalClock clock_;
  std::unique_ptr<PrimaryDb> primary_;
  std::unique_ptr<aets::SegmentStore> segments_;
  std::unique_ptr<EpochChannel> channel_;
  std::unique_ptr<LogShipper> shipper_;
  std::unique_ptr<aets::net::EpochStreamServer> stream_server_;
  std::unique_ptr<aets::net::EpochStreamClient> stream_client_;
  std::unique_ptr<aets::net::TcpEpochSource> nack_;
  std::unique_ptr<AetsReplayer> replayer_;
  aets::GlobalSnapshotCoordinator coordinator_;
  std::unique_ptr<aets::net::QueryServer> query_server_;
  std::optional<aets::net::QueryClient> query_client_;
  bool finished_ = false;
};

/// A deferred CH answer check: recomputed on the primary at the same
/// snapshot once the timed region is over (neither store garbage-collects).
struct AnswerSample {
  int kind = 0;  // 0 = Q1, 1 = scan, 2 = Q6
  Timestamp qts = 0;
  int64_t qty_lo = 0, qty_hi = 0;
  ChQueryExecutor::Q1Result q1;
  ChQueryExecutor::Q6Result q6;
  uint64_t digest = 0;
};

/// Float sums are compared relative to their size: the column path and the
/// row path add the same values in different orders.
bool SameSum(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

bool SameQ1(const ChQueryExecutor::Q1Result& a, const ChQueryExecutor::Q1Result& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.count != ib->second.count ||
        ia->second.sum_quantity != ib->second.sum_quantity ||
        !SameSum(ia->second.sum_amount, ib->second.sum_amount)) {
      return false;
    }
  }
  return true;
}

bool SameQ6(const ChQueryExecutor::Q6Result& a, const ChQueryExecutor::Q6Result& b) {
  return a.lines == b.lines && SameSum(a.revenue, b.revenue);
}

/// The real-time TPC-C read: the district's newest order and its lines (plus
/// the customer / stock rows the template touches), read at qts after the
/// Algorithm-3 wait.
void ReadFreshOrder(const aets::TableStore& store, const aets::TpccWorkload& w,
                    const aets::AnalyticQuery& q, Timestamp qts, Rng* rng,
                    std::vector<RowRead>* out) {
  auto read = [&](TableId t, int64_t key) {
    out->push_back(RowRead{t, key, store.GetTable(t)->ReadRow(key, qts)});
    return out->back().row;
  };
  auto touches = [&](TableId t) {
    return std::find(q.tables.begin(), q.tables.end(), t) != q.tables.end();
  };
  int wh = static_cast<int>(rng->UniformInt(1, w.config().warehouses));
  int d = static_cast<int>(rng->UniformInt(1, 10));
  auto district = read(w.district(), w.DistrictKey(wh, d));
  if (!district) return;
  const aets::Value* next = district->Find(5);  // d_next_o_id
  if (next == nullptr || !next->is_int64()) return;
  int64_t o = next->as_int64() - 1;
  read(w.orders(), w.OrderKey(wh, d, o));
  for (int ol = 1; ol <= w.OrderLineCount(wh, d, o); ++ol) {
    auto line = read(w.orderline(), w.OrderLineKey(wh, d, o, ol));
    if (touches(w.stock()) && line) {
      const aets::Value* item = line->Find(2);
      if (item != nullptr && item->is_int64()) {
        read(w.stock(), w.StockKey(wh, item->as_int64()));
      }
    }
  }
  if (touches(w.customer())) {
    read(w.customer(),
         w.CustomerKey(wh, d, rng->UniformInt(1, w.config().customers_per_district)));
  }
}

std::vector<TableId> Union(std::vector<TableId> a, const std::vector<TableId>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

/// One query generator thread's results, merged after it joins.
struct QueryOut {
  Series vis_us, query_us;
  std::vector<double> late_us;
  OpClass query, scan;
  std::vector<AnswerSample> samples;
  std::vector<std::string> errors;
  uint64_t checked = 0;
};

void MergeQueryOut(const std::vector<QueryOut>& qout, Pass* pass) {
  for (const QueryOut& out : qout) {
    pass->vis_us.Append(out.vis_us);
    pass->query_us.Append(out.query_us);
    pass->late_us.insert(pass->late_us.end(), out.late_us.begin(), out.late_us.end());
    pass->query.attempted += out.query.attempted;
    pass->query.failed += out.query.failed;
    pass->scan.attempted += out.scan.attempted;
    pass->scan.failed += out.scan.failed;
    pass->answers_checked += out.checked;
    for (const auto& e : out.errors) pass->Fail(e);
  }
}

void RunLivePass(const LiveSpec& spec, const Options& opt, bool traced,
                 Tracer* tracer, Pass* pass) {
  const std::string seg_dir = opt.workdir + "/segments";
  std::unique_ptr<LivePipeline> pipe;
  for (int rep = 0; rep < (opt.smoke ? 1 : kSetupReps); ++rep) {
    pipe.reset();
    int64_t start = NowNs();
    pipe = std::make_unique<LivePipeline>(spec, opt.seed, seg_dir, tracer, pass);
    pass->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  if (!pass->errors.empty()) return;
  LivePipeline& p = *pipe;
  const aets::TpccWorkload& tpcc = *p.tpcc_;
  const TableId ol = tpcc.orderline();
  std::vector<TableId> all_tables;
  for (TableId t = 0; t < p.workload_->catalog().num_tables(); ++t) {
    all_tables.push_back(t);
  }
  // The tables the hot stage replays first: the queried order_line under
  // CH's per-table groups, every static hot group under TPC-C.
  std::vector<TableId> hot_tables{ol};
  if (!spec.ch) {
    hot_tables.clear();
    for (const auto& g : p.workload_->DefaultHotGroups()) {
      hot_tables.insert(hot_tables.end(), g.begin(), g.end());
    }
  }

  const double seconds = opt.seconds;
  CommitLog log(static_cast<size_t>(spec.oltp_rate * seconds) + 16);
  const aets::storage::ColumnStore* columns = p.replayer_->ColumnStoreForTable(ol);

  // Runs on the observer thread; the vectors are read after it stopped.
  auto sample = [&] {
    pass->channel_depth.push_back(static_cast<double>(p.channel_->PendingEpochs()));
    if (p.stream_client_) {
      pass->inflight.push_back(static_cast<double>(p.shipper_->epochs_shipped()) -
                               static_cast<double>(p.stream_client_->epochs_received()));
    }
    Timestamp g = p.replayer_->GlobalVisibleTs();
    Timestamp pub = columns ? columns->PublishedTs(ol) : g;
    pass->publish_lag.push_back(pub < g ? static_cast<double>(g - pub) : 0.0);
    if (pass->rss_x_txns.empty() ||
        static_cast<double>(log.size()) - pass->rss_x_txns.back() >=
            spec.oltp_rate / 10) {
      pass->rss_x_txns.push_back(static_cast<double>(log.size()));
      pass->rss_y_kb.push_back(CurrentRssKb());
    }
  };

  CounterSnap c0 = CounterSnap::Take();
  ReplaySnap r0 = ReplaySnap::Take(p.replayer_->stats());
  uint64_t send0 = p.shipper_->send_failures(), retx0 = p.shipper_->retransmits();
  uint64_t seg0 = p.segments_ ? p.segments_->bytes_written() : 0;
  uint64_t fsync0 = p.segments_ ? p.segments_->fsyncs() : 0;
  uint64_t nack_fail0 = p.nack_ ? p.nack_->rpc_failures() : 0;
  uint64_t nack_served0 = Counter("net.nack_fetches_served");

  Observer observer(p.replayer_.get(), &log, hot_tables, sample);

  tracer->Enable(traced);
  double cpu0 = CpuMillis();
  const int64_t t0 = NowNs() + 5'000'000;
  const int64_t t_end = t0 + static_cast<int64_t>(seconds * 1e9);

  std::thread oltp([&] {
    Rng rng(opt.seed * 7919 + 1);
    OpenLoop(t0, t_end, 1e9 / spec.oltp_rate, 0, 1, nullptr, kOltpSpinNs,
             &pass->late_us,
             [&](uint64_t i, int64_t due) {
               aets::Status st;
               {
                 ScopedSpan span(tracer, SpanKind::kTxn, i);
                 st = p.workload_->RunOltpTransaction(p.primary_.get(), &rng);
               }
               int64_t end = NowNs();
               pass->oltp.attempted++;
               if (!st.ok()) {
                 pass->oltp.failed++;
                 return;
               }
               pass->commit_us.Add(due, static_cast<double>(end - due) / 1e3);
               if (!log.Append(t_last_commit_ts, end)) pass->Fail("commit log full");
             });
  });

  // Query generators: thread k issues queries k, k + K, k + 2K, ... so under
  // CH (K = 3) each thread owns one kind: Q1, the TCP scan, Q6.
  const int K = spec.query_threads;
  std::vector<QueryOut> qout(static_cast<size_t>(K));
  std::vector<std::thread> qthreads;
  for (int k = 0; k < K; ++k) {
    qthreads.emplace_back([&, k] {
      QueryOut& out = qout[static_cast<size_t>(k)];
      Rng rng(opt.seed * 104729 + static_cast<uint64_t>(k) + 7);
      std::unique_ptr<ChQueryExecutor> exec;
      if (spec.ch) {
        exec = std::make_unique<ChQueryExecutor>(
            p.ch_, p.replayer_->StoreForTable(ol), columns);
      }
      std::vector<RowRead> reads;
      // CH answers are cross-checked on the primary after the run, spaced
      // so a run keeps about 16 per query kind.
      uint64_t sample_every = static_cast<uint64_t>(
          std::max(1.0, spec.query_rate * seconds / (K * 16.0)));
      uint64_t n = 0;
      OpenLoop(t0, t_end, 1e9 / spec.query_rate, static_cast<uint64_t>(k),
               static_cast<uint64_t>(K), nullptr, 0, &out.late_us,
               [&](uint64_t qid, int64_t due) {
                 bool sample_it = (n++ % sample_every) == 0;
                 Timestamp qts = p.clock_.Now();
                 int kind = spec.ch ? static_cast<int>(qid % 3) : -1;
                 std::vector<TableId> tables;
                 const aets::AnalyticQuery* tq = nullptr;
                 if (!spec.ch) {
                   tq = &p.workload_->analytic_queries()[p.workload_->SampleQuery(&rng, 0)];
                   tables = Union(tq->tables, {tpcc.district(), tpcc.orders(), ol});
                 } else {
                   // The scan is served at the QueryServer's frontier, the
                   // global watermark: it waits on every table.
                   tables = kind == 1 ? all_tables : std::vector<TableId>{ol};
                 }
                 int64_t w0 = NowNs();
                 {
                   ScopedSpan span(tracer, SpanKind::kWait, qid);
                   aets::WaitVisible(*p.replayer_, tables, qts);
                 }
                 int64_t w1 = NowNs();
                 AnswerSample s;
                 s.kind = kind;
                 s.qts = qts;
                 bool ok = true;
                 if (!spec.ch) {
                   ScopedSpan span(tracer, SpanKind::kExec, qid);
                   reads.clear();
                   ReadFreshOrder(*p.replayer_->store(), tpcc, *tq, qts, &rng, &reads);
                 } else if (kind == 1) {
                   ScopedSpan span(tracer, SpanKind::kScan, qid);
                   out.scan.attempted++;
                   auto r = p.query_client_->Scan(ol, qts);
                   if (!r.ok() || r->busy) {
                     out.scan.failed++;
                     ok = false;
                   } else if (r->pinned_ts != qts) {
                     out.errors.push_back("scan pinned a different snapshot");
                   } else {
                     s.digest = r->digest;
                   }
                 } else {
                   ScopedSpan span(tracer, SpanKind::kExec, qid);
                   if (kind == 0) {
                     s.q1 = exec->RunQ1(qts, INT64_MAX);
                   } else {
                     s.qty_lo = rng.UniformInt(1, 5);
                     s.qty_hi = s.qty_lo + 4;
                     s.q6 = exec->RunQ6(qts, s.qty_lo, s.qty_hi);
                   }
                 }
                 int64_t end = NowNs();
                 if (kind != 1) {
                   out.query.attempted++;
                   if (exec && !exec->error().ok()) {
                     out.query.failed++;
                     ok = false;
                   }
                 }
                 if (!ok) return;
                 out.vis_us.Add(due, static_cast<double>(w1 - w0) / 1e3);
                 out.query_us.Add(due, static_cast<double>(end - due) / 1e3);
                 if (!spec.ch) {
                   // Every fresh read must equal the primary at qts.
                   if (!SameAsPrimary(*p.primary_, reads, qts)) {
                     out.errors.push_back("fresh read differs from primary");
                   }
                   out.checked++;
                 } else if (sample_it) {
                   out.samples.push_back(std::move(s));
                 }
               });
    });
  }

  oltp.join();
  for (auto& t : qthreads) t.join();
  tracer->Enable(false);

  // Backlog check: the whole timed region must become visible promptly.
  p.shipper_->FlushEpoch();
  pass->drain_ms = observer.WaitAllVisible(kMaxDrainMs * 5);
  int64_t t_drained = NowNs();
  observer.Stop();
  pass->cpu_ms = CpuMillis() - cpu0;
  pass->txns = log.size();
  pass->replay_txn_per_s =
      static_cast<double>(log.size()) * 1e9 / static_cast<double>(t_drained - t0);
  for (size_t i = 0; i < observer.lag_us().size(); ++i) {
    pass->lag_us.Add(log.at(i).return_ns, observer.lag_us()[i]);
  }
  pass->hot_lag_us = observer.hot_lag_us();
  pass->poll_gap_us = observer.poll_gap_us();
  MergeQueryOut(qout, pass);

  CounterSnap::Take().AddDeltaTo(c0, pass);
  ReplaySnap::Take(p.replayer_->stats()).AddDeltaTo(r0, pass);
  pass->apply_txn_per_s.push_back(p.replayer_->stats().TxnsPerSec());
  pass->column_queries = pass->query.attempted + pass->scan.attempted;
  pass->send_failures = p.shipper_->send_failures() - send0;
  pass->retransmits = p.shipper_->retransmits() - retx0;
  if (p.segments_) {
    pass->segment_bytes = p.segments_->bytes_written() - seg0;
    pass->segment_fsyncs = p.segments_->fsyncs() - fsync0;
  }
  if (p.nack_) {
    pass->nack.failed = p.nack_->rpc_failures() - nack_fail0;
    pass->nack.attempted =
        Counter("net.nack_fetches_served") - nack_served0 + pass->nack.failed;
    pass->net_reconnects = p.stream_client_->reconnects();
  }
  if (traced) pass->spans = tracer->TakeAll();

  // Correctness gate: the replica equals the primary at the final commit,
  // and every sampled answer equals the primary's at the same snapshot.
  p.FinishStream();
  aets::Status err = p.replayer_->error();
  if (!err.ok()) {
    pass->latched = true;
    pass->Fail("replayer latched an error: " + err.ToString());
  }
  Timestamp final_ts = p.primary_->last_commit_ts();
  if (aets::ReplicaDigestAt(p.replayer_.get(), &p.workload_->catalog(), final_ts) !=
      p.primary_->store().DigestAt(final_ts)) {
    pass->Fail("replica digest differs from primary at the final commit");
  }
  size_t ol_rows = p.replayer_->StoreForTable(ol)->GetTable(ol)->VisibleRowCount(final_ts);
  std::printf("working set: order_line rows=%zu (%.1f column chunks of %zu rows)\n",
              ol_rows, static_cast<double>(ol_rows) / static_cast<double>(AetsOptions{}.column_chunk_rows),
              AetsOptions{}.column_chunk_rows);
  if (spec.ch) {
    ChQueryExecutor truth(p.ch_, &p.primary_->store());
    for (const QueryOut& out : qout) {
      for (const AnswerSample& s : out.samples) {
        bool same = true;
        if (s.kind == 0) {
          same = SameQ1(truth.RunQ1(s.qts, INT64_MAX), s.q1);
        } else if (s.kind == 2) {
          same = SameQ6(truth.RunQ6(s.qts, s.qty_lo, s.qty_hi), s.q6);
        } else {
          same = p.primary_->store().GetTable(ol)->DigestAt(s.qts) == s.digest;
        }
        if (!same) pass->Fail("sampled answer differs from primary");
        pass->answers_checked++;
      }
    }
  }
  pass->rss_mb = PeakRssMb();
}

// ---------------------------------------------------------------------------
// bus-catchup: cycles of [set-up: load a BusTracker primary and record a
// backlog while the backup is offline] then [drain: a fresh AETS backup
// catches up while real-time queries demand a snapshot a fixed lead ahead of
// the global watermark (the paper's Fig. 1/9 methodology)]. Nothing but
// replay and the query stream runs in a drain.

constexpr size_t kBusEpochSize = 256;
constexpr Timestamp kBusLead = 1024;  // freshness demand, in commit timestamps
constexpr double kBusQueryRate = 40;  // queries/s during a drain, open loop
constexpr int kBusQueryThreads = 1;
// Each recorded backlog is drained this many times, each time by a fresh
// backup, so drains rather than recordings fill most of a run.
constexpr int kBusDrainsPerBacklog = 3;

/// The shared host's steal time slows whole drains, so a bus-catchup figure
/// is the quartile over drains on the better side: it holds while up to
/// three drains in four are slowed.
double BetterQuartile(const std::vector<double>& per_drain, bool higher_is_better) {
  return Percentile(per_drain, higher_is_better ? 75 : 25);
}

struct BusSpec {
  uint64_t backlog_txns = 0;
  int min_cycles = 3;
};

/// The primary that produced the backlog, kept for the answer checks.
struct BusRecording {
  aets::BusTrackerWorkload workload;
  LogicalClock clock;
  PrimaryDb primary{&workload.catalog(), &clock};
  std::vector<aets::ShippedEpoch> epochs;
  std::vector<Timestamp> commit_ts;  // the mix transactions, commit order
  Timestamp load_end = 0, final_ts = 0;
  uint64_t digest = 0;
};

std::unique_ptr<BusRecording> RecordBacklog(const BusSpec& spec, uint64_t seed,
                                            Tracer* tracer, Pass* pass) {
  auto rec = std::make_unique<BusRecording>();
  LogShipper shipper(kBusEpochSize);
  EpochChannel recorder(0);  // unbounded: the backup is offline
  shipper.AttachChannel(&recorder);
  rec->primary.SetCommitSink(MakeSink(&shipper, tracer));
  Rng rng(seed);
  rec->workload.Load(&rec->primary, &rng);
  rec->load_end = rec->primary.last_commit_ts();
  for (uint64_t i = 0; i < spec.backlog_txns; ++i) {
    // Closed loop: each transaction is due when the previous one returned.
    int64_t start = NowNs();
    aets::Status st;
    {
      ScopedSpan span(tracer, SpanKind::kTxn, i);
      st = rec->workload.RunOltpTransaction(&rec->primary, &rng);
    }
    int64_t end = NowNs();
    pass->oltp.attempted++;
    if (!st.ok()) {
      pass->oltp.failed++;
      continue;
    }
    pass->commit_us.Add(start, static_cast<double>(end - start) / 1e3);
    rec->commit_ts.push_back(t_last_commit_ts);
  }
  shipper.Finish();
  pass->send_failures += shipper.send_failures();
  while (auto epoch = recorder.TryReceive()) rec->epochs.push_back(std::move(*epoch));
  rec->primary.SetCommitSink(nullptr);
  rec->final_ts = rec->primary.last_commit_ts();
  rec->digest = rec->primary.store().DigestAt(rec->final_ts);
  return rec;
}

void DrainBacklog(const BusRecording& rec, uint64_t seed, Tracer* tracer,
                  Pass* pass) {
  const aets::BusTrackerWorkload& workload = rec.workload;
  const Catalog* catalog = &workload.catalog();
  const TableId focus = workload.hot_tables().front();
  EpochChannel backlog(0);
  for (const auto& epoch : rec.epochs) AETS_CHECK(backlog.Send(epoch));
  backlog.Close();
  AetsOptions opts;
  opts.replay_threads = kReplayThreads;
  opts.commit_threads = kCommitThreads;
  opts.grouping = aets::GroupingMode::kByAccessRate;
  opts.initial_rates = workload.TrueRates(0);
  AetsReplayer replayer(catalog, &backlog, opts);
  const aets::storage::ColumnStore* columns = replayer.ColumnStoreForTable(focus);
  // Every backlogged commit becomes available to the backup when it
  // reconnects, at t_start: its lag is the catch-up time.
  CommitLog log(rec.commit_ts.size());
  auto sample = [&] {
    pass->channel_depth.push_back(static_cast<double>(backlog.PendingEpochs()));
    Timestamp g = replayer.GlobalVisibleTs();
    Timestamp pub = columns ? columns->PublishedTs(focus) : g;
    pass->publish_lag.push_back(pub < g ? static_cast<double>(g - pub) : 0.0);
  };
  CounterSnap c0 = CounterSnap::Take();
  Observer observer(&replayer, &log, workload.hot_tables(), sample);

  std::atomic<bool> drained{false};
  const int K = kBusQueryThreads;
  std::vector<QueryOut> qout(static_cast<size_t>(K));
  std::vector<std::thread> qthreads;
  double cpu0 = CpuMillis();
  const int64_t t_start = NowNs();
  for (Timestamp ts : rec.commit_ts) log.Append(ts, t_start);
  AETS_CHECK(replayer.Start().ok());
  // The query stream starts once the loaded tables are visible: a query
  // demands fresh backlog, not the bulk load every drain begins with.
  while (replayer.GlobalVisibleTs() < rec.load_end && NowNs() - t_start < 60'000'000'000LL) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const int64_t q_start = NowNs();
  for (int k = 0; k < K; ++k) {
    qthreads.emplace_back([&, k] {
      QueryOut& out = qout[static_cast<size_t>(k)];
      Rng rng(seed * 31 + static_cast<uint64_t>(k));
      std::vector<RowRead> reads;
      OpenLoop(q_start, INT64_MAX, 1e9 / kBusQueryRate,
               static_cast<uint64_t>(k), static_cast<uint64_t>(K), &drained, 0,
               &out.late_us, [&](uint64_t qid, int64_t due) {
                 Timestamp base = std::max(rec.load_end, replayer.GlobalVisibleTs());
                 if (base >= rec.final_ts) return;  // caught up: nothing to demand
                 const aets::AnalyticQuery& q =
                     workload.analytic_queries()[workload.SampleQuery(&rng, 0)];
                 Timestamp qts = std::min(rec.final_ts, base + kBusLead);
                 int64_t w0 = NowNs();
                 {
                   ScopedSpan span(tracer, SpanKind::kWait, qid);
                   aets::WaitVisible(replayer, q.tables, qts);
                 }
                 int64_t w1 = NowNs();
                 reads.clear();
                 {
                   ScopedSpan span(tracer, SpanKind::kExec, qid);
                   for (TableId t : q.tables) {
                     int64_t key = rng.UniformInt(1, workload.config().rows_per_table);
                     reads.push_back(RowRead{
                         t, key, replayer.store()->GetTable(t)->ReadRow(key, qts)});
                   }
                 }
                 int64_t end = NowNs();
                 out.query.attempted++;
                 out.vis_us.Add(due, static_cast<double>(w1 - w0) / 1e3);
                 out.query_us.Add(due, static_cast<double>(end - due) / 1e3);
                 if (!SameAsPrimary(rec.primary, reads, qts)) {
                   out.errors.push_back("catch-up read differs from primary");
                 }
                 out.checked++;
               });
    });
  }
  double waited = observer.WaitAllVisible(60'000);
  const int64_t t_vis = NowNs();
  drained.store(true, std::memory_order_release);
  replayer.Stop();
  for (auto& t : qthreads) t.join();
  observer.Stop();
  pass->cpu_ms += CpuMillis() - cpu0;
  if (waited < 0) pass->Fail("backlog did not drain within 60 s");

  const aets::ReplayStats& rs = replayer.stats();
  pass->txns += rs.txns.load();
  pass->apply_txn_per_s.push_back(rs.TxnsPerSec());
  pass->drain_rates.push_back(static_cast<double>(rs.txns.load()) * 1e9 /
                              static_cast<double>(t_vis - t_start));
  for (double lag : observer.lag_us()) pass->lag_us.Add(t_start, lag);
  const auto& hot = observer.hot_lag_us();
  pass->hot_lag_us.insert(pass->hot_lag_us.end(), hot.begin(), hot.end());
  const auto& gaps = observer.poll_gap_us();
  pass->poll_gap_us.insert(pass->poll_gap_us.end(), gaps.begin(), gaps.end());
  std::vector<double> vis, query;
  for (const QueryOut& out : qout) {
    std::vector<double> v = out.vis_us.values(), q = out.query_us.values();
    vis.insert(vis.end(), v.begin(), v.end());
    query.insert(query.end(), q.begin(), q.end());
  }
  pass->drain_lag_p50.push_back(Median(observer.lag_us()));
  if (!vis.empty()) {
    pass->drain_vis_p50.push_back(Median(vis));
    pass->drain_query_p50.push_back(Median(query));
  }
  MergeQueryOut(qout, pass);
  ReplaySnap::Take(rs).AddDeltaTo(ReplaySnap{}, pass);
  CounterSnap::Take().AddDeltaTo(c0, pass);

  aets::Status err = replayer.error();
  if (!err.ok()) {
    pass->latched = true;
    pass->Fail("replayer latched an error: " + err.ToString());
  }
  if (aets::ReplicaDigestAt(&replayer, catalog, rec.final_ts) != rec.digest) {
    pass->Fail("replica digest differs from the recorded primary");
  }
}

void RunBusPass(const BusSpec& spec, const Options& opt, bool traced,
                Tracer* tracer, Pass* pass) {
  tracer->Enable(traced);
  const int64_t run_end = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  int cycle = 0;
  for (; cycle < spec.min_cycles || NowNs() < run_end; ++cycle) {
    uint64_t seed = opt.seed * 1000003 + static_cast<uint64_t>(cycle);
    int64_t start = NowNs();
    std::unique_ptr<BusRecording> rec = RecordBacklog(spec, seed, tracer, pass);
    pass->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    for (int d = 0; d < kBusDrainsPerBacklog && pass->errors.empty(); ++d) {
      DrainBacklog(*rec, seed * kBusDrainsPerBacklog + static_cast<uint64_t>(d),
                   tracer, pass);
    }
    if (!pass->errors.empty()) break;
  }
  tracer->Enable(false);
  if (traced) pass->spans = tracer->TakeAll();
  pass->replay_txn_per_s = BetterQuartile(pass->drain_rates, true);
  pass->rss_mb = PeakRssMb();
  std::printf("bus-catchup: %d cycles of %" PRIu64 " backlogged txns, %zu drains\n",
              cycle, spec.backlog_txns, pass->drain_rates.size());
  for (const auto& [name, v] : std::vector<std::pair<const char*, const std::vector<double>*>>{
           {"rate_txn_per_s", &pass->drain_rates}, {"lag_p50_us", &pass->drain_lag_p50},
           {"vis_p50_us", &pass->drain_vis_p50}}) {
    std::printf("drains %-15s p25=%.1f p50=%.1f p75=%.1f\n", name,
                Percentile(*v, 25), Percentile(*v, 50), Percentile(*v, 75));
  }
}

// ---------------------------------------------------------------------------
// Reporting

double OrZero(double v) { return std::isnan(v) ? 0.0 : v; }

/// The tail percentile of an end-to-end timing: the median over windows of
/// the per-window percentile (see Series), for windows holding at least
/// `min` samples.
double Tail(const Series& s, double p, size_t min) { return s.WindowedPercentile(p, min); }

std::vector<Metric> EndToEnd(const Pass& p) {
  double ktxn = static_cast<double>(std::max<uint64_t>(p.txns, 1)) / 1e3;
  // The median over the run; on bus-catchup, the better quartile over
  // drains of each drain's median (see BetterQuartile).
  auto p50 = [&](const Series& s, const std::vector<double>& per_drain) {
    return p.drain_rates.empty() ? Percentile(s.values(), 50)
                                 : BetterQuartile(per_drain, false);
  };
  return {
      {"visible_lag_us.p50", p50(p.lag_us, p.drain_lag_p50), "us"},
      {"visibility_delay_us.p50", p50(p.vis_us, p.drain_vis_p50), "us"},
      {"query_us.p50", p50(p.query_us, p.drain_query_p50), "us"},
      {"replay_txn_per_s", p.replay_txn_per_s, "txn/s"},
      {"cpu_ms_per_ktxn", p.cpu_ms / ktxn, "ms"},
      {"rss_mb", p.rss_mb, "MiB"},
      {"setup_s", Median(p.setup_s), "s"},
  };
}

/// End-to-end timings too noisy on a shared machine to gate (see
/// README.md), reported with the per-layer metrics from the untraced pass.
/// Tails are windowed (see Tail).
std::vector<Metric> Ungated(const Pass& p) {
  return {
      {"commit_us.p50", OrZero(Percentile(p.commit_us.values(), 50)), "us"},
      {"visible_lag_us.p99", OrZero(Tail(p.lag_us, 99, 1000)), "us"},
      {"visibility_delay_us.p90", OrZero(Tail(p.vis_us, 90, 100)), "us"},
      {"visibility_delay_us.p99", OrZero(Tail(p.vis_us, 99, 1000)), "us"},
      {"query_us.p90", OrZero(Tail(p.query_us, 90, 100)), "us"},
      {"query_us.p99", OrZero(Tail(p.query_us, 99, 1000)), "us"},
      {"commit_us.p90", OrZero(Tail(p.commit_us, 90, 1000)), "us"},
      {"commit_us.p99", OrZero(Tail(p.commit_us, 99, 1000)), "us"},
  };
}

uint64_t Attempted(const Pass& p) {
  return p.oltp.attempted + p.query.attempted + p.scan.attempted + p.nack.attempted;
}

uint64_t Failed(const Pass& p) {
  return p.oltp.failed + p.query.failed + p.scan.failed + p.nack.failed +
         (p.latched ? 1 : 0);
}

std::vector<Metric> PerLayer(const Pass& p, const Pass& untraced) {
  // Span-derived layer timings (self time for the primary's transaction).
  std::vector<double> txn_self, sink, seal, scan, exec;
  for (std::vector<Span> spans : p.spans) {
    std::vector<int64_t> self = SelfTimesNs(&spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
      switch (spans[i].kind) {
        case SpanKind::kTxn: txn_self.push_back(static_cast<double>(self[i]) / 1e3); break;
        case SpanKind::kSink: sink.push_back(dur); break;
        case SpanKind::kSeal: seal.push_back(dur); sink.push_back(dur); break;
        case SpanKind::kScan: scan.push_back(dur); break;
        case SpanKind::kExec: exec.push_back(dur); break;
        case SpanKind::kWait: break;
      }
    }
  }
  double ktxn = static_cast<double>(std::max<uint64_t>(p.txns, 1)) / 1e3;
  auto frac = [&](int64_t part) {
    int64_t busy = p.dispatch_ns + p.replay_ns + p.commit_ns;
    return busy > 0 ? static_cast<double>(part) / static_cast<double>(busy) : 0.0;
  };
  double epochs = static_cast<double>(std::max<uint64_t>(p.replay_epochs, 1));
  // RSS slope after warm-up (the first 30% of samples are dropped).
  auto skip = static_cast<std::ptrdiff_t>(p.rss_x_txns.size() * 3 / 10);
  std::vector<double> rx(p.rss_x_txns.begin() + skip, p.rss_x_txns.end());
  std::vector<double> ry(p.rss_y_kb.begin() + skip, p.rss_y_kb.end());
  // Tracing overhead: traced over untraced, median over the p50 timings.
  std::vector<double> overhead;
  std::vector<Metric> a = EndToEnd(p), b = EndToEnd(untraced);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name.find(".p50") != std::string::npos && b[i].value > 0) {
      overhead.push_back(a[i].value / b[i].value - 1);
    }
  }
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  auto per = [](uint64_t num, uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  std::vector<Metric> layers = Ungated(untraced);
  std::vector<Metric> more = {
      {"primary.txn_self_us.p50", OrZero(Percentile(txn_self, 50)), "us"},
      {"primary.txn_self_us.p99", OrZero(Percentile(txn_self, 99)), "us"},
      {"primary.rss_slope_kb_per_ktxn", Slope(rx, ry) * 1e3, "KiB"},
      {"replication.sink_us.p50", OrZero(Percentile(sink, 50)), "us"},
      {"replication.sink_us.p99", OrZero(Percentile(sink, 99)), "us"},
      {"replication.seal_us.p50", OrZero(Percentile(seal, 50)), "us"},
      {"replication.seal_us.p99", OrZero(Percentile(seal, 99)), "us"},
      {"replication.channel_depth.p99", OrZero(Percentile(p.channel_depth, 99)), "epochs"},
      {"replication.send_failures", count(p.send_failures), "count"},
      {"replication.retransmits", count(p.retransmits), "count"},
      {"segment.bytes_per_txn", p.segment_bytes / (ktxn * 1e3), "B"},
      {"segment.fsyncs", count(p.segment_fsyncs), "count"},
      {"net.inflight_epochs.p99", OrZero(Percentile(p.inflight, 99)), "epochs"},
      {"net.scan_us.p50", OrZero(Percentile(scan, 50)), "us"},
      {"net.scan_us.p99", OrZero(Percentile(scan, 99)), "us"},
      {"net.reconnects", count(p.net_reconnects), "count"},
      {"net.nack_rpc_failures", count(p.nack.failed), "count"},
      {"replay.hot_lag_us.p50", OrZero(Percentile(p.hot_lag_us, 50)), "us"},
      {"replay.hot_lag_us.p99", OrZero(Percentile(p.hot_lag_us, 99)), "us"},
      {"replay.apply_txn_per_s", OrZero(Median(p.apply_txn_per_s)), "txn/s"},
      {"replay.dispatch_frac", frac(p.dispatch_ns), "ratio"},
      {"replay.replay_frac", frac(p.replay_ns), "ratio"},
      {"replay.commit_frac", frac(p.commit_ns), "ratio"},
      {"replay.sync_frac", frac(p.sync_ns), "ratio"},
      {"replay.stage1_ms", static_cast<double>(p.stage1_ns) / 1e6 / epochs, "ms"},
      {"replay.stage2_ms", static_cast<double>(p.stage2_ns) / 1e6 / epochs, "ms"},
      {"replay.pipeline_stalls", count(p.pipeline_stalls), "count"},
      {"replay.epochs_retried", count(p.epochs_retried), "count"},
      {"column.chunks_rebuilt_per_ktxn", p.chunks_rebuilt / ktxn, "count"},
      {"column.publish_lag_txns.p50", OrZero(Percentile(p.publish_lag, 50)), "txns"},
      {"column.rows_scanned_per_query", per(p.rows_scanned, p.column_queries), "rows"},
      {"column.residual_frac", per(p.residual_rows, p.rows_scanned), "ratio"},
      {"query.exec_us.p50", OrZero(Percentile(exec, 50)), "us"},
      {"query.exec_us.p99", OrZero(Percentile(exec, 99)), "us"},
      {"query.column_type_mismatches", count(p.type_mismatches), "count"},
      {"gen.late_us.p99", OrZero(Percentile(p.late_us, 99)), "us"},
      {"gen.late_us.max", p.late_us.empty() ? 0.0 : *std::max_element(p.late_us.begin(), p.late_us.end()), "us"},
      {"observer.poll_us", OrZero(Median(p.poll_gap_us)), "us"},
      {"ops_failed_frac", per(Failed(p), Attempted(p)), "ratio"},
      {"trace_overhead_frac", OrZero(Median(overhead)), "ratio"},
  };
  layers.insert(layers.end(), more.begin(), more.end());
  return layers;
}

/// Writes the traced pass's spans, at most kMaxSpansWritten of each kind
/// (the per-layer metrics use all of them; a catch-up run records millions).
void WriteSpans(const Pass& p, const std::string& path) {
  constexpr size_t kMaxSpansWritten = 100'000;
  if (path.empty()) return;
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::map<SpanKind, size_t> written;
  for (std::vector<Span> spans : p.spans) {
    std::vector<int64_t> self = SelfTimesNs(&spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (written[s.kind]++ >= kMaxSpansWritten) continue;
      std::fprintf(f,
                   "{\"span\":\"%s\",\"id\":%" PRIu64 ",\"thread\":%u,"
                   "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                   ",\"self_ns\":%" PRId64 "}\n",
                   SpanName(s.kind), s.id, s.thread, s.start_ns, s.end_ns, self[i]);
    }
  }
  std::fclose(f);
}

/// Checks the pass for overload and prints its failure accounting and
/// sample counts. Returns false when the run must not report latency.
bool Review(Pass* p) {
  double late_p99 = OrZero(Percentile(p->late_us, 99));
  if (p->drain_ms < 0 || p->drain_ms > kMaxDrainMs) {
    p->Fail("overloaded: backlog not drained within 5 s of the timed region");
  }
  if (late_p99 > kMaxLateP99Us) p->Fail("overloaded: generators ran late");
  std::printf("ops  oltp   attempted=%" PRIu64 " failed=%" PRIu64 "\n", p->oltp.attempted, p->oltp.failed);
  std::printf("ops  query  attempted=%" PRIu64 " failed=%" PRIu64 "\n", p->query.attempted, p->query.failed);
  std::printf("ops  scan   attempted=%" PRIu64 " failed=%" PRIu64 " (errors and kBusy)\n", p->scan.attempted, p->scan.failed);
  std::printf("ops  nack   attempted=%" PRIu64 " failed=%" PRIu64 "\n", p->nack.attempted, p->nack.failed);
  std::printf("ops  latch  %s\n", p->latched ? "tripped" : "clear");
  std::printf("ops  total  attempted=%" PRIu64 " failed=%" PRIu64 " ops_failed_frac=%g\n",
              Attempted(*p), Failed(*p),
              Attempted(*p) ? static_cast<double>(Failed(*p)) / static_cast<double>(Attempted(*p)) : 0.0);
  std::printf("gate answers_checked=%" PRIu64 " drain_ms=%.1f gen_late_p99_us=%.1f\n",
              p->answers_checked, p->drain_ms, late_p99);
  for (const auto& [name, s] : std::vector<std::pair<const char*, const Series*>>{
           {"visible_lag_us", &p->lag_us}, {"visibility_delay_us", &p->vis_us},
           {"query_us", &p->query_us}, {"commit_us", &p->commit_us}}) {
    std::printf("samples %-20s n=%zu beyond_p99=%zu run_p99=%.1f\n", name, s->size(),
                s->size() ? TailCount(s->values(), 99) : 0,
                OrZero(Percentile(s->values(), 99)));
  }
  for (const auto& e : p->errors) std::printf("FAIL %s\n", e.c_str());
  return p->errors.empty();
}

void PrintJson(bool correct, const Pass& p, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", std::max<uint64_t>(Attempted(p), 1), Failed(p));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: htap_bench --workload tpcc-fresh|ch-olap-tcp|bus-catchup "
               "--seed N --seconds S [--trace 0|1] [--trace-out FILE] "
               "[--workdir DIR] [--smoke]\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(next().c_str(), nullptr);
    else if (a == "--trace") o.trace = next() == "1";
    else if (a == "--trace-out") o.trace_out = next();
    else if (a == "--workdir") o.workdir = next();
    else if (a == "--smoke") o.smoke = true;
    else Usage();
  }
  if (o.seconds <= 0) Usage();
  return o;
}

int Main(int argc, char** argv) {
  Options opt = Parse(argc, argv);
  std::function<void(bool, Tracer*, Pass*)> run;
  if (opt.workload == "tpcc-fresh" || opt.workload == "ch-olap-tcp") {
    LiveSpec spec;
    spec.ch = opt.workload == "ch-olap-tcp";
    spec.tpcc.warehouses = 2;
    spec.tpcc.items = 20'000;
    spec.tpcc.customers_per_district = 300;
    spec.tpcc.init_orders_per_district = 100;
    if (spec.ch) {
      spec.oltp_rate = 1000;
      spec.query_rate = opt.smoke ? 30 : 60;
      spec.query_threads = 3;  // one each for Q1, the TCP scan and Q6
    } else {
      spec.oltp_rate = 1500;
      spec.query_rate = opt.smoke ? 50 : 150;
      spec.query_threads = 2;
    }
    run = [spec, &opt](bool traced, Tracer* tracer, Pass* pass) {
      RunLivePass(spec, opt, traced, tracer, pass);
    };
  } else if (opt.workload == "bus-catchup") {
    BusSpec spec;
    spec.backlog_txns = opt.smoke ? 5'000 : 100'000;
    spec.min_cycles = opt.smoke ? 1 : 3;
    run = [spec, &opt](bool traced, Tracer* tracer, Pass* pass) {
      RunBusPass(spec, opt, traced, tracer, pass);
    };
  } else {
    Usage();
  }
  std::filesystem::create_directories(opt.workdir);

  Tracer tracer;
  Pass untraced;
  run(false, &tracer, &untraced);
  bool ok = Review(&untraced);
  std::vector<Metric> metrics = EndToEnd(untraced);
  Pass* reported = &untraced;
  Pass traced;
  if (opt.trace && ok) {
    // A separate traced pass gives the per-layer numbers; end-to-end numbers
    // only ever come from the untraced pass.
    run(true, &tracer, &traced);
    ok = Review(&traced);
    metrics = PerLayer(traced, untraced);
    WriteSpans(traced, opt.trace_out);
    reported = &traced;
  }
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::filesystem::remove_all(opt.workdir);
  PrintJson(ok, *reported, metrics);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
