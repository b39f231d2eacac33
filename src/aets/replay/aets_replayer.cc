#include "aets/replay/aets_replayer.h"

#include <algorithm>
#include <utility>

#include "aets/common/macros.h"
#include "aets/log/codec.h"
#include "aets/obs/trace.h"

namespace aets {

// Minimum predicted access rate for a table to count as hot (filters
// predictor noise on unqueried tables).
constexpr double kHotRateThreshold = 0.5;

AetsReplayer::PreparedAets::~PreparedAets() {
  work_bell->WaitUntil([this] {
    return outstanding_translate.load(std::memory_order_acquire) == 0;
  });
}

AetsReplayer::AetsReplayer(const Catalog* catalog, EpochChannel* channel,
                           AetsOptions options)
    : ReplayerBase(catalog, channel, options.name),
      options_(std::move(options)),
      table_ts_(catalog->num_tables()),
      regroup_metric_(obs::GetCounter("allocator.regroups")),
      realloc_metric_(obs::GetCounter("allocator.reallocations")),
      watermark_metric_(obs::GetGauge("replay.global_visible_ts")),
      num_groups_metric_(obs::GetGauge("allocator.groups")),
      epoch_apply_us_metric_(obs::GetHistogram("replay.epoch_apply_us")) {
  for (auto& ts : table_ts_) ts.store(kInvalidTimestamp, std::memory_order_relaxed);
  current_rates_ = options_.initial_rates;
  current_rates_.resize(catalog_->num_tables(), 0.0);
  RebuildGroups(current_rates_);
  SetPipelineDepth(options_.pipeline_depth);
  if (options_.column_store_enabled) {
    storage::ColumnStoreOptions cs;
    cs.chunk_rows = options_.column_chunk_rows;
    EnableColumnStore(cs);
  }
}

AetsReplayer::~AetsReplayer() { Stop(); }

Status AetsReplayer::StartWorkers() {
  if (options_.replay_threads <= 0 || options_.commit_threads <= 0) {
    return Status::InvalidArgument("thread counts must be positive");
  }
  // At most replay_threads translate jobs per epoch, for at most
  // pipeline_depth + 1 epochs in flight, reach the replay pool; the pipeline
  // queue, not a pool queue bound, is what throttles the prepare stage.
  replay_pool_ = std::make_unique<ThreadPool>(options_.replay_threads);
  // The commit context claims a stage's groups alongside the pool (see
  // CommitStage), so the pool holds the other commit_threads - 1.
  if (options_.commit_threads > 1) {
    commit_pool_ = std::make_unique<ThreadPool>(options_.commit_threads - 1);
  }
  return Status::OK();
}

void AetsReplayer::StopWorkers() {
  replay_pool_.reset();
  commit_pool_.reset();
}

Timestamp AetsReplayer::TableVisibleTs(TableId table) const {
  AETS_CHECK(table < table_ts_.size());
  return table_ts_[table].load(std::memory_order_acquire);
}

Timestamp AetsReplayer::GlobalVisibleTs() const {
  return global_ts_.load(std::memory_order_acquire);
}

std::vector<TableGroup> AetsReplayer::groups() const {
  std::lock_guard<std::mutex> lk(groups_mu_);
  return grouping_->groups;
}

std::shared_ptr<const AetsReplayer::GroupingSnapshot>
AetsReplayer::grouping_snapshot() const {
  std::lock_guard<std::mutex> lk(groups_mu_);
  return grouping_;
}

Status AetsReplayer::Bootstrap(const std::string& checkpoint_path) {
  if (started()) return Status::InvalidArgument("Bootstrap after Start");
  if (expected_epoch_ != 0 || global_ts_.load() != kInvalidTimestamp) {
    return Status::InvalidArgument("Bootstrap on a non-fresh replayer");
  }
  auto info = Checkpointer::Restore(checkpoint_path, &store_);
  if (!info.ok()) return info.status();
  for (auto& ts : table_ts_) {
    ts.store(info->snapshot_ts, std::memory_order_relaxed);
  }
  global_ts_.store(info->snapshot_ts, std::memory_order_relaxed);
  bell().Ring();
  expected_epoch_ = info->next_epoch_id;
  // The restored rows are committed at snapshot_ts: a table's first query
  // seeds its columns from them at this watermark, even before any epoch.
  RequestColumnPublish(info->snapshot_ts);
  return Status::OK();
}

Status AetsReplayer::WriteCheckpoint(const std::string& path) const {
  // Read the epoch cursor before the watermark: if an epoch slips in
  // between the two loads, the image claims an older next-epoch than the
  // rows it holds could support — and re-replaying an epoch is idempotent
  // here (full-image inserts/deletes at fixed commit timestamps), while
  // skipping one never is.
  EpochId next_epoch = next_expected_epoch();
  Timestamp watermark = global_ts_.load(std::memory_order_acquire);
  if (watermark == kInvalidTimestamp) {
    return Status::InvalidArgument("checkpoint before any watermark");
  }
  return Checkpointer::Write(store_, watermark, next_epoch, path);
}

void AetsReplayer::ProcessHeartbeat(const ShippedEpoch& epoch) {
  // Heartbeats ride the pipeline queue behind every data epoch shipped
  // before them, and the commit context is single, so all data older than
  // heartbeat_ts is already replayed; the whole backup may publish it.
  for (auto& ts : table_ts_) StoreMaxTimestamp(ts, epoch.heartbeat_ts);
  PublishWatermark(global_ts_, epoch.heartbeat_ts);
  watermark_metric_->Set(
      static_cast<int64_t>(global_ts_.load(std::memory_order_relaxed)));
}

void AetsReplayer::RefreshRates() {
  if (!options_.rate_provider) return;
  std::vector<double> rates = options_.rate_provider();
  rates.resize(catalog_->num_tables(), 0.0);
  bool changed = rates != current_rates_;
  current_rates_ = std::move(rates);
  if (!changed) return;
  if (options_.regroup_on_rate_change &&
      (options_.grouping == GroupingMode::kPerTable ||
       options_.grouping == GroupingMode::kByAccessRate)) {
    RebuildGroups(current_rates_);
  } else {
    // Keep the group shapes; refresh their access rates for the allocator.
    // Installed as a fresh snapshot — epochs already in the pipeline keep
    // reading the generation they were dispatched under.
    auto next = std::make_shared<GroupingSnapshot>(*grouping_snapshot());
    for (auto& g : next->groups) {
      g.access_rate = 0;
      for (TableId t : g.tables) g.access_rate += current_rates_[t];
      if (options_.grouping != GroupingMode::kStatic &&
          options_.grouping != GroupingMode::kSingle) {
        g.hot = g.access_rate >= kHotRateThreshold;
      }
    }
    std::lock_guard<std::mutex> lk(groups_mu_);
    grouping_ = std::move(next);
  }
}

void AetsReplayer::RebuildGroups(const std::vector<double>& rates) {
  auto next = std::make_shared<GroupingSnapshot>();
  switch (options_.grouping) {
    case GroupingMode::kPerTable:
      next->groups = TableGrouping::PerTable(rates, kHotRateThreshold);
      break;
    case GroupingMode::kByAccessRate:
      next->groups = TableGrouping::ByAccessRate(rates, options_.dbscan_eps,
                                                 kHotRateThreshold);
      break;
    case GroupingMode::kStatic:
      next->groups = TableGrouping::Static(options_.static_hot_groups, rates,
                                           catalog_->num_tables());
      break;
    case GroupingMode::kSingle:
      next->groups = TableGrouping::Single(catalog_->num_tables(), rates);
      break;
  }
  next->table_to_group =
      TableGrouping::TableToGroup(next->groups, catalog_->num_tables());
  size_t num_groups = next->groups.size();
  {
    std::lock_guard<std::mutex> lk(groups_mu_);
    grouping_ = std::move(next);
  }
  regroup_metric_->Add(1);
  num_groups_metric_->Set(static_cast<int64_t>(num_groups));
  group_thread_gauges_.resize(num_groups);
  for (size_t gi = 0; gi < num_groups; ++gi) {
    group_thread_gauges_[gi] = obs::GetGauge("allocator.group_threads.g" +
                                             std::to_string(gi));
  }
  last_alloc_.assign(num_groups, -1);
}

std::unique_ptr<ReplayerBase::PreparedEpoch> AetsReplayer::PrepareEpoch(
    const ShippedEpoch& epoch) {
  AETS_TRACE_SPAN("replay.prepare");
  auto prep = std::make_unique<PreparedAets>(&work_bell_);
  prep->apply_start_us = MonotonicMicros();
  RefreshRates();
  prep->grouping = grouping_snapshot();
  prep->payload = epoch.payload;
  const GroupingSnapshot& grouping = *prep->grouping;
  prep->gstate = std::vector<GroupEpochState>(grouping.groups.size());
  {
    AETS_TRACE_SPAN("replay.dispatch");
    ScopedTimerNs timer(&stats_.dispatch_ns);
    if (!DispatchEpoch(epoch, grouping, &prep->gstate)) return prep;
  }

  // Partition groups into the two stages. Without two-stage replay every
  // group runs in one stage. Groups that received no log entries this epoch
  // have nothing pending, but their tables may publish the epoch's maximum
  // commit timestamp only after the whole epoch commits cleanly (see
  // CommitEpoch) — publishing here would let a later stage failure leave a
  // quiet table's watermark past the failure point.
  for (size_t gi = 0; gi < grouping.groups.size(); ++gi) {
    if (prep->gstate[gi].fragments.empty()) {
      prep->quiet_groups.push_back(static_cast<int>(gi));
    } else if (options_.two_stage && !grouping.groups[gi].hot) {
      prep->cold_groups.push_back(static_cast<int>(gi));
    } else {
      prep->hot_groups.push_back(static_cast<int>(gi));
    }
  }
  // Phase-1 translation starts now, possibly epochs ahead of its commit:
  // translate only pins Memtable nodes and builds pending cells, so it is
  // safe to overlap with the commit of earlier epochs. Hot groups are
  // planned first so stage 1 is never starved behind cold work.
  PlanTranslate(prep.get(), prep->hot_groups);
  PlanTranslate(prep.get(), prep->cold_groups);
  LaunchTranslate(prep.get());
  return prep;
}

bool AetsReplayer::CommitEpoch(const ShippedEpoch& epoch,
                               std::unique_ptr<PreparedEpoch> prepared) {
  AETS_TRACE_SPAN("replay.epoch");
  auto* prep = static_cast<PreparedAets*>(prepared.get());
  {
    AETS_TRACE_SPAN("replay.stage1_hot");
    ScopedTimerNs timer(&stats_.stage1_wall_ns);
    CommitStage(prep, prep->hot_groups);
  }
  {
    AETS_TRACE_SPAN("replay.stage2_cold");
    ScopedTimerNs timer(&stats_.stage2_wall_ns);
    CommitStage(prep, prep->cold_groups);
  }
  // Every fragment is installed or its group stopped on the latch: a
  // translation failure latches before it marks its fragment poisoned, and
  // the group's committer reads that mark, so the check below cannot miss
  // it. Translate jobs still draining (ones that found nothing left to
  // claim) are waited for only when `prepared` is destroyed, after the
  // watermarks are published.
  //
  // A failed epoch must not move any watermark past the failure point —
  // including the quiet groups, whose tables saw no log entries this epoch
  // but would otherwise announce visibility the epoch never earned.
  if (HasError()) return false;

  const GroupingSnapshot& grouping = *prep->grouping;
  for (int gi : prep->quiet_groups) {
    for (TableId t : grouping.groups[static_cast<size_t>(gi)].tables) {
      StoreMaxTimestamp(table_ts_[t], epoch.max_commit_ts);
    }
  }
  PublishWatermark(global_ts_, epoch.max_commit_ts);
  stats_.txns.fetch_add(epoch.num_txns, std::memory_order_relaxed);
  watermark_metric_->Set(
      static_cast<int64_t>(global_ts_.load(std::memory_order_relaxed)));
  epoch_apply_us_metric_->Record(MonotonicMicros() - prep->apply_start_us);
  return true;
}

bool AetsReplayer::DispatchEpoch(const ShippedEpoch& epoch,
                                 const GroupingSnapshot& grouping,
                                 std::vector<GroupEpochState>* gstate) {
  // The log parser + dispatcher (component 1 of Fig. 3): a single pass over
  // the metadata prefixes finds transaction boundaries and routes each DML
  // entry to its group, recording only the payload offset — values are
  // decoded later, in parallel, by the phase-1 replay workers.
  const std::string& data = *epoch.payload;
  size_t offset = 0;
  TxnId cur_txn = kInvalidTxnId;
  Timestamp cur_ts = kInvalidTimestamp;
  while (offset < data.size()) {
    size_t rec_start = offset;
    auto rec = LogCodec::DecodeMetadata(data, &offset);
    if (!rec.ok()) {
      SetError(rec.status());
      return false;
    }
    switch (rec->type) {
      case LogRecordType::kBegin:
        cur_txn = rec->txn_id;
        cur_ts = rec->timestamp;
        break;
      case LogRecordType::kCommit:
        cur_txn = kInvalidTxnId;
        break;
      case LogRecordType::kHeartbeat:
        break;
      default: {  // DML
        if (cur_txn == kInvalidTxnId) {
          SetError(Status::Corruption("DML outside transaction"));
          return false;
        }
        if (rec->table_id >= grouping.table_to_group.size()) {
          SetError(Status::Corruption("DML for unknown table"));
          return false;
        }
        size_t gi = static_cast<size_t>(grouping.table_to_group[rec->table_id]);
        GroupEpochState& gs = (*gstate)[gi];
        // A group's open fragment is its newest, while it belongs to the
        // current transaction.
        if (gs.fragments.empty() || gs.fragments.back()->txn_id != cur_txn ||
            gs.fragments.back()->commit_ts != cur_ts) {
          auto frag = std::make_unique<Fragment>();
          frag->txn_id = cur_txn;
          frag->commit_ts = cur_ts;
          gs.fragments.push_back(std::move(frag));
        }
        gs.fragments.back()->offsets.push_back(rec_start);
        gs.bytes += offset - rec_start;
        break;
      }
    }
  }
  return true;
}

void AetsReplayer::PlanTranslate(PreparedAets* prep,
                                 const std::vector<int>& member_groups) {
  if (member_groups.empty()) return;
  const GroupingSnapshot& grouping = *prep->grouping;

  std::vector<GroupDemand> demands;
  demands.reserve(member_groups.size());
  for (int gi : member_groups) {
    demands.push_back(GroupDemand{
        static_cast<double>(prep->gstate[static_cast<size_t>(gi)].bytes),
        grouping.groups[static_cast<size_t>(gi)].access_rate});
  }
  std::vector<int> alloc =
      AllocateThreads(demands, options_.replay_threads, options_.adaptive_alloc);

  // Publish the allocation and count the epochs where it shifted (the
  // adaptive-allocation activity the paper's Fig. 13 sweeps).
  bool changed = false;
  for (size_t i = 0; i < member_groups.size(); ++i) {
    size_t gi = static_cast<size_t>(member_groups[i]);
    group_thread_gauges_[gi]->Set(alloc[i]);
    if (last_alloc_[gi] != alloc[i]) {
      if (last_alloc_[gi] >= 0) changed = true;
      last_alloc_[gi] = alloc[i];
    }
  }
  if (changed) realloc_metric_->Add(1);

  // Expand the allocation into per-worker tasks. A group never gets more
  // tasks than it has fragments: a worker beyond that would wake only to
  // find nothing left to claim. Groups that received no thread (more groups
  // than workers) piggyback on this stage's tasks round-robin, so every
  // group always makes progress.
  const size_t first = prep->tasks.size();
  std::vector<int> leftovers;
  for (size_t i = 0; i < member_groups.size(); ++i) {
    size_t frags =
        prep->gstate[static_cast<size_t>(member_groups[i])].fragments.size();
    size_t workers = std::min(static_cast<size_t>(alloc[i]), frags);
    if (workers == 0) leftovers.push_back(member_groups[i]);
    prep->tasks.insert(prep->tasks.end(), workers, {member_groups[i]});
  }
  if (prep->tasks.size() == first) prep->tasks.emplace_back();
  const size_t stage_tasks = prep->tasks.size() - first;
  for (size_t i = 0; i < leftovers.size(); ++i) {
    prep->tasks[first + i % stage_tasks].push_back(leftovers[i]);
  }
}

void AetsReplayer::LaunchTranslate(PreparedAets* prep) {
  // One job per replay worker the plan can use; each job claims planned
  // tasks in order (hot stage first, so stage 1 is never starved behind
  // cold work) until none is left. The committers — which may only run
  // epochs later — synchronize on the per-fragment translated flags, and
  // the prepared state's outstanding_translate counter keeps the gstate
  // alive until every job returned. The ring after the decrement touches
  // only replayer memory: the drained epoch's state may already be freed.
  const size_t jobs = std::min(prep->tasks.size(),
                               static_cast<size_t>(options_.replay_threads));
  prep->outstanding_translate.store(static_cast<int>(jobs),
                                    std::memory_order_relaxed);
  const auto job = [this, prep] {
    for (;;) {
      size_t t = prep->next_task.fetch_add(1, std::memory_order_relaxed);
      if (t >= prep->tasks.size()) break;
      for (int gi : prep->tasks[t]) {
        TranslateGroup(*prep->payload, &prep->gstate[static_cast<size_t>(gi)]);
      }
    }
    prep->outstanding_translate.fetch_sub(1, std::memory_order_release);
    work_bell_.Ring();
  };
  size_t accepted = 0;
  while (accepted < jobs && replay_pool_->Submit(job)) ++accepted;
  if (accepted < jobs) {
    prep->outstanding_translate.fetch_sub(static_cast<int>(jobs - accepted),
                                          std::memory_order_relaxed);
    SetError(Status::Internal("replay pool rejected a translate task"));
  }
}

void AetsReplayer::CommitStage(PreparedAets* prep,
                               const std::vector<int>& member_groups) {
  if (member_groups.empty()) return;
  // Phase 2 (Algorithms 1-2): each group commits on one thread. The commit
  // context and one pool job per further group claim the stage's groups in
  // order; the pool has commit_threads - 1 workers, so commit_threads still
  // bounds how many groups commit at once (1 reproduces a single-commit-
  // thread design: no pool, every group here in turn), and a one-group
  // stage wakes no other thread. Only the commit context submits, so
  // WaitIdle is a barrier over exactly this epoch's stage — and over every
  // reader of the stack-held claim counter.
  std::atomic<size_t> next{0};
  auto claim = [&] {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= member_groups.size()) return;
      const auto gi = static_cast<size_t>(member_groups[i]);
      CommitGroup(&prep->gstate[gi], prep->grouping->groups[gi]);
    }
  };
  const size_t helpers = commit_pool_ ? member_groups.size() - 1 : 0;
  for (size_t h = 0; h < helpers; ++h) {
    if (!commit_pool_->Submit([&claim] { claim(); })) {
      SetError(Status::Internal("commit pool rejected a commit task"));
      break;
    }
  }
  claim();
  if (helpers > 0) commit_pool_->WaitIdle();
}

void AetsReplayer::TranslateGroup(const std::string& payload,
                                  GroupEpochState* gs) {
  // TPLR phase 1: claim fragments and translate their log entries into
  // uncommitted cells. No transaction dependencies are considered and no
  // Memtable locks are taken — cells only pin their target nodes. The
  // zero-copy decode validates each frame once; the packed delta is the
  // only allocation per record.
  ScopedTimerNs timer(&stats_.replay_ns);
  for (;;) {
    if (HasError()) return;  // stop claiming; committers bail on the latch
    size_t idx = gs->next_claim.fetch_add(1, std::memory_order_relaxed);
    if (idx >= gs->fragments.size()) return;
    Fragment* frag = gs->fragments[idx].get();
    frag->cells.reserve(frag->offsets.size());
    for (size_t off : frag->offsets) {
      size_t pos = off;
      auto rec = LogCodec::DecodeView(payload, &pos);
      if (!rec.ok()) {
        SetError(rec.status());
        frag->poisoned.store(true, std::memory_order_release);
        break;
      }
      MemNode* node =
          store_.GetTable(rec->table_id)->GetOrCreateNode(rec->row_key);
      VersionCell cell;
      cell.commit_ts = frag->commit_ts;
      cell.txn_id = rec->txn_id;
      cell.is_delete = rec->type == LogRecordType::kDelete;
      cell.delta = PackedDelta::FromWire(rec->num_values, rec->value_bytes);
      frag->cells.push_back(PendingCell{node, std::move(cell), rec->table_id});
    }
    // Always flip `translated` (even when poisoned) so a committer already
    // parked on this fragment wakes promptly; `poisoned` keeps the partial
    // cells from ever being installed.
    frag->translated.store(true, std::memory_order_release);
    work_bell_.Ring();
  }
}

void AetsReplayer::CommitGroup(GroupEpochState* gs, const TableGroup& group) {
  // TPLR phase 2 (Algorithms 1-2): walk the group's commit order; for each
  // transaction wait until phase 1 finished it, then append its cells to the
  // version lists and publish tg_cmt_ts.
  std::vector<const MemNode*> dirty_nodes;  // one table's rows of a fragment
  for (auto& frag_ptr : gs->fragments) {
    Fragment* frag = frag_ptr.get();
    // waiting_commit_list check: park on the work bell until phase 1 flips
    // `translated`. On error, unclaimed fragments never flip it, so the
    // latch (which rings the bell) is the exit.
    auto ready = [&] {
      return frag->translated.load(std::memory_order_acquire) || HasError();
    };
    if (!ready()) {
      stats_.commit_waits.fetch_add(1, std::memory_order_relaxed);
      work_bell_.WaitUntil(ready);
    }
    // A poisoned fragment holds a partial transaction; installing it would
    // corrupt the backup. Freeze this group's watermark at the last fully
    // committed transaction instead.
    if (frag->poisoned.load(std::memory_order_acquire) || HasError()) return;
    {
      ScopedTimerNs timer(&stats_.commit_ns);
      for (auto& pc : frag->cells) {
        pc.node->AppendVersion(std::move(pc.cell));
      }
    }
    // Feed the column store BEFORE the watermark store below: a reader that
    // observes tg_cmt_ts >= frag->commit_ts must also observe these rows in
    // the pending dirty set (mutex release → release-store → acquire-load →
    // mutex acquire), or its residual top-up would miss them. One NoteDirty
    // (one table lock) per (fragment, table), not per row. The nodes let the
    // merge thread read the rows without the index.
    if (storage::ColumnStore* cs = column_store()) {
      for (TableId t : group.tables) {
        dirty_nodes.clear();
        for (const auto& pc : frag->cells) {
          if (pc.table == t) dirty_nodes.push_back(pc.node);
        }
        if (!dirty_nodes.empty()) {
          cs->NoteDirty(t, dirty_nodes, frag->commit_ts);
        }
      }
    }
    for (TableId t : group.tables) {
      StoreMaxTimestamp(table_ts_[t], frag->commit_ts + options_.test_tg_publish_skew);
    }
    bell().Ring();  // one wake-up for the whole group's tables
  }
}

}  // namespace aets
