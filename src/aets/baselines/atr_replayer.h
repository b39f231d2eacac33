#ifndef AETS_BASELINES_ATR_REPLAYER_H_
#define AETS_BASELINES_ATR_REPLAYER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "aets/catalog/catalog.h"
#include "aets/common/thread_pool.h"
#include "aets/log/shipped_epoch.h"
#include "aets/replay/replayer_base.h"
#include "aets/replication/channel.h"

namespace aets {

struct AtrOptions {
  int workers = 4;
  /// Cross-epoch pipeline depth (DESIGN.md §9): metadata dispatch of epoch
  /// N+1 overlaps the worker apply + watermark advance of epoch N. Kept at
  /// the same default as AetsOptions so benchmark comparisons stay
  /// apples-to-apples.
  int pipeline_depth = 2;
};

/// Reimplementation of the ATR log replay baseline (Lee et al., VLDB'17) on
/// our substrate: transactionID-based dispatch (txn_id modulo worker count),
/// workers install versions directly into the Memtable guarded by the
/// per-record operation-sequence check (wait until the record's chain head
/// matches the log entry's before-image txn id), and a single commit thread
/// that advances the visibility watermark in primary transaction order.
/// There is no table grouping: all tables publish the same watermark.
class AtrReplayer : public ReplayerBase {
 public:
  AtrReplayer(const Catalog* catalog, EpochChannel* channel, AtrOptions options);
  ~AtrReplayer() override;

  Timestamp TableVisibleTs(TableId table) const override;
  Timestamp GlobalVisibleTs() const override;

 protected:
  Status StartWorkers() override;
  void StopWorkers() override;
  std::unique_ptr<PreparedEpoch> PrepareEpoch(
      const ShippedEpoch& epoch) override;
  bool CommitEpoch(const ShippedEpoch& epoch,
                   std::unique_ptr<PreparedEpoch> prepared) override;
  void ProcessHeartbeat(const ShippedEpoch& epoch) override;

 private:
  /// One transaction's work: offsets of its DML records in the payload.
  struct TxnTask {
    TxnId txn_id = kInvalidTxnId;
    Timestamp commit_ts = kInvalidTimestamp;
    std::vector<size_t> offsets;
    std::atomic<bool> done{false};
  };

  /// Prepare-stage output: the per-transaction dispatch of one epoch. The
  /// workers only run during CommitEpoch (ATR installs versions directly,
  /// which must stay epoch-ordered), so nothing here outlives its commit.
  struct PreparedAtr : PreparedEpoch {
    std::shared_ptr<const std::string> payload;
    std::deque<TxnTask> tasks;
  };

  void WorkerRun(const std::string& payload, std::deque<TxnTask>* tasks,
                 int worker_id);

  AtrOptions options_;
  std::atomic<Timestamp> watermark_{kInvalidTimestamp};
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace aets

#endif  // AETS_BASELINES_ATR_REPLAYER_H_
