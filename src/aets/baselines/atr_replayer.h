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
  bool ApplyEpoch(const ShippedEpoch& epoch) override;
  void ProcessHeartbeat(const ShippedEpoch& epoch) override;

 private:
  /// One transaction's work: offsets of its DML records in the payload.
  struct TxnTask {
    TxnId txn_id = kInvalidTxnId;
    Timestamp commit_ts = kInvalidTimestamp;
    std::vector<size_t> offsets;
    std::atomic<bool> done{false};
  };

  void WorkerRun(const std::string& payload, std::deque<TxnTask>* tasks,
                 int worker_id);

  AtrOptions options_;
  std::atomic<Timestamp> watermark_{kInvalidTimestamp};
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace aets

#endif  // AETS_BASELINES_ATR_REPLAYER_H_
