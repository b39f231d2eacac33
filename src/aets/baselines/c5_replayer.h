#ifndef AETS_BASELINES_C5_REPLAYER_H_
#define AETS_BASELINES_C5_REPLAYER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "aets/catalog/catalog.h"
#include "aets/common/thread_pool.h"
#include "aets/log/shipped_epoch.h"
#include "aets/replay/replayer_base.h"
#include "aets/replication/channel.h"
#include "aets/storage/packed_delta.h"

namespace aets {

struct C5Options {
  int workers = 4;
  /// Watermark (snapshot timestamp) advance period (paper: 5 ms).
  int64_t watermark_period_us = 5'000;
};

/// Reimplementation of the C5 baseline (Helt et al., VLDB'22) on our
/// substrate: row-based dispatch — the dispatcher decodes the FULL log data
/// image (the extra parsing cost the paper highlights) and routes each row
/// operation to the dedicated queue owned by hash(table, row); one worker
/// drains each queue in order, which preserves per-row operation order by
/// construction; a single watermark thread advances the snapshot timestamp
/// every `watermark_period_us` to the largest prefix of fully applied
/// transactions. No table grouping: one global watermark.
class C5Replayer : public ReplayerBase {
 public:
  C5Replayer(const Catalog* catalog, EpochChannel* channel, C5Options options);
  ~C5Replayer() override;

  Timestamp TableVisibleTs(TableId table) const override;
  Timestamp GlobalVisibleTs() const override;

 protected:
  Status StartWorkers() override;
  void StopWorkers() override;
  bool ApplyEpoch(const ShippedEpoch& epoch) override;
  void ProcessHeartbeat(const ShippedEpoch& epoch) override;

 private:
  /// A fully decoded row operation bound for one dedicated queue: the fixed
  /// fields plus the delta already packed for installation (the dispatcher
  /// pays the full parse, per the baseline's design — but no longer a
  /// per-value materialization).
  struct RowOp {
    TableId table_id = kInvalidTableId;
    int64_t row_key = 0;
    TxnId txn_id = kInvalidTxnId;
    bool is_delete = false;
    PackedDelta delta;
    Timestamp commit_ts = kInvalidTimestamp;
    size_t txn_index = 0;  // index into the epoch's txn bookkeeping
  };

  C5Options options_;
  std::atomic<Timestamp> watermark_{kInvalidTimestamp};
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace aets

#endif  // AETS_BASELINES_C5_REPLAYER_H_
