#ifndef AETS_BASELINES_SERIAL_REPLAYER_H_
#define AETS_BASELINES_SERIAL_REPLAYER_H_

#include <atomic>
#include <memory>

#include "aets/catalog/catalog.h"
#include "aets/log/shipped_epoch.h"
#include "aets/replay/replayer_base.h"
#include "aets/replication/channel.h"

namespace aets {

/// Single-threaded replayer that applies transactions strictly in commit
/// order. It is the correctness oracle: every parallel replayer's final
/// backup state must equal the serial replayer's (and the primary's). It
/// deliberately keeps the owning decode path (DecodeEpoch) so the oracle
/// exercises different codec machinery than the replayers under test.
///
/// The cross-epoch pipeline (DESIGN.md §9) still applies: the owning decode
/// of epoch N+1 overlaps the apply of epoch N. The apply itself — and every
/// watermark store — remains strictly serial in commit order.
class SerialReplayer : public ReplayerBase {
 public:
  SerialReplayer(const Catalog* catalog, EpochChannel* channel,
                 int pipeline_depth = 2);
  ~SerialReplayer() override;

  Timestamp TableVisibleTs(TableId table) const override;
  Timestamp GlobalVisibleTs() const override;

 protected:
  std::unique_ptr<PreparedEpoch> PrepareEpoch(
      const ShippedEpoch& epoch) override;
  bool CommitEpoch(const ShippedEpoch& epoch,
                   std::unique_ptr<PreparedEpoch> prepared) override;
  void ProcessHeartbeat(const ShippedEpoch& epoch) override;

 private:
  /// Prepare-stage output: the owning decode of one epoch.
  struct PreparedSerial : PreparedEpoch {
    Epoch epoch;
  };

  std::atomic<Timestamp> watermark_{kInvalidTimestamp};
};

}  // namespace aets

#endif  // AETS_BASELINES_SERIAL_REPLAYER_H_
