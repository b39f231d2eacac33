#ifndef AETS_BASELINES_SERIAL_REPLAYER_H_
#define AETS_BASELINES_SERIAL_REPLAYER_H_

#include <atomic>

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
class SerialReplayer : public ReplayerBase {
 public:
  SerialReplayer(const Catalog* catalog, EpochChannel* channel);
  ~SerialReplayer() override;

  Timestamp TableVisibleTs(TableId table) const override;
  Timestamp GlobalVisibleTs() const override;

 protected:
  bool ApplyEpoch(const ShippedEpoch& epoch) override;
  void ProcessHeartbeat(const ShippedEpoch& epoch) override;

 private:
  std::atomic<Timestamp> watermark_{kInvalidTimestamp};
};

}  // namespace aets

#endif  // AETS_BASELINES_SERIAL_REPLAYER_H_
