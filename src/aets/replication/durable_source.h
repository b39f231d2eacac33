#ifndef AETS_REPLICATION_DURABLE_SOURCE_H_
#define AETS_REPLICATION_DURABLE_SOURCE_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "aets/common/result.h"
#include "aets/replication/epoch_source.h"
#include "aets/storage/segment_store.h"

namespace aets {

/// EpochSource view of a SegmentStore: the restart-recovery path. After a
/// crash, a fresh replayer bootstraps from the newest valid checkpoint and
/// then replays the durable segment tail through its normal main loop —
/// Start() against an already-closed channel drives the gap-filling loop,
/// which pulls every epoch in [expected, NextEpochId()) from this source
/// exactly as if they were NACK retransmits. No recovery-only replay code
/// path exists.
///
/// Also usable as a live shipper's fallback: see
/// LogShipper::AttachSegmentStore, which folds the same disk fetch into its
/// own FetchEpoch instead.
class DurableEpochSource : public EpochSource {
 public:
  /// `store` must outlive this source.
  explicit DurableEpochSource(SegmentStore* store) : store_(store) {}

  std::optional<ShippedEpoch> FetchEpoch(EpochId id) override {
    return store_->Read(id);
  }

  EpochId NextEpochId() const override { return store_->next_epoch(); }

  /// The store's truncation floor: ids below first_epoch() were dropped
  /// under checkpoint coverage, so a replayer bootstrapped too far back
  /// reports BelowCheckpoint instead of misdiagnosing loss.
  EpochId FloorEpochId() const override { return store_->first_epoch(); }

 private:
  SegmentStore* store_;
};

/// Checkpoint images live beside the segments as `ckpt-<16hex next-epoch>.img`
/// so recovery can order them by how much of the epoch sequence they already
/// contain. Commit is atomic (tmp + rename inside Checkpointer::Write), so
/// any file matching the pattern is complete — though possibly corrupt, which
/// is why recovery walks the list newest-first until one restores cleanly.
std::string CheckpointPathFor(const std::string& dir, EpochId next_epoch_id);

/// All checkpoint images in `dir`, newest (highest next-epoch id) first.
/// Ordered by the numeric epoch id parsed from the name; files matching the
/// pattern but with an unparseable id sort oldest.
std::vector<std::string> ListCheckpointFiles(const std::string& dir);

/// Parses the `next_epoch_id` out of a `ckpt-<16hex>.img` path, or nullopt
/// when the name does not follow the convention.
std::optional<EpochId> CheckpointEpochOf(const std::string& path);

/// Deletes all but the newest `keep` checkpoint images — except the image
/// the durable log's truncation floor depends on. When `truncation_floor`
/// is nonzero, the newest image with next_epoch_id <= truncation_floor is
/// never deleted: segments below the floor are gone, so that image is the
/// only way to reach the log's remaining tail if every newer image turns
/// out corrupt at recovery time. Callers that truncate must pass the floor
/// they truncated to; callers without a truncating store may keep the
/// legacy two-argument form.
void PruneCheckpoints(const std::string& dir, size_t keep,
                      EpochId truncation_floor = 0);

/// Where one backup lane restarts after a crash: the first rung of the
/// recovery ladder ("load snapshot, replay delta"). The lane replays its
/// durable log from `next_epoch` on.
struct RestartPoint {
  /// The checkpoint image the lane was bootstrapped from; empty for a cold
  /// start from epoch 0.
  std::string image;
  EpochId next_epoch = 0;
  /// One "<image>: <reason>" line per image passed over, newest first.
  std::vector<std::string> rejected;
};

/// Restores `image` into a fresh backup and returns the image's
/// next_epoch_id. A non-OK result rejects the image (corrupt, unreadable,
/// wrong catalog).
using RestoreImageFn = std::function<Result<EpochId>(const std::string& image)>;

/// The restart policy for one lane whose checkpoint images live in `dir`
/// and whose durable log holds epochs [log_first, log_next):
///
///  - walk ListCheckpointFiles(dir) newest first and take the first image
///    that `restore` accepts and whose next_epoch_id lies inside
///    [log_first, log_next]. An image ahead of the log (a damaged tail) would
///    fake epochs the log cannot replay; an image below the truncation floor
///    cannot bridge to the surviving tail, because the epochs between its
///    coverage and log_first were deleted under a newer image's coverage;
///  - with no such image, a log still starting at epoch 0 is a cold start;
///  - a truncated log (log_first > 0) with no bridging image is
///    BelowCheckpoint: its prefix is gone, and a cold replay would silently
///    skip it.
///
/// `restore` is called once per candidate, newest first, and the call that
/// produced the returned image is the last one made — so a caller that
/// bootstraps inside `restore` keeps that backup. After a cold start the
/// caller must discard whatever `restore` last built.
Result<RestartPoint> ChooseRestartPoint(const std::string& dir,
                                        EpochId log_first, EpochId log_next,
                                        const RestoreImageFn& restore);

}  // namespace aets

#endif  // AETS_REPLICATION_DURABLE_SOURCE_H_
