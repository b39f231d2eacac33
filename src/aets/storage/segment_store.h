#ifndef AETS_STORAGE_SEGMENT_STORE_H_
#define AETS_STORAGE_SEGMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "aets/common/result.h"
#include "aets/common/status.h"
#include "aets/log/shipped_epoch.h"
#include "aets/obs/metrics.h"

namespace aets {

/// When the durable tier forces epochs to stable storage (the classic
/// durability/throughput trade, DESIGN.md §10). A kill -9 never loses
/// page-cache data on any policy — fsync only matters for power loss —
/// so the crash-restart gauntlet runs fine at kSegment.
enum class FsyncPolicy {
  kNone,     // never fsync; the OS flushes on its own schedule
  kSegment,  // fsync when a segment seals (bounded loss: one open segment)
  kAlways,   // fsync after every appended epoch
};

struct SegmentStoreOptions {
  /// Directory holding MANIFEST, seg-*.log segment files, and (by
  /// convention, see durable_source.h) ckpt-*.img checkpoint images.
  std::string dir;
  /// Rollover threshold: a segment seals once its size would exceed this.
  /// Every segment still holds at least one epoch, so a single oversized
  /// epoch occupies a segment of its own rather than failing.
  size_t segment_max_bytes = 8u << 20;
  FsyncPolicy fsync_policy = FsyncPolicy::kSegment;
  /// Soft cap on the on-disk footprint of this store's segment files. 0
  /// disables the budget. The store never refuses appends over budget — a
  /// full log is still better than a lost epoch — it only reports
  /// over_budget() so the owner (LogShipper) can request a checkpoint and
  /// truncate the covered prefix (DESIGN.md §10).
  uint64_t disk_budget_bytes = 0;
  /// TEST-ONLY fault hook, called with the frame size before every segment
  /// write (frames and manifest rewrites). A non-OK return fails the append
  /// exactly like a full disk; the caller must degrade, not abort. Never set
  /// outside tests.
  std::function<Status(size_t)> write_fault_hook;
  /// TEST-ONLY fault hook for the truncation sequence. Called with step 0
  /// before the manifest rewrite and step i (1-based) before unlinking the
  /// i-th dropped segment file. A non-OK return aborts TruncateBelow at that
  /// point, leaving the directory exactly as a crash there would — the chaos
  /// sweep reopens the store from every such window. Never set outside
  /// tests.
  std::function<Status(int)> truncate_fault_hook;
};

/// Append-only on-disk tier for shipped epochs (ROADMAP item 2): the
/// LogShipper appends every delivered epoch here so the bounded RAM
/// retention buffer can evict ("spill") cold epochs without losing them,
/// and a crashed backup can replay its way back to freshness from disk.
///
/// Layout (all little-endian; the frame and its body are log/'s encoders):
///
///   <dir>/MANIFEST          magic "AETSSEGM", version, crc, ordered list of
///                           segment first-epoch ids; rewritten via tmp +
///                           atomic rename whenever a segment is created.
///   <dir>/seg-<16hex>.log   frames appended in epoch-id order, named by the
///                           first epoch id the segment holds. Frame:
///                             u32 crc | u32 len | body (SealCrcFrame,
///                             log/codec.h), body = EncodeEpochBody
///                             (log/shipped_epoch.h) — byte-for-byte the
///                             net tier's kEpoch frame body
///
/// Epoch ids are contiguous: Append requires exactly next_epoch(). Open()
/// replays the manifest, scans every segment to rebuild the frame index,
/// and handles damage by provenance: a bad or partial frame at the tail of
/// the NEWEST segment is a torn write from a crash — the tail is truncated
/// at the first bad frame and the store continues from there — while any
/// damage in a sealed segment or in the manifest is a hard Corruption error
/// (those bytes were durable; losing them silently would fake freshness).
///
/// Thread-safe. Reads use pread on cached per-segment descriptors, so
/// NACK-path fetches do not disturb the append head.
///
/// Metrics: segment.bytes_written, segment.fetches_from_disk,
/// segment.fsyncs, segment.torn_frames_truncated, segment.truncations,
/// segment.segments_deleted, segment.bytes_reclaimed, segment.segments
/// (gauge), segment.recovery_ms (gauge, last Open's scan time).
class SegmentStore {
 public:
  /// Creates `options.dir` if needed, validates the manifest, scans and
  /// indexes every segment, and truncates a torn tail. Damage outside the
  /// torn-tail case returns Corruption.
  static Result<std::unique_ptr<SegmentStore>> Open(SegmentStoreOptions options);

  ~SegmentStore();
  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Appends one epoch. `epoch.epoch_id` must equal next_epoch() (the first
  /// append of an empty store sets the base id). Failures (hook-injected
  /// disk-full, write errors) leave the store consistent at its previous
  /// durable prefix and are retryable.
  Status Append(const ShippedEpoch& epoch);

  /// Reads epoch `id` back, or nullopt when it is outside [first_epoch,
  /// next_epoch). A frame that fails its CRC on read, or whose CRC-valid
  /// body does not decode, returns nullopt as well — callers treat it like
  /// an evicted epoch and escalate.
  std::optional<ShippedEpoch> Read(EpochId id);

  /// Forces the active segment to stable storage regardless of policy.
  Status Sync();

  /// Checkpoint-coordinated truncation (DESIGN.md §10): drops every sealed
  /// segment wholly below `floor` — i.e. whose epochs are all covered by a
  /// durable checkpoint image with next_epoch_id == floor. The newest
  /// segment is never dropped, and a segment straddling the floor survives
  /// whole, so first_epoch() after a truncation is <= floor.
  ///
  /// Crash-consistent by construction: the MANIFEST is rewritten first
  /// (tmp + rename + directory fsync, the same commit protocol as segment
  /// rollover) and only then are the dropped files unlinked. A crash after
  /// the rename leaves orphaned seg-*.log files below the manifest's first
  /// entry; Open() removes them, so deleted epochs never resurrect. A crash
  /// before the rename leaves the store untouched.
  ///
  /// No-op (OK) when nothing is droppable. Failures leave the store
  /// consistent and are retryable.
  Status TruncateBelow(EpochId floor);

  /// Durable id range: [first_epoch(), next_epoch()). Empty when equal.
  EpochId first_epoch() const;
  EpochId next_epoch() const;
  bool empty() const;

  size_t num_segments() const;
  uint64_t bytes_written() const { return bytes_written_.load(); }
  uint64_t fsyncs() const { return fsyncs_.load(); }
  /// Epochs Read() served from disk.
  uint64_t fetches_from_disk() const { return fetches_from_disk_.load(); }
  /// Torn frames discarded by Open() across the store's lifetime on disk.
  uint64_t torn_frames_truncated() const { return torn_truncated_.load(); }

  /// Live on-disk footprint: the byte total of every segment file currently
  /// listed in the manifest (grows with Append, shrinks with TruncateBelow).
  uint64_t disk_bytes() const;
  /// True when a budget is configured and disk_bytes() exceeds it.
  bool over_budget() const;
  uint64_t disk_budget_bytes() const { return options_.disk_budget_bytes; }
  /// Truncation telemetry for this store instance.
  uint64_t truncations() const { return truncations_.load(); }
  uint64_t segments_deleted() const { return segments_deleted_.load(); }
  uint64_t bytes_reclaimed() const { return bytes_reclaimed_.load(); }

 private:
  struct SegmentMeta {
    EpochId first_epoch = 0;
    uint64_t frames = 0;
    uint64_t bytes = 0;  // current file size
    int read_fd = -1;    // lazily opened pread descriptor
  };
  struct FrameLoc {
    uint32_t segment;
    uint64_t offset;  // of the frame header within the segment file
    uint32_t size;    // whole frame: header + body
  };

  explicit SegmentStore(SegmentStoreOptions options);

  std::string SegmentPath(EpochId first_epoch) const;
  std::string ManifestPath() const;
  /// Rewrites MANIFEST (tmp + rename + directory fsync) listing every
  /// segment in segments_ from `drop_prefix` on, plus, when >= 0,
  /// `new_first` as the new tail. Rollover passes drop_prefix 0; truncation
  /// passes the count of leading segments it is about to delete.
  Status WriteManifestLocked(size_t drop_prefix, int64_t new_first);
  /// Unlinks seg-*.log files below the manifest's first listed segment —
  /// the crash window between a truncation's manifest rename and its
  /// unlinks. Called by Open() after the manifest parses clean.
  void RemoveOrphanSegmentsLocked();
  /// Opens (creating if absent) the active segment for appending.
  Status OpenActiveForAppendLocked();
  /// Seals the active segment and starts a new one at `first_epoch`.
  Status RolloverLocked(EpochId first_epoch);
  /// Scans one segment file, appending to index_; `newest` selects the
  /// torn-tail truncation rule. `expected` is the first epoch id the scan
  /// must find.
  Status ScanSegmentLocked(size_t seg_idx, EpochId expected, bool newest);
  Status FsyncActiveLocked();
  int ReadFdLocked(size_t seg_idx);

  SegmentStoreOptions options_;

  mutable std::mutex mu_;
  std::vector<SegmentMeta> segments_;
  /// index_[i] locates epoch first_epoch_ + i.
  std::vector<FrameLoc> index_;
  EpochId first_epoch_ = 0;
  int append_fd_ = -1;

  uint64_t disk_bytes_ = 0;

  /// Telemetry, exported as `segment.*`: written under mu_, read lock-free.
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> fetches_from_disk_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> torn_truncated_{0};
  std::atomic<uint64_t> truncations_{0};
  std::atomic<uint64_t> segments_deleted_{0};
  std::atomic<uint64_t> bytes_reclaimed_{0};
  obs::ExportedCounters exported_;
  obs::Gauge* segments_metric_;
  obs::Gauge* recovery_ms_metric_;
};

}  // namespace aets

#endif  // AETS_STORAGE_SEGMENT_STORE_H_
