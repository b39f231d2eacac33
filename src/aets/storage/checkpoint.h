#ifndef AETS_STORAGE_CHECKPOINT_H_
#define AETS_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "aets/common/clock.h"
#include "aets/common/result.h"
#include "aets/log/epoch.h"
#include "aets/storage/table_store.h"

namespace aets {

/// Checkpoint metadata: the snapshot timestamp the image was taken at and
/// the next epoch id the backup expects, so a bootstrapped replayer resumes
/// the stream at the right place.
struct CheckpointInfo {
  Timestamp snapshot_ts = kInvalidTimestamp;
  EpochId next_epoch_id = 0;
  uint64_t num_rows = 0;
};

/// Backup checkpointing: serializes every row visible at `snapshot_ts` (as
/// value-log insert records, reusing the wire codec and its checksums) so a
/// new backup can bootstrap without replaying the full history — the
/// operational complement to version GC and log truncation.
///
/// Format (v2): a fixed header (magic, version, snapshot ts, next epoch id,
/// row count, header CRC, body CRC) followed by one encoded insert record
/// per visible row. The body CRC32C covers every byte after the header, so
/// damage anywhere in the image — including truncation on a record boundary,
/// which the per-record checksums cannot see — fails Restore() with a
/// Corruption status instead of restoring silently. Any other version,
/// including the retired v1 (no body CRC), is NotSupported.
class Checkpointer {
 public:
  /// Writes the image of `store` at `snapshot_ts` to `path`. Concurrent
  /// appends above the snapshot are fine (MVCC reads at the snapshot);
  /// concurrent GC must not truncate past `snapshot_ts`.
  static Status Write(const TableStore& store, Timestamp snapshot_ts,
                      EpochId next_epoch_id, const std::string& path);

  /// Loads a checkpoint into `store` (which must contain the same tables,
  /// freshly constructed) and returns its metadata. Detects truncation,
  /// bad magic, and corrupted rows.
  static Result<CheckpointInfo> Restore(const std::string& path,
                                        TableStore* store);
};

}  // namespace aets

#endif  // AETS_STORAGE_CHECKPOINT_H_
