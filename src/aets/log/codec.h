#ifndef AETS_LOG_CODEC_H_
#define AETS_LOG_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "aets/common/result.h"
#include "aets/common/status.h"
#include "aets/log/record.h"
#include "aets/log/view.h"

namespace aets {

/// Binary wire format for value-log entries.
///
/// Layout (little-endian), inside one CRC frame (SealCrcFrame below):
///   u8  type
///   u64 lsn, u64 txn_id, u64 timestamp
///   DML only: u32 table_id, i64 row_key, u64 prev_txn_id, u64 row_seq,
///             u16 value count, then per value: u16 column_id, u8 tag,
///             tag-dependent payload (i64 | f64 | u32 len + bytes | none)
///
/// The replication channel ships encoded epochs; replayers decode either the
/// metadata prefix only (AETS, ATR) or the full image (C5) — the asymmetric
/// parsing cost the paper's Section VI-B calls out. The hot apply path uses
/// `DecodeView`, which validates the frame once and hands back string_view
/// slices into the source buffer instead of allocating per value.
class LogCodec {
 public:
  /// Appends the encoded record to `out`.
  static void Encode(const LogRecord& record, std::string* out);

  /// Decodes one record starting at `data[*offset]`, advancing `*offset`.
  /// Checksum mismatches and truncation return Corruption. Owning: every
  /// string value is copied out. Kept for checkpoint restore compatibility,
  /// DecodeAll, and the serial oracle.
  static Result<LogRecord> Decode(std::string_view data, size_t* offset);

  /// Single-pass zero-copy decode: verifies the checksum, bounds-checks every
  /// value once, and returns a view whose `value_bytes` (and any string
  /// ValueView read from it) points into `data`. The caller must keep `data`
  /// alive and unmodified for the lifetime of the view — on the replay path
  /// that is the epoch's shared payload.
  static Result<LogRecordView> DecodeView(std::string_view data,
                                          size_t* offset);

  /// Decodes only the fixed metadata prefix (type/lsn/txn/ts/table/rowkey),
  /// skipping value parsing AND checksum verification — the cheap dispatch
  /// path touches headers only; the phase-1 full decode of the same frame
  /// verifies the checksum before anything is installed. Advances `*offset`
  /// past the whole record. The returned view's `value_bytes` is empty (the
  /// declared `num_values` is still populated).
  static Result<LogRecordView> DecodeMetadata(std::string_view data,
                                              size_t* offset);

  /// Encodes a whole sequence (single exact-size allocation).
  static std::string EncodeAll(const std::vector<LogRecord>& records);

  /// Decodes a whole sequence.
  static Result<std::vector<LogRecord>> DecodeAll(std::string_view data);
};

/// The checksummed frame around every log record (checkpoint rows included)
/// and every segment-store epoch — one framer for the `crc|len|body` layout:
///   u32 crc32c(body) | u32 body length | body
inline constexpr size_t kCrcFrameHeaderBytes = 2 * sizeof(uint32_t);

/// Writes the header of the frame starting at `out[frame_at]`: the caller
/// left kCrcFrameHeaderBytes there and appended the body after them, up to
/// the end of `out`. Bodies are encoded in place, never copied into a frame.
void SealCrcFrame(std::string* out, size_t frame_at);

/// Reads the frame at `data[*offset]`, advances `*offset` past it, and
/// returns its body as a view into `data`. A truncated header, a body
/// running past `data` and (when `verify_crc`) a checksum mismatch are
/// Corruption. The metadata-only dispatch path skips the checksum — it
/// touches just the fixed prefix, and the phase-1 full decode verifies the
/// same frame before any value is installed.
Result<std::string_view> ReadCrcFrame(std::string_view data, size_t* offset,
                                      bool verify_crc = true);

/// Software CRC32C (Castagnoli), table-driven slice-by-8 (little-endian
/// fast path, byte-at-a-time tail). Also guards shipped-epoch payloads and
/// checkpoint images, so throughput matters beyond the per-record frames.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

}  // namespace aets

#endif  // AETS_LOG_CODEC_H_
