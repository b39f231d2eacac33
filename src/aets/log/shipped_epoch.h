#ifndef AETS_LOG_SHIPPED_EPOCH_H_
#define AETS_LOG_SHIPPED_EPOCH_H_

#include <memory>
#include <string>
#include <string_view>

#include "aets/common/result.h"
#include "aets/log/epoch.h"

namespace aets {

/// The wire form of an epoch: all log records of its transactions encoded
/// back-to-back in commit order. Replayers differ in how much of it they
/// decode where — AETS and ATR route on the cheap metadata prefix and let
/// replay workers decode values in parallel, while C5's dispatcher must
/// decode the full data image up front (the parsing-cost asymmetry of the
/// paper's Section VI-B).
struct ShippedEpoch {
  EpochId epoch_id = 0;
  /// Encoded records; shared so fragments can reference offsets into it
  /// without copying.
  std::shared_ptr<const std::string> payload;
  /// CRC32C over the whole payload, computed by EncodeEpoch before the epoch
  /// leaves the primary. Receivers verify it before dispatch (the per-record
  /// checksums protect individual frames, but the cheap metadata dispatch
  /// path skips them — the epoch-level CRC closes that window and turns link
  /// corruption into a retransmittable loss instead of a decode error).
  uint32_t payload_crc = 0;
  size_t num_txns = 0;
  size_t num_records = 0;
  TxnId first_txn = kInvalidTxnId;
  TxnId last_txn = kInvalidTxnId;
  Timestamp max_commit_ts = kInvalidTimestamp;
  /// Non-zero marks a heartbeat epoch: no transactions, just a liveness
  /// timestamp that bumps global_cmt_ts on the backup (paper Section V-B).
  Timestamp heartbeat_ts = kInvalidTimestamp;

  bool is_heartbeat() const { return heartbeat_ts != kInvalidTimestamp; }
  size_t ByteSize() const { return payload ? payload->size() : 0; }

  /// Recomputes the payload CRC32C and compares it against `payload_crc`.
  /// False means the payload was damaged in flight (or truncated); the
  /// receiver must treat the epoch as lost and request a retransmit.
  bool PayloadIntact() const;
};

/// Encodes a sealed epoch for shipping.
ShippedEpoch EncodeEpoch(const Epoch& epoch);

/// Builds a heartbeat epoch.
ShippedEpoch MakeHeartbeatEpoch(EpochId id, Timestamp ts);

/// The one serialized form of a ShippedEpoch, shared by the net tier's
/// kEpoch/kFetchOk frame body and the segment store's frame body, so the
/// wire and the disk carry the same bytes (little-endian):
///   u64 epoch_id | u64 heartbeat_ts | u64 max_commit_ts | u64 num_txns |
///   u64 num_records | u64 first_txn | u64 last_txn | u32 payload_crc |
///   u32 payload_len | payload
inline constexpr size_t kEpochBodyHeaderBytes =
    7 * sizeof(uint64_t) + 2 * sizeof(uint32_t);

/// Appends the encoded body of `epoch` to `out`.
void EncodeEpochBody(const ShippedEpoch& epoch, std::string* out);

/// Decodes one whole body. A short header or a payload_len that disagrees
/// with the body size is Corruption. The payload CRC is NOT verified here —
/// the receiver's ingest path does that (PayloadIntact), keeping the
/// corruption handling single-pathed.
Result<ShippedEpoch> DecodeEpochBody(std::string_view body);

/// The epoch id of an encoded body without decoding the rest (the segment
/// store's recovery scan indexes frames by id). `body` must hold at least
/// kEpochBodyHeaderBytes.
EpochId PeekEpochBodyId(std::string_view body);

/// Fully decodes a shipped epoch back into transaction logs (used by tests
/// and the serial oracle).
Result<Epoch> DecodeEpoch(const ShippedEpoch& shipped);

}  // namespace aets

#endif  // AETS_LOG_SHIPPED_EPOCH_H_
