#ifndef AETS_NET_FRAME_H_
#define AETS_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "aets/common/result.h"
#include "aets/common/status.h"
#include "aets/log/shipped_epoch.h"
#include "aets/storage/version_chain.h"

namespace aets {
namespace net {

/// Wire framing (DESIGN.md §12). Every message is one frame:
///
///   ┌─────────┬─────────┬───────┬──────────┬───────────┬───────────┐
///   │ magic   │ version │ type  │ body_len │ body      │ crc32c    │
///   │ u16     │ u8      │ u8    │ u32      │ body_len B│ u32       │
///   └─────────┴─────────┴───────┴──────────┴───────────┴───────────┘
///
/// All integers little-endian. The trailer CRC32C covers header + body, so
/// a flipped bit anywhere in the frame — including the length field — is
/// detected before anything is interpreted. A frame that fails magic,
/// version, length-bound, or CRC checks is Corruption; the decoder never
/// silently resynchronizes (a corrupt stream means the connection must be
/// torn down and recovered by reconnect + NACK).
enum class FrameType : uint8_t {
  kHello = 1,      // connection preamble: role + shard
  kEpoch = 2,      // one ShippedEpoch, subscribe-stream push
  kStreamEnd = 3,  // shipper finished; subscriber drains and stops
  kFetch = 4,      // NACK: re-request one epoch (control connection)
  kFetchOk = 5,    // the re-requested epoch
  kFetchMiss = 6,  // not available; carries next/floor epoch ids
  kMeta = 7,       // request next/floor epoch ids
  kMetaOk = 8,     // the ids
  kQuery = 9,      // snapshot scan request
  kQueryOk = 10,   // scan result (digest, count, optional rows)
  kBusy = 11,      // admission queue full — retry later, nothing served
  kError = 12,     // server-side failure executing a request
};

inline constexpr uint16_t kFrameMagic = 0xAE75;
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 8;
inline constexpr size_t kFrameTrailerBytes = 4;
/// Upper bound on one frame body; anything larger is Corruption (a garbled
/// length field must not make the receiver allocate gigabytes).
inline constexpr size_t kMaxFrameBody = 64u << 20;

struct Frame {
  FrameType type = FrameType::kError;
  std::string body;
};

/// Appends the framed encoding of (type, body) to *out.
void EncodeFrame(FrameType type, std::string_view body, std::string* out);

/// Appends the same bytes as EncodeFrame(type, EncodeEpochBody(epoch)),
/// but encodes the body in place: the payload is copied once, straight into
/// *out. A sender that reuses *out across epochs allocates nothing.
void EncodeEpochFrame(FrameType type, const ShippedEpoch& epoch,
                      std::string* out);

/// Incremental frame parser: Feed() raw bytes as they arrive, then call
/// Next() until it yields nullopt (need more bytes). Corruption is sticky —
/// after a bad frame every Next() fails until Reset(), because a framed
/// stream cannot be resynchronized past a damaged header. Reset() also
/// discards any half-received frame (the reconnect path: bytes of a torn
/// frame are useless once the peer is gone).
class FrameDecoder {
 public:
  void Feed(const void* data, size_t n);

  /// A complete frame, nullopt (need more bytes), or Corruption.
  Result<std::optional<Frame>> Next();

  /// True when buffered bytes form only part of a frame — an EOF here is a
  /// mid-frame disconnect, which receivers must surface as Corruption /
  /// Aborted, never a clean end of stream.
  bool mid_frame() const { return pos_ < buf_.size(); }

  void Reset();

 private:
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  Status error_;
};

// --- frame bodies ----------------------------------------------------------

/// kEpoch/kFetchOk bodies are EncodeEpochBody/DecodeEpochBody
/// (log/shipped_epoch.h), the encoder the segment store writes to disk too.
/// The bodies below are the net tier's own control messages; query-reply
/// row values use the value wire layout of log/view.h.

enum class HelloRole : uint32_t { kSubscribe = 0, kControl = 1 };
struct HelloBody {
  HelloRole role = HelloRole::kSubscribe;
  uint32_t shard = 0;
};
void EncodeHelloBody(const HelloBody& hello, std::string* out);
Result<HelloBody> DecodeHelloBody(std::string_view body);

struct FetchBody {
  uint64_t epoch_id = 0;
};
void EncodeFetchBody(const FetchBody& fetch, std::string* out);
Result<FetchBody> DecodeFetchBody(std::string_view body);

/// kFetchMiss and kMetaOk share this shape.
struct EpochIdsBody {
  uint64_t next_epoch = 0;
  uint64_t floor_epoch = 0;
};
void EncodeEpochIdsBody(const EpochIdsBody& ids, std::string* out);
Result<EpochIdsBody> DecodeEpochIdsBody(std::string_view body);

struct QueryBody {
  /// 0 = pin the latest safe snapshot; otherwise scan at min(requested,
  /// safe) — the reply reports the timestamp actually used.
  uint64_t snapshot_ts = 0;
  uint32_t table_id = 0;
  /// False = digest + row count only (the cheap verification shape).
  bool want_rows = false;
};
void EncodeQueryBody(const QueryBody& query, std::string* out);
Result<QueryBody> DecodeQueryBody(std::string_view body);

struct QueryReplyBody {
  uint64_t pinned_ts = 0;
  uint64_t digest = 0;
  /// Rows visible at pinned_ts (count always set; rows only on want_rows).
  uint64_t row_count = 0;
  std::map<int64_t, Row> rows;
};
void EncodeQueryReplyBody(const QueryReplyBody& reply, std::string* out);
Result<QueryReplyBody> DecodeQueryReplyBody(std::string_view body);

}  // namespace net
}  // namespace aets

#endif  // AETS_NET_FRAME_H_
