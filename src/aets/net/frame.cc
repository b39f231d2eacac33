#include "aets/net/frame.h"

#include <utility>

#include "aets/log/codec.h"
#include "aets/log/view.h"
#include "aets/obs/metrics.h"

namespace aets {
namespace net {

namespace {

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}
void PutU16(uint16_t v, std::string* out) {
  for (int i = 0; i < 2; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// Bounds-checked little-endian reader over a frame body. Any read past the
/// end sets failed() — bodies are CRC-verified before decode, so a short
/// body is a protocol bug or a malicious peer, and the decoders turn
/// failed() into Corruption.
class BodyReader {
 public:
  explicit BodyReader(std::string_view body) : body_(body) {}

  uint8_t U8() { return static_cast<uint8_t>(Byte()); }
  uint32_t U32() { return static_cast<uint32_t>(Fixed(4)); }
  uint64_t U64() { return Fixed(8); }

  /// One value in the shared value wire layout (log/view.h).
  bool ParseValue(Value* out) {
    ValueView view;
    const char* end = body_.data() + body_.size();
    const char* next = ParseValueWire(body_.data() + pos_, end, &view);
    if (next == nullptr) {
      failed_ = true;
      return false;
    }
    pos_ = static_cast<size_t>(next - body_.data());
    *out = view.ToValue();
    return true;
  }

  bool failed() const { return failed_; }
  bool exhausted() const { return pos_ == body_.size(); }

 private:
  char Byte() {
    if (pos_ >= body_.size()) {
      failed_ = true;
      return 0;
    }
    return body_[pos_++];
  }
  uint64_t Fixed(int n) {
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(Byte())) << (8 * i);
    }
    return v;
  }

  std::string_view body_;
  size_t pos_ = 0;
  bool failed_ = false;
};

Status BodyCorruption(const char* what) {
  return Status::Corruption(std::string("malformed ") + what + " frame body");
}

/// Appends a frame header whose length field FinishFrame fills in once the
/// body is written after it; returns where the header starts.
size_t BeginFrame(FrameType type, std::string* out) {
  size_t header_at = out->size();
  PutU16(kFrameMagic, out);
  PutU8(kFrameVersion, out);
  PutU8(static_cast<uint8_t>(type), out);
  PutU32(0, out);
  return header_at;
}

void FinishFrame(size_t header_at, std::string* out) {
  const auto body_len = static_cast<uint32_t>(out->size() - header_at -
                                              kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    (*out)[header_at + 4 + static_cast<size_t>(i)] =
        static_cast<char>(body_len >> (8 * i));
  }
  uint32_t crc = Crc32c(out->data() + header_at, out->size() - header_at);
  PutU32(crc, out);
}

}  // namespace

void EncodeFrame(FrameType type, std::string_view body, std::string* out) {
  size_t header_at = BeginFrame(type, out);
  out->append(body);
  FinishFrame(header_at, out);
}

void EncodeEpochFrame(FrameType type, const ShippedEpoch& epoch,
                      std::string* out) {
  out->reserve(out->size() + kFrameHeaderBytes + kEpochBodyHeaderBytes +
               epoch.ByteSize() + kFrameTrailerBytes);
  size_t header_at = BeginFrame(type, out);
  EncodeEpochBody(epoch, out);
  FinishFrame(header_at, out);
}

void FrameDecoder::Feed(const void* data, size_t n) {
  // Compact the consumed prefix before it grows unbounded on a long stream.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(static_cast<const char*>(data), n);
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  if (!error_.ok()) return error_;
  const size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return std::optional<Frame>();
  const uint8_t* h = reinterpret_cast<const uint8_t*>(buf_.data() + pos_);
  uint16_t magic = static_cast<uint16_t>(h[0] | (h[1] << 8));
  uint8_t version = h[2];
  uint8_t type = h[3];
  uint32_t body_len = static_cast<uint32_t>(h[4]) |
                      (static_cast<uint32_t>(h[5]) << 8) |
                      (static_cast<uint32_t>(h[6]) << 16) |
                      (static_cast<uint32_t>(h[7]) << 24);
  static obs::Counter* frame_errors = obs::GetCounter("net.frame_errors");
  if (magic != kFrameMagic) {
    frame_errors->Add(1);
    error_ = Status::Corruption("bad frame magic");
    return error_;
  }
  if (version != kFrameVersion) {
    frame_errors->Add(1);
    error_ = Status::Corruption("unsupported frame version " +
                                std::to_string(version));
    return error_;
  }
  if (body_len > kMaxFrameBody) {
    frame_errors->Add(1);
    error_ = Status::Corruption("oversized frame body: " +
                                std::to_string(body_len) + " bytes");
    return error_;
  }
  const size_t total = kFrameHeaderBytes + body_len + kFrameTrailerBytes;
  if (avail < total) return std::optional<Frame>();
  const uint8_t* t = h + kFrameHeaderBytes + body_len;
  uint32_t wire_crc = static_cast<uint32_t>(t[0]) |
                      (static_cast<uint32_t>(t[1]) << 8) |
                      (static_cast<uint32_t>(t[2]) << 16) |
                      (static_cast<uint32_t>(t[3]) << 24);
  uint32_t crc = Crc32c(h, kFrameHeaderBytes + body_len);
  if (crc != wire_crc) {
    frame_errors->Add(1);
    error_ = Status::Corruption("frame checksum mismatch");
    return error_;
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.body.assign(buf_, pos_ + kFrameHeaderBytes, body_len);
  pos_ += total;
  return std::optional<Frame>(std::move(frame));
}

void FrameDecoder::Reset() {
  buf_.clear();
  pos_ = 0;
  error_ = Status::OK();
}

void EncodeHelloBody(const HelloBody& hello, std::string* out) {
  PutU32(static_cast<uint32_t>(hello.role), out);
  PutU32(hello.shard, out);
}

Result<HelloBody> DecodeHelloBody(std::string_view body) {
  BodyReader in(body);
  uint32_t role = in.U32();
  HelloBody hello;
  hello.shard = in.U32();
  if (in.failed() || !in.exhausted() ||
      role > static_cast<uint32_t>(HelloRole::kControl)) {
    return BodyCorruption("hello");
  }
  hello.role = static_cast<HelloRole>(role);
  return hello;
}

void EncodeFetchBody(const FetchBody& fetch, std::string* out) {
  PutU64(fetch.epoch_id, out);
}

Result<FetchBody> DecodeFetchBody(std::string_view body) {
  BodyReader in(body);
  FetchBody fetch;
  fetch.epoch_id = in.U64();
  if (in.failed() || !in.exhausted()) return BodyCorruption("fetch");
  return fetch;
}

void EncodeEpochIdsBody(const EpochIdsBody& ids, std::string* out) {
  PutU64(ids.next_epoch, out);
  PutU64(ids.floor_epoch, out);
}

Result<EpochIdsBody> DecodeEpochIdsBody(std::string_view body) {
  BodyReader in(body);
  EpochIdsBody ids;
  ids.next_epoch = in.U64();
  ids.floor_epoch = in.U64();
  if (in.failed() || !in.exhausted()) return BodyCorruption("epoch-ids");
  return ids;
}

void EncodeQueryBody(const QueryBody& query, std::string* out) {
  PutU64(query.snapshot_ts, out);
  PutU32(query.table_id, out);
  PutU8(query.want_rows ? 1 : 0, out);
}

Result<QueryBody> DecodeQueryBody(std::string_view body) {
  BodyReader in(body);
  QueryBody query;
  query.snapshot_ts = in.U64();
  query.table_id = in.U32();
  uint8_t want = in.U8();
  if (in.failed() || !in.exhausted() || want > 1) {
    return BodyCorruption("query");
  }
  query.want_rows = want == 1;
  return query;
}

void EncodeQueryReplyBody(const QueryReplyBody& reply, std::string* out) {
  PutU64(reply.pinned_ts, out);
  PutU64(reply.digest, out);
  PutU64(reply.row_count, out);
  PutU64(reply.rows.size(), out);
  for (const auto& [key, row] : reply.rows) {
    PutU64(static_cast<uint64_t>(key), out);
    PutU32(static_cast<uint32_t>(row.size()), out);
    for (const auto& [col, value] : row) {
      PutU32(col, out);
      AppendValueWire(value, out);
    }
  }
}

Result<QueryReplyBody> DecodeQueryReplyBody(std::string_view body) {
  BodyReader in(body);
  QueryReplyBody reply;
  reply.pinned_ts = in.U64();
  reply.digest = in.U64();
  reply.row_count = in.U64();
  uint64_t num_rows = in.U64();
  for (uint64_t i = 0; i < num_rows && !in.failed(); ++i) {
    int64_t key = static_cast<int64_t>(in.U64());
    uint32_t num_cols = in.U32();
    Row row;
    row.reserve(num_cols);
    for (uint32_t c = 0; c < num_cols; ++c) {
      ColumnId col = static_cast<ColumnId>(in.U32());
      Value value;
      if (!in.ParseValue(&value)) return BodyCorruption("query-reply");
      row.Set(col, std::move(value));
    }
    reply.rows.emplace(key, std::move(row));
  }
  if (in.failed() || !in.exhausted()) return BodyCorruption("query-reply");
  return reply;
}

}  // namespace net
}  // namespace aets
