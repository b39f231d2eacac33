#include "aets/log/codec.h"

#include <array>
#include <cstring>

#include "aets/common/macros.h"

namespace aets {

namespace {

constexpr uint32_t kCrcPoly = 0x82F63B78u;  // CRC32C reflected polynomial

// Slice-by-8: table[0] is the classic byte-at-a-time table; table[k] maps a
// byte that is k positions deeper in an 8-byte block, so one iteration folds
// 8 input bytes with 8 independent lookups instead of an 8-long serial chain.
std::array<std::array<uint32_t, 256>, 8> BuildCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrcPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = tables[0][i];
    for (size_t k = 1; k < 8; ++k) {
      crc = tables[0][crc & 0xFF] ^ (crc >> 8);
      tables[k][i] = crc;
    }
  }
  return tables;
}

const std::array<std::array<uint32_t, 256>, 8>& CrcTables() {
  static const std::array<std::array<uint32_t, 256>, 8> kTables =
      BuildCrcTables();
  return kTables;
}

template <typename T>
char* PutFixed(char* dst, T v) {
  std::memcpy(dst, &v, sizeof(T));
  return dst + sizeof(T);
}

template <typename T>
bool GetFixed(std::string_view data, size_t* offset, T* out) {
  if (*offset + sizeof(T) > data.size()) return false;
  std::memcpy(out, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  const auto& tables = CrcTables();
  const auto& table = tables[0];
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= crc;
    crc = tables[7][lo & 0xFF] ^ tables[6][(lo >> 8) & 0xFF] ^
          tables[5][(lo >> 16) & 0xFF] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFF] ^ tables[2][(hi >> 8) & 0xFF] ^
          tables[1][(hi >> 16) & 0xFF] ^ tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

void LogCodec::Encode(const LogRecord& record, std::string* out) {
  // ByteSize is the exact body length: size the frame once and write the
  // body in place, with no per-record scratch buffer.
  const size_t frame_at = out->size();
  out->resize(frame_at + kCrcFrameHeaderBytes + record.ByteSize());
  char* p = out->data() + frame_at + kCrcFrameHeaderBytes;
  p = PutFixed<uint8_t>(p, static_cast<uint8_t>(record.type));
  p = PutFixed<uint64_t>(p, record.lsn);
  p = PutFixed<uint64_t>(p, record.txn_id);
  p = PutFixed<uint64_t>(p, record.timestamp);
  if (record.is_dml()) {
    p = PutFixed<uint32_t>(p, record.table_id);
    p = PutFixed<int64_t>(p, record.row_key);
    p = PutFixed<uint64_t>(p, record.prev_txn_id);
    p = PutFixed<uint64_t>(p, record.row_seq);
    p = PutFixed<uint16_t>(p, static_cast<uint16_t>(record.values.size()));
    for (const auto& cv : record.values) {
      p = PutFixed<uint16_t>(p, cv.column_id);
      p = WriteValueWire(p, cv.value);
    }
  }
  AETS_CHECK(p == out->data() + out->size());
  SealCrcFrame(out, frame_at);
}

void SealCrcFrame(std::string* out, size_t frame_at) {
  AETS_CHECK(out->size() >= frame_at + kCrcFrameHeaderBytes);
  char* header = out->data() + frame_at;
  const char* body = header + kCrcFrameHeaderBytes;
  const size_t len = out->size() - frame_at - kCrcFrameHeaderBytes;
  header = PutFixed<uint32_t>(header, Crc32c(body, len));
  PutFixed<uint32_t>(header, static_cast<uint32_t>(len));
}

Result<std::string_view> ReadCrcFrame(std::string_view data, size_t* offset,
                                      bool verify_crc) {
  uint32_t crc, len;
  if (!GetFixed(data, offset, &crc) || !GetFixed(data, offset, &len)) {
    return Status::Corruption("truncated frame header");
  }
  if (*offset + len > data.size()) {
    return Status::Corruption("frame extends past buffer");
  }
  if (verify_crc) {
    uint32_t actual = Crc32c(data.data() + *offset, len);
    if (actual != crc) {
      return Status::Corruption("checksum mismatch");
    }
  }
  std::string_view body(data.data() + *offset, len);
  *offset += len;
  return body;
}

namespace {

Result<LogRecordView> DecodeViewBody(std::string_view data, size_t begin,
                                     size_t end, bool metadata_only) {
  size_t pos = begin;
  LogRecordView view;
  uint8_t type;
  if (!GetFixed(data, &pos, &type) || !GetFixed(data, &pos, &view.lsn) ||
      !GetFixed(data, &pos, &view.txn_id) ||
      !GetFixed(data, &pos, &view.timestamp)) {
    return Status::Corruption("truncated record header");
  }
  if (type > static_cast<uint8_t>(LogRecordType::kHeartbeat)) {
    return Status::Corruption("bad record type");
  }
  view.type = static_cast<LogRecordType>(type);
  if (view.is_dml()) {
    if (!GetFixed(data, &pos, &view.table_id) ||
        !GetFixed(data, &pos, &view.row_key) ||
        !GetFixed(data, &pos, &view.prev_txn_id) ||
        !GetFixed(data, &pos, &view.row_seq) ||
        !GetFixed(data, &pos, &view.num_values)) {
      return Status::Corruption("truncated dml header");
    }
    if (!metadata_only) {
      // One bounds-validating walk; after it, DeltaReader can iterate the
      // slice without any further checks.
      const char* p = data.data() + pos;
      const char* const value_end = data.data() + end;
      ValueView scratch;
      for (uint16_t i = 0; i < view.num_values; ++i) {
        ColumnId col;
        if (value_end - p < static_cast<ptrdiff_t>(sizeof(col))) {
          return Status::Corruption("truncated column id");
        }
        std::memcpy(&col, p, sizeof(col));
        p = ParseValueWire(p + sizeof(col), value_end, &scratch);
        if (p == nullptr) return Status::Corruption("truncated value");
      }
      if (p != value_end) return Status::Corruption("trailing bytes in record");
      view.value_bytes = data.substr(pos, end - pos);
    }
  }
  return view;
}

}  // namespace

Result<LogRecordView> LogCodec::DecodeView(std::string_view data,
                                           size_t* offset) {
  auto frame = ReadCrcFrame(data, offset, /*verify_crc=*/true);
  if (!frame.ok()) return frame.status();
  const size_t begin = static_cast<size_t>(frame->data() - data.data());
  return DecodeViewBody(data, begin, begin + frame->size(),
                        /*metadata_only=*/false);
}

Result<LogRecord> LogCodec::Decode(std::string_view data, size_t* offset) {
  auto view = DecodeView(data, offset);
  if (!view.ok()) return view.status();
  return view->Materialize();
}

Result<LogRecordView> LogCodec::DecodeMetadata(std::string_view data,
                                               size_t* offset) {
  auto frame = ReadCrcFrame(data, offset, /*verify_crc=*/false);
  if (!frame.ok()) return frame.status();
  const size_t begin = static_cast<size_t>(frame->data() - data.data());
  return DecodeViewBody(data, begin, begin + frame->size(),
                        /*metadata_only=*/true);
}

std::string LogCodec::EncodeAll(const std::vector<LogRecord>& records) {
  size_t total = 0;
  for (const auto& r : records) total += r.ByteSize() + 8;  // + frame header
  std::string out;
  out.reserve(total);
  for (const auto& r : records) Encode(r, &out);
  return out;
}

Result<std::vector<LogRecord>> LogCodec::DecodeAll(std::string_view data) {
  std::vector<LogRecord> records;
  size_t offset = 0;
  while (offset < data.size()) {
    auto rec = Decode(data, &offset);
    if (!rec.ok()) return rec.status();
    records.push_back(std::move(rec).value());
  }
  return records;
}

}  // namespace aets
