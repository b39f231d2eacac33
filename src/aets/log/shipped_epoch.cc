#include "aets/log/shipped_epoch.h"

#include <cstring>
#include <string>

#include "aets/common/macros.h"
#include "aets/log/codec.h"

namespace aets {

ShippedEpoch EncodeEpoch(const Epoch& epoch) {
  ShippedEpoch out;
  out.epoch_id = epoch.epoch_id;
  out.num_txns = epoch.num_txns();
  out.num_records = epoch.num_records();
  out.first_txn = epoch.first_txn();
  out.last_txn = epoch.last_txn();
  out.max_commit_ts = epoch.max_commit_ts();
  auto payload = std::make_shared<std::string>();
  payload->reserve(epoch.ByteSize() + 8 * epoch.num_records());  // + frames
  for (const auto& txn : epoch.txns) {
    for (const auto& rec : txn.records) LogCodec::Encode(rec, payload.get());
  }
  out.payload_crc = Crc32c(payload->data(), payload->size());
  out.payload = std::move(payload);
  return out;
}

ShippedEpoch MakeHeartbeatEpoch(EpochId id, Timestamp ts) {
  AETS_CHECK(ts != kInvalidTimestamp);
  ShippedEpoch out;
  out.epoch_id = id;
  out.payload = std::make_shared<std::string>();
  out.payload_crc = Crc32c(nullptr, 0);
  out.heartbeat_ts = ts;
  out.max_commit_ts = ts;
  return out;
}

bool ShippedEpoch::PayloadIntact() const {
  const char* data = payload ? payload->data() : nullptr;
  size_t n = payload ? payload->size() : 0;
  return Crc32c(data, n) == payload_crc;
}

void EncodeEpochBody(const ShippedEpoch& epoch, std::string* out) {
  const uint64_t header64[] = {
      epoch.epoch_id,    epoch.heartbeat_ts, epoch.max_commit_ts,
      epoch.num_txns,    epoch.num_records,  epoch.first_txn,
      epoch.last_txn};
  const uint32_t header32[] = {epoch.payload_crc,
                               static_cast<uint32_t>(epoch.ByteSize())};
  static_assert(sizeof(header64) + sizeof(header32) == kEpochBodyHeaderBytes);
  out->reserve(out->size() + kEpochBodyHeaderBytes + epoch.ByteSize());
  out->append(reinterpret_cast<const char*>(header64), sizeof(header64));
  out->append(reinterpret_cast<const char*>(header32), sizeof(header32));
  if (epoch.ByteSize() > 0) out->append(*epoch.payload);
}

Result<ShippedEpoch> DecodeEpochBody(std::string_view body) {
  uint64_t header64[7];
  uint32_t header32[2];
  if (body.size() < kEpochBodyHeaderBytes) {
    return Status::Corruption("truncated epoch body header");
  }
  std::memcpy(header64, body.data(), sizeof(header64));
  std::memcpy(header32, body.data() + sizeof(header64), sizeof(header32));
  const std::string_view payload = body.substr(kEpochBodyHeaderBytes);
  if (payload.size() != header32[1]) {
    return Status::Corruption("epoch body payload_len " +
                              std::to_string(header32[1]) + " disagrees with " +
                              std::to_string(payload.size()) +
                              " payload bytes");
  }
  ShippedEpoch out;
  out.epoch_id = header64[0];
  out.heartbeat_ts = header64[1];
  out.max_commit_ts = header64[2];
  out.num_txns = header64[3];
  out.num_records = header64[4];
  out.first_txn = header64[5];
  out.last_txn = header64[6];
  out.payload_crc = header32[0];
  out.payload = std::make_shared<const std::string>(payload);
  return out;
}

EpochId PeekEpochBodyId(std::string_view body) {
  AETS_CHECK(body.size() >= kEpochBodyHeaderBytes);
  EpochId id;
  std::memcpy(&id, body.data(), sizeof(id));
  return id;
}

Result<Epoch> DecodeEpoch(const ShippedEpoch& shipped) {
  Epoch epoch;
  epoch.epoch_id = shipped.epoch_id;
  if (shipped.is_heartbeat()) return epoch;
  AETS_CHECK(shipped.payload != nullptr);
  const std::string& data = *shipped.payload;
  size_t offset = 0;
  TxnLog current;
  bool in_txn = false;
  while (offset < data.size()) {
    auto rec = LogCodec::Decode(data, &offset);
    if (!rec.ok()) return rec.status();
    LogRecord record = std::move(rec).value();
    switch (record.type) {
      case LogRecordType::kBegin:
        if (in_txn) return Status::Corruption("nested BEGIN");
        current = TxnLog{};
        current.txn_id = record.txn_id;
        in_txn = true;
        current.records.push_back(std::move(record));
        break;
      case LogRecordType::kCommit:
        if (!in_txn) return Status::Corruption("COMMIT without BEGIN");
        current.commit_ts = record.timestamp;
        current.records.push_back(std::move(record));
        epoch.txns.push_back(std::move(current));
        in_txn = false;
        break;
      default:
        if (!in_txn) return Status::Corruption("DML outside transaction");
        current.records.push_back(std::move(record));
        break;
    }
  }
  if (in_txn) return Status::Corruption("unterminated transaction");
  return epoch;
}

}  // namespace aets
