#include "aets/storage/checkpoint.h"

#include <cstddef>
#include <cstring>
#include <fstream>
#include <string_view>

#include "aets/common/macros.h"
#include "aets/log/codec.h"
#include "aets/obs/metrics.h"
#include "aets/storage/durable_file.h"

namespace aets {

namespace {

constexpr char kMagic[8] = {'A', 'E', 'T', 'S', 'C', 'K', 'P', 'T'};
// The only version read or written. v2 carries a whole-body CRC32C: the
// per-record frame checksums cannot see a truncation on a record boundary.
constexpr uint32_t kVersion = 2;

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t crc;  // over the fields below
  uint64_t snapshot_ts;
  uint64_t next_epoch_id;
  uint64_t num_rows;
  uint64_t num_tables;
  uint32_t body_crc;  // CRC32C over every byte after the header
  uint32_t reserved;  // keeps the struct 8-byte aligned; always 0
};

uint32_t HeaderCrc(const Header& h) {
  // CRC over the payload fields (everything after the crc member).
  return Crc32c(&h.snapshot_ts, sizeof(Header) - offsetof(Header, snapshot_ts));
}

}  // namespace

Status Checkpointer::Write(const TableStore& store, Timestamp snapshot_ts,
                           EpochId next_epoch_id, const std::string& path) {
  if (snapshot_ts == kInvalidTimestamp) {
    return Status::InvalidArgument("checkpoint needs a valid snapshot ts");
  }
  static obs::Counter* writes_metric = obs::GetCounter("checkpoint.writes");
  static obs::Counter* bytes_metric =
      obs::GetCounter("checkpoint.bytes_written");
  static Histogram* write_us_metric =
      obs::GetHistogram("checkpoint.write_us");
  int64_t start_us = MonotonicMicros();
  // Encode all visible rows first (also gives the row count for the header).
  std::string body;
  uint64_t num_rows = 0;
  for (size_t t = 0; t < store.num_tables(); ++t) {
    const Memtable* table = store.GetTable(static_cast<TableId>(t));
    table->ScanVisible(snapshot_ts, [&](int64_t key, const Row& row) {
      std::vector<ColumnValue> values;
      values.reserve(row.size());
      for (const auto& [col, value] : row) {
        values.push_back(ColumnValue{col, value});
      }
      LogCodec::Encode(
          LogRecord::Dml(LogRecordType::kInsert, /*lsn=*/num_rows + 1,
                         /*txn=*/1, snapshot_ts, static_cast<TableId>(t), key,
                         std::move(values)),
          &body);
      ++num_rows;
      return true;
    });
  }

  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.snapshot_ts = snapshot_ts;
  header.next_epoch_id = next_epoch_id;
  header.num_rows = num_rows;
  header.num_tables = store.num_tables();
  header.body_crc = Crc32c(body.data(), body.size());
  header.reserved = 0;
  header.crc = HeaderCrc(header);

  Status s = ReplaceFileDurably(
      path, {std::string_view(reinterpret_cast<const char*>(&header),
                              sizeof(header)),
             body});
  if (!s.ok()) return s;
  writes_metric->Add(1);
  bytes_metric->Add(sizeof(header) + body.size());
  write_us_metric->Record(MonotonicMicros() - start_us);
  return Status::OK();
}

Result<CheckpointInfo> Checkpointer::Restore(const std::string& path,
                                             TableStore* store) {
  AETS_CHECK(store != nullptr);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open checkpoint file: " + path);

  Header header;
  in.read(reinterpret_cast<char*>(&header.magic), sizeof(header.magic));
  in.read(reinterpret_cast<char*>(&header.version), sizeof(header.version));
  if (!in || std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad checkpoint magic");
  }
  if (header.version != kVersion) {
    return Status::NotSupported("unknown checkpoint version " +
                                std::to_string(header.version));
  }
  in.read(reinterpret_cast<char*>(&header.crc),
          sizeof(Header) - offsetof(Header, crc));
  if (!in) return Status::Corruption("truncated checkpoint header");
  if (header.crc != HeaderCrc(header)) {
    return Status::Corruption("checkpoint header checksum mismatch");
  }
  if (header.num_tables != store->num_tables()) {
    return Status::InvalidArgument("checkpoint table count mismatch");
  }

  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (Crc32c(body.data(), body.size()) != header.body_crc) {
    return Status::Corruption("checkpoint body checksum mismatch");
  }
  size_t offset = 0;
  uint64_t rows = 0;
  while (offset < body.size()) {
    auto rec = LogCodec::DecodeView(body, &offset);
    if (!rec.ok()) {
      return Status::Corruption("checkpoint body record corrupt: " +
                                std::string(rec.status().message()));
    }
    if (rec->type != LogRecordType::kInsert ||
        rec->timestamp != header.snapshot_ts) {
      return Status::Corruption("unexpected record in checkpoint body");
    }
    if (rec->table_id >= store->num_tables()) {
      return Status::Corruption("checkpoint row for unknown table");
    }
    store->GetTable(rec->table_id)->ApplyCommitted(*rec, header.snapshot_ts);
    ++rows;
  }
  if (rows != header.num_rows) {
    return Status::Corruption("checkpoint truncated: expected " +
                              std::to_string(header.num_rows) + " rows, got " +
                              std::to_string(rows));
  }
  CheckpointInfo info;
  info.snapshot_ts = header.snapshot_ts;
  info.next_epoch_id = header.next_epoch_id;
  info.num_rows = rows;
  static obs::Counter* restores_metric = obs::GetCounter("checkpoint.restores");
  static obs::Counter* rows_metric =
      obs::GetCounter("checkpoint.rows_restored");
  restores_metric->Add(1);
  rows_metric->Add(rows);
  return info;
}

}  // namespace aets
