#include "aets/storage/segment_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "aets/common/clock.h"
#include "aets/common/macros.h"
#include "aets/log/codec.h"
#include "aets/storage/durable_file.h"

namespace fs = std::filesystem;

namespace aets {

namespace {

constexpr char kManifestMagic[8] = {'A', 'E', 'T', 'S', 'S', 'E', 'G', 'M'};
constexpr uint32_t kManifestVersion = 1;
constexpr char kManifestName[] = "MANIFEST";

// Sanity bound on a frame body: the store never writes a larger one, so a
// frame claiming more is damage even when its CRC happens to match.
constexpr size_t kMaxBodyBytes = size_t{1} << 30;

template <typename T>
void PutRaw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T GetRaw(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// A declared body length the frame machinery will even consider.
bool PlausibleLen(uint64_t len) {
  return len >= kEpochBodyHeaderBytes && len <= kMaxBodyBytes;
}

// Parses "seg-<16hex>.log" back to the segment's first epoch id.
bool ParseSegmentName(const std::string& name, EpochId* first_epoch) {
  if (name.size() != 24 || name.rfind("seg-", 0) != 0 ||
      name.compare(20, 4, ".log") != 0) {
    return false;
  }
  uint64_t id = 0;
  for (size_t i = 4; i < 20; ++i) {
    const char c = name[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    id = (id << 4) | static_cast<uint64_t>(digit);
  }
  *first_epoch = id;
  return true;
}

}  // namespace

SegmentStore::SegmentStore(SegmentStoreOptions options)
    : options_(std::move(options)),
      exported_("",
                {{"segment.bytes_written", &bytes_written_},
                 {"segment.fetches_from_disk", &fetches_from_disk_},
                 {"segment.fsyncs", &fsyncs_},
                 {"segment.torn_frames_truncated", &torn_truncated_},
                 {"segment.truncations", &truncations_},
                 {"segment.segments_deleted", &segments_deleted_},
                 {"segment.bytes_reclaimed", &bytes_reclaimed_}}),
      segments_metric_(obs::GetGauge("segment.segments")),
      recovery_ms_metric_(obs::GetGauge("segment.recovery_ms")) {}

SegmentStore::~SegmentStore() {
  std::lock_guard<std::mutex> lk(mu_);
  if (append_fd_ >= 0) {
    if (options_.fsync_policy != FsyncPolicy::kNone) {
      ::fsync(append_fd_);
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
    }
    ::close(append_fd_);
  }
  for (auto& seg : segments_) {
    if (seg.read_fd >= 0) ::close(seg.read_fd);
  }
}

std::string SegmentStore::SegmentPath(EpochId first_epoch) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%016llx.log",
                static_cast<unsigned long long>(first_epoch));
  return options_.dir + "/" + name;
}

std::string SegmentStore::ManifestPath() const {
  return options_.dir + "/" + kManifestName;
}

Result<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    SegmentStoreOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("segment store needs a directory");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create segment dir " + options.dir + ": " +
                            ec.message());
  }
  std::unique_ptr<SegmentStore> store(new SegmentStore(std::move(options)));
  std::lock_guard<std::mutex> lk(store->mu_);
  const int64_t start_us = MonotonicMicros();

  const std::string manifest_path = store->ManifestPath();
  if (!fs::exists(manifest_path)) {
    // A fresh directory is fine; segment files without a manifest are not —
    // the manifest is the commit record of what this store ever sealed.
    for (const auto& entry : fs::directory_iterator(store->options_.dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("seg-", 0) == 0) {
        return Status::Corruption("segment files present without a manifest: " +
                                  store->options_.dir);
      }
    }
    store->segments_metric_->Set(0);
    store->recovery_ms_metric_->Set(0);
    return store;
  }

  std::ifstream in(manifest_path, std::ios::binary);
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  constexpr size_t kManifestHeader = sizeof(kManifestMagic) + 2 * sizeof(uint32_t) +
                                     sizeof(uint64_t);
  if (raw.size() < kManifestHeader ||
      std::memcmp(raw.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::Corruption("bad segment manifest magic");
  }
  const char* p = raw.data() + sizeof(kManifestMagic);
  const uint32_t version = GetRaw<uint32_t>(p);
  if (version != kManifestVersion) {
    return Status::NotSupported("unknown segment manifest version");
  }
  const uint32_t crc = GetRaw<uint32_t>(p + sizeof(uint32_t));
  const char* body = p + 2 * sizeof(uint32_t);
  const size_t body_len = raw.size() - (body - raw.data());
  if (Crc32c(body, body_len) != crc) {
    return Status::Corruption("segment manifest checksum mismatch");
  }
  const uint64_t num_segments = GetRaw<uint64_t>(body);
  if (body_len != sizeof(uint64_t) + num_segments * sizeof(uint64_t)) {
    return Status::Corruption("segment manifest length mismatch");
  }
  for (uint64_t i = 0; i < num_segments; ++i) {
    SegmentMeta meta;
    meta.first_epoch =
        GetRaw<uint64_t>(body + sizeof(uint64_t) + i * sizeof(uint64_t));
    store->segments_.push_back(meta);
  }
  if (store->segments_.empty()) {
    store->segments_metric_->Set(0);
    store->recovery_ms_metric_->Set(0);
    return store;
  }

  // The manifest is the commit record: any seg file below its first entry
  // is a leftover from a truncation that crashed between the manifest
  // rename and the unlinks. Remove it before scanning so the deleted epochs
  // can never resurrect.
  store->RemoveOrphanSegmentsLocked();

  store->first_epoch_ = store->segments_.front().first_epoch;
  EpochId expected = store->first_epoch_;
  for (size_t i = 0; i < store->segments_.size(); ++i) {
    if (store->segments_[i].first_epoch != expected) {
      return Status::Corruption(
          "segment manifest epoch gap: segment declares " +
          std::to_string(store->segments_[i].first_epoch) + ", expected " +
          std::to_string(expected));
    }
    Status s =
        store->ScanSegmentLocked(i, expected, i + 1 == store->segments_.size());
    if (!s.ok()) return s;
    expected = store->first_epoch_ + store->index_.size();
  }
  Status s = store->OpenActiveForAppendLocked();
  if (!s.ok()) return s;

  store->segments_metric_->Set(static_cast<int64_t>(store->segments_.size()));
  store->recovery_ms_metric_->Set((MonotonicMicros() - start_us) / 1000);
  return store;
}

Status SegmentStore::ScanSegmentLocked(size_t seg_idx, EpochId expected,
                                       bool newest) {
  SegmentMeta& meta = segments_[seg_idx];
  const std::string path = SegmentPath(meta.first_epoch);
  if (!fs::exists(path)) {
    // The crash window between the manifest rename and the segment-file
    // creation: legal only for the newest (empty) segment.
    if (newest) return Status::OK();
    return Status::Corruption("sealed segment missing: " + path);
  }
  std::ifstream in(path, std::ios::binary);
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  size_t offset = 0;
  std::string torn_reason;
  while (offset < raw.size()) {
    size_t next = offset;
    Result<std::string_view> body = ReadCrcFrame(raw, &next);
    if (!body.ok()) {
      torn_reason = std::string(body.status().message());
      break;
    }
    if (!PlausibleLen(body->size())) {
      torn_reason = "implausible frame length";
      break;
    }
    const EpochId epoch_id = PeekEpochBodyId(*body);
    if (epoch_id != expected) {
      // A valid frame carrying the wrong id is not a torn write — the store
      // never produces it, so the file has been tampered with or mixed up.
      return Status::Corruption(
          "segment " + path + " frame carries epoch " +
          std::to_string(epoch_id) + ", expected " + std::to_string(expected));
    }
    index_.push_back(FrameLoc{static_cast<uint32_t>(seg_idx), offset,
                              static_cast<uint32_t>(next - offset)});
    ++meta.frames;
    offset = next;
    ++expected;
  }
  if (offset < raw.size()) {
    if (!newest) {
      // Sealed segments were fsynced whole; damage here is real corruption,
      // and truncating it would silently rewrite durable history.
      return Status::Corruption("corrupt frame in sealed segment " + path +
                                " (" + torn_reason + ")");
    }
    std::error_code ec;
    fs::resize_file(path, offset, ec);
    if (ec) {
      return Status::Internal("cannot truncate torn tail of " + path + ": " +
                              ec.message());
    }
    torn_truncated_.fetch_add(1, std::memory_order_relaxed);
  }
  meta.bytes = offset;
  disk_bytes_ += offset;
  return Status::OK();
}

void SegmentStore::RemoveOrphanSegmentsLocked() {
  AETS_CHECK(!segments_.empty());
  const EpochId manifest_first = segments_.front().first_epoch;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    EpochId first = 0;
    if (!ParseSegmentName(entry.path().filename().string(), &first)) continue;
    if (first < manifest_first) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
}

Status SegmentStore::WriteManifestLocked(size_t drop_prefix, int64_t new_first) {
  AETS_CHECK(drop_prefix <= segments_.size());
  std::string body;
  const uint64_t count =
      segments_.size() - drop_prefix + (new_first >= 0 ? 1 : 0);
  PutRaw<uint64_t>(&body, count);
  for (size_t i = drop_prefix; i < segments_.size(); ++i) {
    PutRaw<uint64_t>(&body, segments_[i].first_epoch);
  }
  if (new_first >= 0) PutRaw<uint64_t>(&body, static_cast<uint64_t>(new_first));

  std::string buf;
  buf.append(kManifestMagic, sizeof(kManifestMagic));
  PutRaw<uint32_t>(&buf, kManifestVersion);
  PutRaw<uint32_t>(&buf, Crc32c(body.data(), body.size()));
  buf.append(body);

  if (options_.write_fault_hook) {
    Status s = options_.write_fault_hook(buf.size());
    if (!s.ok()) return s;
  }
  return ReplaceFileDurably(ManifestPath(), {buf}, &fsyncs_);
}

Status SegmentStore::OpenActiveForAppendLocked() {
  AETS_CHECK(!segments_.empty());
  if (append_fd_ >= 0) return Status::OK();
  const std::string path = SegmentPath(segments_.back().first_epoch);
  append_fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (append_fd_ < 0) {
    return Status::Internal("cannot open segment for append: " + path);
  }
  return Status::OK();
}

Status SegmentStore::FsyncActiveLocked() {
  if (append_fd_ < 0) return Status::OK();
  if (::fsync(append_fd_) != 0) {
    return Status::Internal("segment fsync failed");
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SegmentStore::RolloverLocked(EpochId first_epoch) {
  // Order matters for failure atomicity: the manifest commits the new
  // segment before the old descriptor closes, so a failed rewrite (disk
  // full) leaves the old segment active and appendable — the store degrades
  // to oversized segments instead of wedging.
  if (options_.fsync_policy != FsyncPolicy::kNone) {
    Status s = FsyncActiveLocked();
    if (!s.ok()) return s;
  }
  Status s = WriteManifestLocked(0, static_cast<int64_t>(first_epoch));
  if (!s.ok()) return s;
  ::close(append_fd_);
  append_fd_ = -1;
  SegmentMeta meta;
  meta.first_epoch = first_epoch;
  segments_.push_back(meta);
  segments_metric_->Set(static_cast<int64_t>(segments_.size()));
  return OpenActiveForAppendLocked();
}

Status SegmentStore::Append(const ShippedEpoch& epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!segments_.empty() && epoch.epoch_id != first_epoch_ + index_.size()) {
    return Status::InvalidArgument(
        "segment append out of order: got epoch " +
        std::to_string(epoch.epoch_id) + ", next is " +
        std::to_string(first_epoch_ + index_.size()));
  }
  std::string frame(kCrcFrameHeaderBytes, '\0');
  EncodeEpochBody(epoch, &frame);
  SealCrcFrame(&frame, 0);
  if (options_.write_fault_hook) {
    Status s = options_.write_fault_hook(frame.size());
    if (!s.ok()) return s;
  }
  if (segments_.empty()) {
    Status s = WriteManifestLocked(0, static_cast<int64_t>(epoch.epoch_id));
    if (!s.ok()) return s;
    // Only now does the store's id range start here: a failed first append
    // must not leave first_epoch() pointing at an id that was never written
    // (FloorEpochId would misread it as a truncation floor).
    first_epoch_ = epoch.epoch_id;
    SegmentMeta meta;
    meta.first_epoch = epoch.epoch_id;
    segments_.push_back(meta);
    segments_metric_->Set(1);
    Status o = OpenActiveForAppendLocked();
    if (!o.ok()) return o;
  } else if (segments_.back().bytes > 0 &&
             segments_.back().bytes + frame.size() >
                 options_.segment_max_bytes) {
    Status s = RolloverLocked(epoch.epoch_id);
    if (!s.ok()) return s;
  } else {
    Status s = OpenActiveForAppendLocked();
    if (!s.ok()) return s;
  }

  SegmentMeta& meta = segments_.back();
  Status s = WriteFully(append_fd_, frame);
  if (!s.ok()) {
    // Drop any partial frame so the durable prefix stays scannable.
    if (::ftruncate(append_fd_, static_cast<off_t>(meta.bytes)) != 0) {
      // The truncate failing too leaves a torn tail; Open() repairs it.
    }
    return s;
  }
  index_.push_back(FrameLoc{static_cast<uint32_t>(segments_.size() - 1),
                            meta.bytes,
                            static_cast<uint32_t>(frame.size())});
  meta.bytes += frame.size();
  ++meta.frames;
  bytes_written_.fetch_add(frame.size(), std::memory_order_relaxed);
  disk_bytes_ += frame.size();
  if (options_.fsync_policy == FsyncPolicy::kAlways) {
    return FsyncActiveLocked();
  }
  return Status::OK();
}

int SegmentStore::ReadFdLocked(size_t seg_idx) {
  SegmentMeta& meta = segments_[seg_idx];
  if (meta.read_fd < 0) {
    meta.read_fd =
        ::open(SegmentPath(meta.first_epoch).c_str(), O_RDONLY);
  }
  return meta.read_fd;
}

std::optional<ShippedEpoch> SegmentStore::Read(EpochId id) {
  std::lock_guard<std::mutex> lk(mu_);
  if (index_.empty() || id < first_epoch_ ||
      id >= first_epoch_ + index_.size()) {
    return std::nullopt;
  }
  const FrameLoc& loc = index_[id - first_epoch_];
  int fd = ReadFdLocked(loc.segment);
  if (fd < 0) return std::nullopt;
  std::string buf(loc.size, '\0');
  ssize_t r = ::pread(fd, buf.data(), buf.size(),
                      static_cast<off_t>(loc.offset));
  if (r != static_cast<ssize_t>(buf.size())) return std::nullopt;
  // Bit rot after the append-time scan, or a CRC-valid frame whose body
  // does not decode: indistinguishable from an evicted epoch for the
  // caller, which escalates to re-bootstrap.
  size_t end = 0;
  Result<std::string_view> body = ReadCrcFrame(buf, &end);
  if (!body.ok() || end != buf.size()) return std::nullopt;
  Result<ShippedEpoch> epoch = DecodeEpochBody(*body);
  if (!epoch.ok() || epoch->epoch_id != id) return std::nullopt;
  fetches_from_disk_.fetch_add(1, std::memory_order_relaxed);
  return std::move(epoch).value();
}

Status SegmentStore::Sync() {
  std::lock_guard<std::mutex> lk(mu_);
  return FsyncActiveLocked();
}

Status SegmentStore::TruncateBelow(EpochId floor) {
  std::lock_guard<std::mutex> lk(mu_);
  // Segment i is wholly below the floor iff its successor starts at or
  // below it. The newest segment never qualifies: it is the append head,
  // and the manifest must keep listing at least one segment.
  size_t drop = 0;
  while (drop + 1 < segments_.size() &&
         segments_[drop + 1].first_epoch <= floor) {
    ++drop;
  }
  if (drop == 0) return Status::OK();

  if (options_.truncate_fault_hook) {
    Status s = options_.truncate_fault_hook(0);
    if (!s.ok()) return s;
  }
  // Manifest first: once the rename lands, the dropped segments are no
  // longer part of the store no matter where a crash interrupts the
  // unlinks below — reopen treats the leftover files as orphans.
  Status s = WriteManifestLocked(drop, -1);
  if (!s.ok()) return s;

  std::vector<std::pair<std::string, uint64_t>> victims;
  for (size_t i = 0; i < drop; ++i) {
    if (segments_[i].read_fd >= 0) ::close(segments_[i].read_fd);
    victims.emplace_back(SegmentPath(segments_[i].first_epoch),
                         segments_[i].bytes);
  }
  const EpochId new_first = segments_[drop].first_epoch;
  segments_.erase(segments_.begin(), segments_.begin() + drop);
  index_.erase(index_.begin(),
               index_.begin() + static_cast<size_t>(new_first - first_epoch_));
  for (auto& loc : index_) loc.segment -= static_cast<uint32_t>(drop);
  first_epoch_ = new_first;
  truncations_.fetch_add(1, std::memory_order_relaxed);
  segments_metric_->Set(static_cast<int64_t>(segments_.size()));

  for (size_t i = 0; i < victims.size(); ++i) {
    if (options_.truncate_fault_hook) {
      Status hs = options_.truncate_fault_hook(static_cast<int>(i) + 1);
      if (!hs.ok()) return hs;
    }
    std::error_code ec;
    if (fs::remove(victims[i].first, ec) && !ec) {
      segments_deleted_.fetch_add(1, std::memory_order_relaxed);
      bytes_reclaimed_.fetch_add(victims[i].second, std::memory_order_relaxed);
      disk_bytes_ -= victims[i].second;
    }
  }
  return Status::OK();
}

EpochId SegmentStore::first_epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return first_epoch_;
}

EpochId SegmentStore::next_epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return first_epoch_ + index_.size();
}

bool SegmentStore::empty() const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.empty();
}

size_t SegmentStore::num_segments() const {
  std::lock_guard<std::mutex> lk(mu_);
  return segments_.size();
}

uint64_t SegmentStore::disk_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return disk_bytes_;
}

bool SegmentStore::over_budget() const {
  std::lock_guard<std::mutex> lk(mu_);
  return options_.disk_budget_bytes > 0 &&
         disk_bytes_ > options_.disk_budget_bytes;
}

}  // namespace aets
