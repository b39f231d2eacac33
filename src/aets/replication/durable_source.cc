#include "aets/replication/durable_source.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace fs = std::filesystem;

namespace aets {

namespace {
constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".img";
}  // namespace

std::string CheckpointPathFor(const std::string& dir, EpochId next_epoch_id) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%016llx.img",
                static_cast<unsigned long long>(next_epoch_id));
  return dir + "/" + name;
}

std::optional<EpochId> CheckpointEpochOf(const std::string& path) {
  const std::string name = fs::path(path).filename().string();
  // "ckpt-" + 16 hex digits + ".img"
  if (name.size() != 25 || name.rfind(kCheckpointPrefix, 0) != 0 ||
      name.compare(21, 4, kCheckpointSuffix) != 0) {
    return std::nullopt;
  }
  uint64_t id = 0;
  for (size_t i = 5; i < 21; ++i) {
    const char c = name[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return std::nullopt;
    }
    id = (id << 4) | static_cast<uint64_t>(digit);
  }
  return static_cast<EpochId>(id);
}

std::vector<std::string> ListCheckpointFiles(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kCheckpointPrefix, 0) == 0 &&
        name.size() > sizeof(kCheckpointSuffix) &&
        name.compare(name.size() - 4, 4, kCheckpointSuffix) == 0) {
      out.push_back(entry.path().string());
    }
  }
  // Order by the parsed epoch id, newest first, rather than by raw name —
  // a malformed name must sort oldest, never shadow the true newest image.
  std::sort(out.begin(), out.end(),
            [](const std::string& a, const std::string& b) {
              const auto ea = CheckpointEpochOf(a);
              const auto eb = CheckpointEpochOf(b);
              if (ea.has_value() != eb.has_value()) return ea.has_value();
              if (ea && eb && *ea != *eb) return *ea > *eb;
              return a > b;
            });
  return out;
}

void PruneCheckpoints(const std::string& dir, size_t keep,
                      EpochId truncation_floor) {
  auto files = ListCheckpointFiles(dir);
  // The floor image: the newest one whose next_epoch_id is at or below the
  // truncation floor. Every epoch below the floor exists only inside it (or
  // a newer image), so count-based rotation must never remove it — if every
  // newer image fails to restore, it is the last bridge to the durable tail.
  std::string protect;
  if (truncation_floor > 0) {
    for (const std::string& f : files) {
      auto epoch = CheckpointEpochOf(f);
      if (epoch && *epoch <= truncation_floor) {
        protect = f;
        break;
      }
    }
  }
  for (size_t i = keep; i < files.size(); ++i) {
    if (files[i] == protect) continue;
    std::error_code ec;
    fs::remove(files[i], ec);
  }
}

Result<RestartPoint> ChooseRestartPoint(const std::string& dir,
                                        EpochId log_first, EpochId log_next,
                                        const RestoreImageFn& restore) {
  RestartPoint point;
  for (const std::string& image : ListCheckpointFiles(dir)) {
    Result<EpochId> next = restore(image);
    if (!next.ok()) {
      point.rejected.push_back(image + ": " + next.status().ToString());
    } else if (*next > log_next) {
      point.rejected.push_back(image + ": ahead of the durable log");
    } else if (*next < log_first) {
      point.rejected.push_back(image + ": below the truncation floor");
    } else {
      point.image = image;
      point.next_epoch = *next;
      return point;
    }
  }
  if (log_first > 0) {
    std::string why = "durable log starts at epoch " +
                      std::to_string(log_first) +
                      " (truncated) and no checkpoint image bridges it";
    for (const std::string& r : point.rejected) why += "; " + r;
    return Status::BelowCheckpoint(why);
  }
  return point;
}

}  // namespace aets
