#include "aets/storage/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace aets {

Status WriteFully(int fd, std::string_view data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t w = ::write(fd, data.data() + done, data.size() - done);
    if (w <= 0) {
      return Status::Internal("write failed: " +
                              std::string(std::strerror(errno)));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status ReplaceFileDurably(const std::string& path,
                          std::initializer_list<std::string_view> chunks,
                          std::atomic<uint64_t>* fsyncs) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::Internal("cannot open " + tmp);
  Status s;
  for (std::string_view chunk : chunks) {
    s = WriteFully(fd, chunk);
    if (!s.ok()) break;
  }
  if (s.ok() && ::fsync(fd) != 0) s = Status::Internal("fsync failed: " + tmp);
  ::close(fd);
  if (!s.ok()) {
    std::remove(tmp.c_str());
    return s;
  }
  if (fsyncs != nullptr) fsyncs->fetch_add(1, std::memory_order_relaxed);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + path);
  }
  // The rename is atomic but not durable until the directory entry itself
  // reaches the disk.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace aets
