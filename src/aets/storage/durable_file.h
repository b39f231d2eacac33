#ifndef AETS_STORAGE_DURABLE_FILE_H_
#define AETS_STORAGE_DURABLE_FILE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "aets/common/status.h"

namespace aets {

/// Writes all of `data` to `fd`, retrying short writes.
Status WriteFully(int fd, std::string_view data);

/// Replaces `path` with the concatenation of `chunks` by the create-then-
/// rename commit protocol: write `path`.tmp, fsync it, rename it over
/// `path`, fsync the directory. A reader — or a recovery scan after a
/// crash — sees the complete old file or the complete new one, never a
/// half-written file under the final name. `fsyncs`, when set, counts the
/// file fsync. On failure the tmp file is removed.
Status ReplaceFileDurably(const std::string& path,
                          std::initializer_list<std::string_view> chunks,
                          std::atomic<uint64_t>* fsyncs = nullptr);

}  // namespace aets

#endif  // AETS_STORAGE_DURABLE_FILE_H_
