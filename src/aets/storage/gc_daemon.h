#ifndef AETS_STORAGE_GC_DAEMON_H_
#define AETS_STORAGE_GC_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

#include "aets/common/clock.h"
#include "aets/obs/metrics.h"
#include "aets/storage/table_store.h"

namespace aets {

/// Background MVCC garbage collector for a backup's TableStore. Version
/// chains on the backup grow with every replayed transaction; the daemon
/// periodically folds away history below `watermark_source() - retention`,
/// which is safe as long as no reader uses snapshots older than that (the
/// backup's readers take fresh snapshots, so a small retention horizon
/// suffices — the hybrid-GC concern of the paper's Section III-A model).
class GcDaemon {
 public:
  /// `watermark_source` is typically the replayer's GlobalVisibleTs.
  GcDaemon(TableStore* store, std::function<Timestamp()> watermark_source,
           Timestamp retention = 0, int64_t interval_us = 100'000);
  ~GcDaemon();

  GcDaemon(const GcDaemon&) = delete;
  GcDaemon& operator=(const GcDaemon&) = delete;

  void Start();
  void Stop();

  /// Test/observer hooks around each pass. The pre-pass hook fires with the
  /// truncation watermark BEFORE any version is folded (the simulation
  /// oracle raises its GC horizon here, so it never probes a snapshot the
  /// pass is about to invalidate); the post-pass hook fires after the pass
  /// with (watermark, versions reclaimed). Set before Start().
  void SetPrePassHook(std::function<void(Timestamp)> hook) {
    pre_pass_hook_ = std::move(hook);
  }
  void SetPostPassHook(std::function<void(Timestamp, size_t)> hook) {
    post_pass_hook_ = std::move(hook);
  }

  /// One synchronous pass (also used by Start's loop). Returns versions
  /// reclaimed.
  size_t RunOnce();

  uint64_t total_reclaimed() const {
    return total_reclaimed_.load(std::memory_order_relaxed);
  }
  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  TableStore* store_;
  std::function<Timestamp()> watermark_source_;
  std::function<void(Timestamp)> pre_pass_hook_;
  std::function<void(Timestamp, size_t)> post_pass_hook_;
  Timestamp retention_;
  int64_t interval_us_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> total_reclaimed_{0};
  std::atomic<uint64_t> passes_{0};
  obs::ExportedCounters exported_;
  std::thread thread_;
};

}  // namespace aets

#endif  // AETS_STORAGE_GC_DAEMON_H_
