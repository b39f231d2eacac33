#include "aets/storage/gc_daemon.h"

#include <chrono>

#include "aets/common/macros.h"
#include "aets/obs/metrics.h"

namespace aets {

GcDaemon::GcDaemon(TableStore* store, std::function<Timestamp()> watermark_source,
                   Timestamp retention, int64_t interval_us)
    : store_(store),
      watermark_source_(std::move(watermark_source)),
      retention_(retention),
      interval_us_(interval_us),
      exported_("", {{"gc.passes", &passes_},
                     {"gc.versions_reclaimed", &total_reclaimed_}}) {
  AETS_CHECK(store != nullptr && watermark_source_ != nullptr);
}

GcDaemon::~GcDaemon() { Stop(); }

void GcDaemon::Start() {
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
}

void GcDaemon::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

size_t GcDaemon::RunOnce() {
  static Histogram* pause_us_metric = obs::GetHistogram("gc.pause_us");
  Timestamp watermark = watermark_source_();
  if (watermark <= retention_) return 0;
  Timestamp horizon = watermark - retention_;
  if (pre_pass_hook_) pre_pass_hook_(horizon);
  int64_t start_us = MonotonicMicros();
  size_t reclaimed = store_->GarbageCollect(horizon);
  pause_us_metric->Record(MonotonicMicros() - start_us);
  total_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);
  passes_.fetch_add(1, std::memory_order_relaxed);
  if (post_pass_hook_) post_pass_hook_(horizon, reclaimed);
  return reclaimed;
}

void GcDaemon::Loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    RunOnce();
    std::this_thread::sleep_for(std::chrono::microseconds(interval_us_));
  }
}

}  // namespace aets
