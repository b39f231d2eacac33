#ifndef AETS_OBS_METRICS_H_
#define AETS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "aets/common/histogram.h"

namespace aets {
namespace obs {

/// Monotonically increasing event counter. Lock-free; safe to hammer from
/// replay workers, committers, and daemon threads concurrently.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, thread counts,
/// watermarks). Lock-free.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// One consistent snapshot of every registered instrument. Histogram stats
/// are each taken under that histogram's lock (see Histogram::SnapshotStats).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Histogram::Stats> histograms;
};

class ExportedCounters;

/// Process-wide registry of named Counters, Gauges, and Histograms, plus
/// the counters components own and export through ExportedCounters.
///
/// Lookup takes a mutex and allocates on first use, so call sites resolve
/// their instrument pointer ONCE (constructor, static local, or member) and
/// then update through the pointer on the hot path — returned pointers are
/// stable for the process lifetime; instruments are never unregistered.
///
/// A counter name is either registry-owned (GetCounter) or component-owned
/// (ExportedCounters), never both: a component that already keeps a counter
/// for its own accessors exports that counter instead of bumping a second
/// copy here. Snapshot() reports a component-owned name summed over every
/// live owner plus the final values of destroyed ones, and, per scoped
/// owner, a `name{scope}` series.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named instrument. Never returns nullptr. Aborts
  /// when `name` is a component-owned counter.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registry-owned instrument and the retired totals of
  /// destroyed component owners (names stay registered). Live components'
  /// counters are theirs and are not touched. Tests use this to scope
  /// measurements.
  void ResetAll();

 private:
  friend class ExportedCounters;

  MetricsRegistry();

  void Register(const ExportedCounters* owner);
  void Unregister(const ExportedCounters* owner);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  /// Live component owners, and the folded final values of destroyed ones
  /// keyed by exported series name. Every component-owned series ever
  /// registered has a key here, which is what GetCounter checks against.
  std::vector<const ExportedCounters*> owners_;
  std::map<std::string, uint64_t, std::less<>> retired_;
};

/// RAII export of counters a component already owns: registers
/// (name, counter) pairs with the registry for the handle's lifetime, so
/// the registry reads the component's own atomics instead of keeping a
/// second copy. On destruction the final values fold into retired totals,
/// so process-wide series never go backwards. Declare the handle after the
/// counters it exports, so it unregisters before they are destroyed.
class ExportedCounters {
 public:
  struct Entry {
    std::string name;
    const std::atomic<uint64_t>* value;
  };

  /// A non-empty `scope` (a replayer name, a shipper lane) also exports
  /// each counter as `name{scope}`.
  ExportedCounters(std::string scope, std::vector<Entry> entries);
  ~ExportedCounters();

  ExportedCounters(const ExportedCounters&) = delete;
  ExportedCounters& operator=(const ExportedCounters&) = delete;

 private:
  friend class MetricsRegistry;

  std::string scope_;
  std::vector<Entry> entries_;
};

/// Shorthands for instrument resolution at initialization time.
inline Counter* GetCounter(std::string_view name) {
  return MetricsRegistry::Instance().GetCounter(name);
}
inline Gauge* GetGauge(std::string_view name) {
  return MetricsRegistry::Instance().GetGauge(name);
}
inline Histogram* GetHistogram(std::string_view name) {
  return MetricsRegistry::Instance().GetHistogram(name);
}

}  // namespace obs
}  // namespace aets

#endif  // AETS_OBS_METRICS_H_
