#include "aets/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "aets/common/macros.h"
#include "aets/obs/export.h"

namespace aets {
namespace obs {

namespace {

/// atexit hook for the AETS_METRICS_JSON env var: any binary that touches
/// the registry dumps its final snapshot without needing harness wiring
/// (google-benchmark micros, examples, ad-hoc tools).
void DumpSnapshotAtExit() {
  const char* path = std::getenv("AETS_METRICS_JSON");
  if (path == nullptr || path[0] == '\0') return;
  Status st = WriteMetricsJsonFile(path);
  if (!st.ok()) {
    std::fprintf(stderr, "metrics export to %s failed: %s\n", path,
                 st.ToString().c_str());
  }
}

/// The per-scope series of a component-owned counter.
std::string Scoped(const std::string& name, const std::string& scope) {
  return name + "{" + scope + "}";
}

}  // namespace

MetricsRegistry::MetricsRegistry() {
  if (std::getenv("AETS_METRICS_JSON") != nullptr) {
    std::atexit(DumpSnapshotAtExit);
  }
}

MetricsRegistry& MetricsRegistry::Instance() {
  // Intentionally leaked: atexit dump hooks and detached daemon threads may
  // touch the registry after main() returns, so it must outlive every other
  // static (a Meyers singleton would be destroyed before late atexit hooks).
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    AETS_CHECK_MSG(retired_.find(name) == retired_.end(),
                   "counter name is component-owned (ExportedCounters)");
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  snap.counters.insert(retired_.begin(), retired_.end());
  for (const ExportedCounters* owner : owners_) {
    for (const auto& e : owner->entries_) {
      uint64_t v = e.value->load(std::memory_order_relaxed);
      snap.counters[e.name] += v;
      if (!owner->scope_.empty()) {
        snap.counters[Scoped(e.name, owner->scope_)] += v;
      }
    }
  }
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->SnapshotStats();
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, total] : retired_) total = 0;
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void MetricsRegistry::Register(const ExportedCounters* owner) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& e : owner->entries_) {
    AETS_CHECK_MSG(counters_.find(e.name) == counters_.end(),
                   "counter name is registry-owned (GetCounter)");
    retired_.try_emplace(e.name, 0);
    if (!owner->scope_.empty()) {
      retired_.try_emplace(Scoped(e.name, owner->scope_), 0);
    }
  }
  owners_.push_back(owner);
}

void MetricsRegistry::Unregister(const ExportedCounters* owner) {
  std::lock_guard<std::mutex> lk(mu_);
  owners_.erase(std::find(owners_.begin(), owners_.end(), owner));
  for (const auto& e : owner->entries_) {
    uint64_t v = e.value->load(std::memory_order_relaxed);
    retired_[e.name] += v;
    if (!owner->scope_.empty()) retired_[Scoped(e.name, owner->scope_)] += v;
  }
}

ExportedCounters::ExportedCounters(std::string scope,
                                   std::vector<Entry> entries)
    : scope_(std::move(scope)), entries_(std::move(entries)) {
  MetricsRegistry::Instance().Register(this);
}

ExportedCounters::~ExportedCounters() {
  MetricsRegistry::Instance().Unregister(this);
}

}  // namespace obs
}  // namespace aets
