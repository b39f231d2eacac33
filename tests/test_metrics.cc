// Tests for the aets::obs observability layer: concurrent counter/gauge
// updates, registry snapshot consistency, component-owned counter export,
// span timing, and the JSON export round-trip (parsed with a minimal JSON
// reader defined here).

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "aets/common/clock.h"
#include "aets/obs/export.h"
#include "aets/obs/metrics.h"
#include "aets/obs/trace.h"

namespace aets {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON reader (objects, arrays, strings, numbers) sufficient to
// round-trip the exporter's output. Parse failures -> ADD_FAILURE + empty.

struct JsonValue {
  enum Kind { kNull, kNumber, kString, kObject, kArray } kind = kNull;
  double number = 0;
  std::string str;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  const JsonValue& at(const std::string& key) const {
    static const JsonValue kEmpty;
    auto it = object.find(key);
    return it == object.end() ? kEmpty : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipWs();
    EXPECT_EQ(pos_, text_.size()) << "trailing JSON garbage";
    return v;
  }

  bool failed() const { return failed_; }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipWs();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return '\0';
    }
    return text_[pos_];
  }

  bool Consume(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    Fail(std::string("expected '") + c + "'");
    return false;
  }

  void Fail(const std::string& why) {
    if (!failed_) ADD_FAILURE() << "JSON parse error at " << pos_ << ": " << why;
    failed_ = true;
  }

  JsonValue ParseValue() {
    if (failed_) return {};
    char c = Peek();
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    return ParseNumber();
  }

  JsonValue ParseObject() {
    JsonValue v;
    v.kind = JsonValue::kObject;
    Consume('{');
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      JsonValue key = ParseString();
      Consume(':');
      v.object[key.str] = ParseValue();
      if (failed_) return v;
      char c = Peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') {
        Fail("expected ',' or '}'");
        return v;
      }
    }
  }

  JsonValue ParseArray() {
    JsonValue v;
    v.kind = JsonValue::kArray;
    Consume('[');
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(ParseValue());
      if (failed_) return v;
      char c = Peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') {
        Fail("expected ',' or ']'");
        return v;
      }
    }
  }

  JsonValue ParseString() {
    JsonValue v;
    v.kind = JsonValue::kString;
    if (!Consume('"')) return v;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            v.str += '\n';
            break;
          case 'r':
            v.str += '\r';
            break;
          case 't':
            v.str += '\t';
            break;
          case 'u':
            // The exporter only emits \u00XX for control bytes.
            if (pos_ + 4 <= text_.size()) {
              v.str += static_cast<char>(
                  std::stoi(std::string(text_.substr(pos_, 4)), nullptr, 16));
              pos_ += 4;
            }
            break;
          default:
            v.str += esc;  // \" and \\ and /
        }
      } else {
        v.str += c;
      }
    }
    if (pos_ >= text_.size()) {
      Fail("unterminated string");
      return v;
    }
    ++pos_;  // closing quote
    return v;
  }

  JsonValue ParseNumber() {
    JsonValue v;
    v.kind = JsonValue::kNumber;
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected a number");
      return v;
    }
    v.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter* counter = GetCounter("test.concurrent_counter");
  counter->Reset();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter->Add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(GaugeTest, ConcurrentAddSubNetsToZero) {
  Gauge* gauge = GetGauge("test.concurrent_gauge");
  gauge->Reset();
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([gauge] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        gauge->Add(3);
        gauge->Add(-3);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(gauge->value(), 0);
}

TEST(RegistryTest, SameNameSameInstrument) {
  Counter* a = GetCounter("test.same_name");
  Counter* b = GetCounter("test.same_name");
  EXPECT_EQ(a, b);
  // Identical names of different kinds are distinct instruments.
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(GetGauge("test.same_name")));
}

TEST(RegistryTest, SnapshotSeesRegisteredValues) {
  GetCounter("test.snap_counter")->Reset();
  GetCounter("test.snap_counter")->Add(41);
  GetGauge("test.snap_gauge")->Set(-7);
  Histogram* h = GetHistogram("test.snap_hist");
  h->Reset();
  h->Record(10);
  h->Record(30);

  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  EXPECT_EQ(snap.counters.at("test.snap_counter"), 41u);
  EXPECT_EQ(snap.gauges.at("test.snap_gauge"), -7);
  EXPECT_EQ(snap.histograms.at("test.snap_hist").count, 2);
  EXPECT_EQ(snap.histograms.at("test.snap_hist").sum, 40);
}

TEST(RegistryTest, SnapshotIsConsistentUnderConcurrentUpdates) {
  // The writer bumps b then a, so b >= a at every instant. Snapshot reads
  // counters in name order (a first), so every snapshot must observe
  // sb >= sa, and each counter must be monotone across snapshots.
  Counter* a = GetCounter("test.consistency_a");
  Counter* b = GetCounter("test.consistency_b");
  a->Reset();
  b->Reset();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      b->Add(1);
      a->Add(1);
    }
  });
  uint64_t last_a = 0;
  for (int i = 0; i < 200; ++i) {
    MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
    uint64_t sa = snap.counters.at("test.consistency_a");
    uint64_t sb = snap.counters.at("test.consistency_b");
    EXPECT_GE(sb, sa);      // b is always incremented first
    EXPECT_GE(sa, last_a);  // monotone across snapshots
    last_a = sa;
  }
  stop.store(true);
  writer.join();
}

TEST(TraceTest, SpanDurationsAreMonotonicAndNonNegative) {
  Tracer::Instance().Clear();
  int64_t before_ns = MonotonicNanos();
  for (int i = 0; i < 5; ++i) {
    AETS_TRACE_SPAN("test.span_timing");
    // A little real work so durations are observable.
    volatile int sink = 0;
    for (int k = 0; k < 1000; ++k) sink = sink + k;
  }
  Tracer::Instance().FlushThisThread();
  int64_t after_ns = MonotonicNanos();

  std::vector<SpanEvent> spans;
  for (const SpanEvent& ev : Tracer::Instance().RecentSpans()) {
    if (std::string_view(ev.name) == "test.span_timing") spans.push_back(ev);
  }
  ASSERT_EQ(spans.size(), 5u);
  int64_t prev_start = before_ns;
  for (const SpanEvent& ev : spans) {
    EXPECT_GE(ev.duration_ns, 0);
    EXPECT_GE(ev.start_ns, prev_start);  // same thread: starts are ordered
    EXPECT_LE(ev.start_ns + ev.duration_ns, after_ns);
    prev_start = ev.start_ns;
  }
  // The span histogram recorded every instance.
  EXPECT_GE(GetHistogram("span.test.span_timing")->count(), 5);
}

TEST(TraceTest, RingKeepsMostRecentWhenOverCapacity) {
  Tracer::Instance().Clear();
  constexpr size_t kOverfill = Tracer::kRingCapacity + 500;
  for (size_t i = 0; i < kOverfill; ++i) {
    AETS_TRACE_SPAN("test.ring_overflow");
  }
  Tracer::Instance().FlushThisThread();
  std::vector<SpanEvent> spans = Tracer::Instance().RecentSpans();
  EXPECT_EQ(spans.size(), Tracer::kRingCapacity);
  // Arrival order: starts never decrease (single writer thread).
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
  }
}

TEST(TraceTest, ConcurrentSpansAllArrive) {
  Tracer::Instance().Clear();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 300;  // fits in the ring with room to spare
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        AETS_TRACE_SPAN("test.concurrent_span");
      }
      Tracer::Instance().FlushThisThread();
    });
  }
  for (auto& th : threads) th.join();
  size_t seen = 0;
  for (const SpanEvent& ev : Tracer::Instance().RecentSpans()) {
    if (std::string_view(ev.name) == "test.concurrent_span") ++seen;
  }
  EXPECT_EQ(seen, static_cast<size_t>(kThreads) * kSpansPerThread);
}

TEST(JsonExportTest, EscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonExportTest, SnapshotRoundTripsThroughJson) {
  GetCounter("test.json_counter")->Reset();
  GetCounter("test.json_counter")->Add(123456789);
  GetGauge("test.json_gauge")->Set(-42);
  Histogram* h = GetHistogram("test.json_hist");
  h->Reset();
  for (int i = 1; i <= 100; ++i) h->Record(i);

  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  std::string json = SnapshotToJson(snap);  // keep alive: parser holds a view
  JsonParser parser(json);
  JsonValue root = parser.Parse();
  ASSERT_FALSE(parser.failed());

  EXPECT_EQ(root.at("counters").at("test.json_counter").number, 123456789.0);
  EXPECT_EQ(root.at("gauges").at("test.json_gauge").number, -42.0);
  const JsonValue& hist = root.at("histograms").at("test.json_hist");
  ASSERT_EQ(hist.kind, JsonValue::kObject);
  EXPECT_EQ(hist.at("count").number, 100.0);
  EXPECT_EQ(hist.at("sum").number, 5050.0);
  EXPECT_EQ(hist.at("min").number, 1.0);
  EXPECT_EQ(hist.at("max").number, 100.0);
  EXPECT_NEAR(hist.at("mean").number, 50.5, 0.01);
  EXPECT_GT(hist.at("p99").number, hist.at("p50").number);

  // Every registered instrument must appear.
  for (const auto& [name, value] : snap.counters) {
    EXPECT_TRUE(root.at("counters").has(name)) << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_TRUE(root.at("gauges").has(name)) << name;
  }
  for (const auto& [name, value] : snap.histograms) {
    EXPECT_TRUE(root.at("histograms").has(name)) << name;
  }
}

TEST(JsonExportTest, FullDumpIncludesSpans) {
  Tracer::Instance().Clear();
  {
    AETS_TRACE_SPAN("test.json_span");
  }
  std::string json = MetricsToJson();  // flushes the calling thread's spans
  JsonParser parser(json);
  JsonValue root = parser.Parse();
  ASSERT_FALSE(parser.failed());
  ASSERT_EQ(root.at("spans").kind, JsonValue::kArray);
  bool found = false;
  for (const JsonValue& span : root.at("spans").array) {
    if (span.at("name").str == "test.json_span") {
      found = true;
      EXPECT_GE(span.at("duration_ns").number, 0.0);
    }
  }
  EXPECT_TRUE(found);
  ASSERT_EQ(root.at("metrics").kind, JsonValue::kObject);
  EXPECT_TRUE(root.at("metrics").has("counters"));
}

TEST(JsonExportTest, WriteFileRoundTrip) {
  GetCounter("test.file_counter")->Add(7);
  std::string path = ::testing::TempDir() + "/aets_metrics_test.json";
  ASSERT_TRUE(WriteMetricsJsonFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  JsonParser parser(content);
  JsonValue root = parser.Parse();
  ASSERT_FALSE(parser.failed());
  EXPECT_TRUE(root.at("metrics").at("counters").has("test.file_counter"));
}

TEST(RegistryTest, ResetAllZeroesEverything) {
  GetCounter("test.reset_counter")->Add(5);
  GetGauge("test.reset_gauge")->Set(9);
  GetHistogram("test.reset_hist")->Record(11);
  MetricsRegistry::Instance().ResetAll();
  EXPECT_EQ(GetCounter("test.reset_counter")->value(), 0u);
  EXPECT_EQ(GetGauge("test.reset_gauge")->value(), 0);
  EXPECT_EQ(GetHistogram("test.reset_hist")->count(), 0);
}

// ---------------------------------------------------------------------------
// ExportedCounters: component-owned counters read in place

uint64_t SnapshotCounter(const std::string& name) {
  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(ExportedCountersTest, DestroyedOwnerFoldsIntoRetiredTotals) {
  const uint64_t base = SnapshotCounter("test.exported_fold");
  const uint64_t scoped_base = SnapshotCounter("test.exported_fold{s0}");
  {
    std::atomic<uint64_t> owned{0};
    ExportedCounters owner("s0", {{"test.exported_fold", &owned}});
    owned.store(5);
    EXPECT_EQ(SnapshotCounter("test.exported_fold"), base + 5);
    EXPECT_EQ(SnapshotCounter("test.exported_fold{s0}"), scoped_base + 5);
  }
  // The owner is gone; its final value stays in both series.
  EXPECT_EQ(SnapshotCounter("test.exported_fold"), base + 5);
  EXPECT_EQ(SnapshotCounter("test.exported_fold{s0}"), scoped_base + 5);
  {
    // A second, unscoped owner of the same name adds to the unscoped series
    // only.
    std::atomic<uint64_t> owned{3};
    ExportedCounters owner("", {{"test.exported_fold", &owned}});
    EXPECT_EQ(SnapshotCounter("test.exported_fold"), base + 8);
    EXPECT_EQ(SnapshotCounter("test.exported_fold{s0}"), scoped_base + 5);
  }
  EXPECT_EQ(SnapshotCounter("test.exported_fold"), base + 8);
}

TEST(ExportedCountersTest, ResetAllZeroesRetiredTotalsNotLiveOwners) {
  {
    std::atomic<uint64_t> owned{7};
    ExportedCounters owner("", {{"test.exported_reset", &owned}});
  }
  std::atomic<uint64_t> live{4};
  ExportedCounters owner("", {{"test.exported_reset_live", &live}});
  ASSERT_GE(SnapshotCounter("test.exported_reset"), 7u);
  MetricsRegistry::Instance().ResetAll();
  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  // The retired series is still listed, at zero; the live owner's counter
  // belongs to it and keeps its value.
  ASSERT_EQ(snap.counters.count("test.exported_reset"), 1u);
  EXPECT_EQ(snap.counters.at("test.exported_reset"), 0u);
  EXPECT_EQ(snap.counters.at("test.exported_reset_live"), 4u);
}

TEST(ExportedCountersDeathTest, NameIsRegistryOrComponentOwnedNeverBoth) {
  GetCounter("test.registry_owned")->Add(1);
  std::atomic<uint64_t> owned{0};
  EXPECT_DEATH(
      { ExportedCounters owner("", {{"test.registry_owned", &owned}}); },
      "registry-owned");
  ExportedCounters owner("lane0", {{"test.component_owned", &owned}});
  EXPECT_DEATH(GetCounter("test.component_owned"), "component-owned");
  EXPECT_DEATH(GetCounter("test.component_owned{lane0}"), "component-owned");
}

// Snapshot() racing owners being built and destroyed: every series stays
// monotone, and once all owners are gone the total is exact. Run under TSan
// in CI.
TEST(ExportedCountersTest, SnapshotRacesOwnerLifetimes) {
  constexpr int kThreads = 4;
  constexpr int kOwnersPerThread = 500;
  constexpr uint64_t kAddsPerOwner = 10;
  const std::string name = "test.exported_lifetime";
  const uint64_t base = SnapshotCounter(name);
  auto scoped = [&](int t) { return name + "{t" + std::to_string(t) + "}"; };
  std::vector<uint64_t> scoped_base;
  for (int t = 0; t < kThreads; ++t) {
    scoped_base.push_back(SnapshotCounter(scoped(t)));
  }
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOwnersPerThread; ++i) {
        std::atomic<uint64_t> owned{0};
        ExportedCounters owner("t" + std::to_string(t), {{name, &owned}});
        for (uint64_t k = 0; k < kAddsPerOwner; ++k) {
          owned.fetch_add(1, std::memory_order_relaxed);
        }
      }
      done.fetch_add(1);
    });
  }
  uint64_t last = base;
  while (done.load() < kThreads) {
    uint64_t now = SnapshotCounter(name);
    EXPECT_GE(now, last);
    last = now;
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(SnapshotCounter(name),
            base + kThreads * kOwnersPerThread * kAddsPerOwner);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(SnapshotCounter(scoped(t)),
              scoped_base[t] + kOwnersPerThread * kAddsPerOwner);
  }
}

}  // namespace
}  // namespace obs
}  // namespace aets
