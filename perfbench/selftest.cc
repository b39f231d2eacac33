// Unit checks of the benchmark's own arithmetic on synthetic traces: the
// percentile and tail-count rules, the commit-to-visible lag matcher, span
// self time, and the RSS slope. Exit code 0 when every check holds.
//
//   .bench_build/cmake/htap_bench_selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  Expect(Near(Percentile(v, 0), 1), "p0 is the minimum");
  Expect(Near(Percentile(v, 100), 100), "p100 is the maximum");
  Expect(Near(Percentile(v, 50), 50.5), "p50 interpolates between ranks");
  Expect(Near(Percentile(v, 99), 99.01), "p99 of 1..100");
  Expect(TailCount(v, 99) == 1, "one sample beyond p99 of 100");
  std::vector<double> big;
  for (int i = 0; i < 1000; ++i) big.push_back(i);
  Expect(TailCount(big, 99) == 10, "1000 samples leave ten beyond p99");
  Expect(std::isnan(Percentile({}, 50)), "empty sample has no percentile");
  Expect(Near(Median({3, 1, 2}), 2), "median of three");
}

void TestWindowedPercentile() {
  Series s;
  // Three windows of 100 samples in time order (added out of order): the
  // first and last hold 1..100, the middle one 1..99 plus a stall of 1e5.
  for (int i = 1; i <= 100; ++i) s.Add(200 + i, i == 100 ? 100000 : i);
  for (int i = 1; i <= 100; ++i) s.Add(i, i);
  for (int i = 1; i <= 100; ++i) s.Add(400 + i, i);
  Expect(s.size() == 300, "every sample kept");
  // Per-window medians are all 50.5.
  Expect(Near(s.WindowedPercentile(50, 100), 50.5), "median of window medians");
  // Per-window maxima 100, 1e5, 100: the stall moves one window only.
  Expect(Near(s.WindowedPercentile(100, 100), 100), "a stall moves one window");
  // Too few samples for two windows: one window over everything.
  Expect(Near(s.WindowedPercentile(100, 1000), 100000), "one window");
  Expect(Near(s.WindowedPercentile(50, 10, 3), 50.5), "window count capped");
  Expect(std::isnan(Series().WindowedPercentile(50, 10)), "empty series");
}

void TestLagMatcher() {
  // Commits at ts 10, 20, 30, 40 returning at 1000, 2000, 3000, 4000 ns.
  CommitLog log(8);
  for (int i = 1; i <= 4; ++i) log.Append(10u * i, 1000 * i);
  LagMatcher m;
  std::vector<double> lags;
  // Poll at 2500 ns sees watermark 15: only the first commit is visible.
  Expect(m.Advance(log, log.size(), 15, 2500, &lags) == 1, "one commit covered");
  Expect(lags.size() == 1 && Near(lags[0], 1.5), "lag 1.5 us");
  // A watermark that goes nowhere matches nothing new.
  Expect(m.Advance(log, log.size(), 15, 2600, &lags) == 0, "no progress");
  // Poll at 9000 ns sees watermark 40, but the size read before the
  // watermark only covers three commits: the fourth waits for a later poll.
  Expect(m.Advance(log, 3, 40, 9000, &lags) == 2, "bounded by the size read");
  Expect(Near(lags[1], 7.0) && Near(lags[2], 6.0), "lags 7 and 6 us");
  Expect(m.Advance(log, 4, 40, 9500, &lags) == 1, "fourth commit matched");
  Expect(Near(lags[3], 5.5), "lag 5.5 us");
  Expect(m.cursor() == 4, "cursor at the end");
}

void TestSelfTime() {
  // txn [0, 100) holding sink [10, 30) and seal [50, 90); a later txn
  // [200, 260) holding sink [210, 215); an unrelated span [300, 310).
  std::vector<Span> spans = {
      {50, 90, 2, 0, SpanKind::kSeal},  {0, 100, 1, 0, SpanKind::kTxn},
      {10, 30, 1, 0, SpanKind::kSink},  {200, 260, 3, 0, SpanKind::kTxn},
      {210, 215, 3, 0, SpanKind::kSink}, {300, 310, 4, 0, SpanKind::kExec},
  };
  std::vector<int64_t> self = SelfTimesNs(&spans);
  // Sorted: [0,100) [10,30) [50,90) [200,260) [210,215) [300,310)
  Expect(self[0] == 40, "txn self = 100 - 20 - 40");
  Expect(self[1] == 20 && self[2] == 40, "leaf spans keep their duration");
  Expect(self[3] == 55, "second txn self = 60 - 5");
  Expect(self[4] == 5 && self[5] == 10, "unnested spans keep their duration");
}

void TestSlope() {
  std::vector<double> x = {0, 1000, 2000, 3000};
  std::vector<double> y = {500, 1500, 2500, 3500};
  Expect(Near(Slope(x, y), 1.0), "slope of a line");
  Expect(Slope({1}, {1}) == 0, "one point has no slope");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestWindowedPercentile();
  perfbench::TestLagMatcher();
  perfbench::TestSelfTime();
  perfbench::TestSlope();
  if (perfbench::failures == 0) std::printf("selftest: all checks passed\n");
  return perfbench::failures == 0 ? 0 : 1;
}
