#include "aets/replay/replayer.h"

#include <limits>

#include "aets/obs/metrics.h"

namespace aets {

bool IsVisible(const Replayer& replayer, const std::vector<TableId>& tables,
               Timestamp qts) {
  if (replayer.GlobalVisibleTs() >= qts) return true;
  Timestamp min_tg = std::numeric_limits<Timestamp>::max();
  for (TableId t : tables) {
    min_tg = std::min(min_tg, replayer.TableVisibleTs(t));
  }
  return min_tg >= qts;
}

int64_t WaitVisible(const Replayer& replayer, const std::vector<TableId>& tables,
                    Timestamp qts) {
  static obs::Counter* queries = obs::GetCounter("visibility.queries");
  static obs::Counter* blocked = obs::GetCounter("visibility.blocked_queries");
  static Histogram* wait_us = obs::GetHistogram("visibility.wait_us");
  queries->Add(1);
  int64_t start = MonotonicMicros();
  if (IsVisible(replayer, tables, qts)) {
    wait_us->Record(0);
    return 0;
  }
  blocked->Add(1);
  // Wait until the replaying of the required log entries is completed
  // (Algorithm 3 line 9): park until the replayer rings after a watermark
  // advance, then re-check.
  replayer.bell().WaitUntil([&] { return IsVisible(replayer, tables, qts); });
  int64_t waited = MonotonicMicros() - start;
  wait_us->Record(waited);
  return waited;
}

}  // namespace aets
