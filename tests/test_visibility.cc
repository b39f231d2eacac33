// Visibility-rule (paper Algorithm 3) unit tests against a controllable
// fake replayer: the min-over-groups rule, the global-watermark fallback,
// blocking/unblocking behavior, no lost wake-ups on the watermark bell under
// a racing publisher, and a parked waiter's CPU use.

#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "aets/common/rng.h"
#include "aets/obs/metrics.h"
#include "aets/replay/replayer.h"
#include "fake_replayer.h"
#include "test_seed.h"

namespace aets {
namespace {

using test::FakeReplayer;

TEST(VisibilityRuleTest, MinOverAccessedGroups) {
  FakeReplayer r(3);
  r.SetTable(0, 100);
  r.SetTable(1, 50);
  r.SetTable(2, 200);
  // Visible iff min(tg_cmt_ts over accessed tables) >= qts.
  EXPECT_TRUE(IsVisible(r, {0}, 100));
  EXPECT_FALSE(IsVisible(r, {0}, 101));
  EXPECT_TRUE(IsVisible(r, {0, 2}, 100));
  EXPECT_FALSE(IsVisible(r, {0, 1}, 100));  // table 1 lags
  EXPECT_TRUE(IsVisible(r, {0, 1, 2}, 50));
}

TEST(VisibilityRuleTest, GlobalWatermarkFallback) {
  // A group that received no logs keeps a low tg_cmt_ts; the global
  // watermark unblocks queries on it (paper Section V-B).
  FakeReplayer r(2);
  r.SetTable(0, 10);
  r.SetTable(1, 0);  // never updated
  EXPECT_FALSE(IsVisible(r, {1}, 5));
  r.SetGlobal(5);
  EXPECT_TRUE(IsVisible(r, {1}, 5));
  EXPECT_TRUE(IsVisible(r, {0, 1}, 5));
  EXPECT_FALSE(IsVisible(r, {1}, 6));
}

TEST(VisibilityRuleTest, EmptyTableListIsVacuouslyVisible) {
  // A query touching no replicated tables has nothing to wait for: the min
  // over an empty set of groups imposes no constraint.
  FakeReplayer r(1);
  EXPECT_TRUE(IsVisible(r, {}, 1));
  EXPECT_EQ(WaitVisible(r, {}, 1000), 0);
}

TEST(VisibilityRuleTest, WaitVisibleReturnsZeroWhenAlreadyVisible) {
  FakeReplayer r(1);
  r.SetTable(0, 10);
  EXPECT_EQ(WaitVisible(r, {0}, 10), 0);
}

TEST(VisibilityRuleTest, WaitVisibleBlocksUntilPublished) {
  FakeReplayer r(2);
  r.SetTable(0, 1);
  // Scheduling-independent blocking check: WaitVisible may only return after
  // the publisher flipped `published` (asserting a wall-clock lower bound on
  // `waited` would flake whenever this thread gets descheduled first).
  std::atomic<bool> published{false};
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    published.store(true, std::memory_order_release);
    r.SetTable(0, 100);
  });
  int64_t waited = WaitVisible(r, {0}, 100);
  EXPECT_TRUE(published.load(std::memory_order_acquire));
  publisher.join();
  EXPECT_GE(waited, 0);
  EXPECT_TRUE(IsVisible(r, {0}, 100));
}

TEST(VisibilityRuleTest, WaitVisibleUnblocksViaGlobal) {
  FakeReplayer r(1);
  std::atomic<bool> published{false};
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    published.store(true, std::memory_order_release);
    r.SetGlobal(77);  // heartbeat-style bump, table ts never moves
  });
  int64_t waited = WaitVisible(r, {0}, 77);
  EXPECT_TRUE(published.load(std::memory_order_acquire));
  publisher.join();
  EXPECT_GE(waited, 0);
}

TEST(VisibilityRuleTest, ConcurrentWaiters) {
  FakeReplayer r(3);
  std::atomic<int> done{0};
  std::vector<std::thread> waiters;
  for (TableId t = 0; t < 3; ++t) {
    waiters.emplace_back([&, t] {
      WaitVisible(r, {t}, 50);
      done.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(done.load(), 0);
  r.SetTable(0, 50);
  r.SetTable(1, 50);
  r.SetTable(2, 50);
  for (auto& w : waiters) w.join();
  EXPECT_EQ(done.load(), 3);
}

TEST(VisibilityRuleTest, NoLostWakeupUnderRacingPublisher) {
  // Rounds of racing waiters against one publisher. In round r every waiter
  // makes a few WaitVisible calls at random qts in (T(r-1), T(r)] over
  // random table sets, while the publisher walks the table and global
  // watermarks up to T(r) in random steps and random order, ringing after
  // each store. Then the publisher goes silent: a waiter that missed its
  // wake-up stays parked with no later ring to rescue it, so the round's
  // deadline catches it.
  constexpr int kWaiters = 8;
  constexpr int kRounds = 600;
  constexpr int kCallsPerRound = 4;
  constexpr TableId kTables = 4;
  constexpr Timestamp kRoundSpan = 40;
  FakeReplayer r(kTables);
  obs::Counter* blocked = obs::GetCounter("visibility.blocked_queries");
  const uint64_t blocked_before = blocked->value();
  std::atomic<int> round{0};
  std::atomic<int> entered{0};
  std::atomic<int> finished{0};
  std::atomic<int> not_visible{0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      Rng rng(test::DeriveSeed(100 + static_cast<uint64_t>(w)));
      for (int rd = 1; rd <= kRounds; ++rd) {
        while (round.load(std::memory_order_acquire) < rd) {
          std::this_thread::yield();
        }
        entered.fetch_add(1, std::memory_order_acq_rel);
        Timestamp lo = static_cast<Timestamp>(rd - 1) * kRoundSpan;
        for (int c = 0; c < kCallsPerRound; ++c) {
          std::vector<TableId> tables;
          for (TableId t = 0; t < kTables; ++t) {
            if (rng.UniformInt(0, 1) == 1) tables.push_back(t);
          }
          if (tables.empty()) tables.push_back(0);
          Timestamp qts = lo + static_cast<Timestamp>(
                                   rng.UniformInt(1, kRoundSpan));
          WaitVisible(r, tables, qts);
          if (!IsVisible(r, tables, qts)) not_visible.fetch_add(1);
        }
        finished.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  Rng rng(test::DeriveSeed(99));
  std::vector<Timestamp> table_ts(kTables, 0);
  Timestamp global = 0;
  int stuck_round = 0;
  for (int rd = 1; rd <= kRounds && stuck_round == 0; ++rd) {
    Timestamp target = static_cast<Timestamp>(rd) * kRoundSpan;
    round.store(rd, std::memory_order_release);
    while (entered.load(std::memory_order_acquire) < rd * kWaiters) {
      std::this_thread::yield();
    }
    // Random steps that stop short of the target, tables and global in
    // either order, yielding between them so waiters park mid-round.
    for (int step = 0; step < 6; ++step) {
      std::this_thread::yield();
      TableId t = static_cast<TableId>(rng.UniformInt(0, kTables - 1));
      table_ts[t] = std::min<Timestamp>(
          target - 1, table_ts[t] + static_cast<Timestamp>(
                                       rng.UniformInt(1, kRoundSpan / 4)));
      Timestamp g = *std::min_element(table_ts.begin(), table_ts.end());
      global = std::max(global, g);
      if (rng.UniformInt(0, 1) == 1) {
        r.SetTable(t, table_ts[t]);
        r.SetGlobal(global);
      } else {
        r.SetGlobal(global);
        r.SetTable(t, table_ts[t]);
      }
    }
    // Close the round through either path: every table reaches the target
    // (global lagging), or the global watermark alone does.
    if (rng.UniformInt(0, 1) == 1) {
      for (TableId t = 0; t < kTables; ++t) {
        table_ts[t] = target;
        r.SetTable(t, target);
      }
    } else {
      global = target;
      r.SetGlobal(target);
    }
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (finished.load(std::memory_order_acquire) < rd * kWaiters) {
      if (std::chrono::steady_clock::now() > deadline) {
        stuck_round = rd;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  if (stuck_round != 0) {
    // Release every parked waiter (and the rounds they never reach) so the
    // threads can be joined and the failure reported.
    round.store(kRounds, std::memory_order_release);
    r.SetGlobal(static_cast<Timestamp>(kRounds + 1) * kRoundSpan);
  }
  for (auto& w : waiters) w.join();
  EXPECT_EQ(stuck_round, 0) << "a waiter slept through its last wake-up";
  EXPECT_EQ(not_visible.load(), 0);
  EXPECT_EQ(finished.load(), kRounds * kWaiters);
  // The race is real: a share of the calls found their snapshot unpublished
  // and went through the park path.
  EXPECT_GT(blocked->value() - blocked_before, 0u);
}

int64_t ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1'000;
}

TEST(VisibilityRuleTest, BlockedWaiterDoesNotBurnCpu) {
  // A query blocked ~100 ms on an unpublished watermark parks on the bell
  // instead of polling: its thread CPU time stays far below the wall time.
  FakeReplayer r(1);
  std::atomic<int64_t> cpu_us{-1};
  std::atomic<int64_t> waited_us{-1};
  std::thread waiter([&] {
    int64_t before = ThreadCpuMicros();
    waited_us.store(WaitVisible(r, {0}, 100));
    cpu_us.store(ThreadCpuMicros() - before);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  r.SetTable(0, 100);
  waiter.join();
  EXPECT_LT(cpu_us.load(), 2'000) << "waited " << waited_us.load() << " us";
}

}  // namespace
}  // namespace aets
