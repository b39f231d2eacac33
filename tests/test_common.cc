// Unit tests for the common substrate: Status/Result, clocks, RNG, latches,
// queues, thread pool, and histograms.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "aets/common/clock.h"
#include "aets/common/histogram.h"
#include "aets/common/queue.h"
#include "aets/common/result.h"
#include "aets/common/rng.h"
#include "aets/common/spin_latch.h"
#include "aets/common/status.h"
#include "aets/common/thread_pool.h"

namespace aets {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing row");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing row");
  EXPECT_EQ(st.ToString(), "NotFound: missing row");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status st = Status::Corruption("bad crc");
  Status copy = st;
  EXPECT_TRUE(copy.IsCorruption());
  EXPECT_TRUE(st.IsCorruption());
  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsCorruption());
  moved = copy;
  EXPECT_EQ(moved.message(), "bad crc");
}

TEST(StatusTest, AllCodesRoundTripNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kAborted), "Aborted");
  EXPECT_EQ(StatusCodeToString(StatusCode::kTimedOut), "TimedOut");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotSupported), "NotSupported");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

TEST(LogicalClockTest, StrictlyIncreasing) {
  LogicalClock clock;
  Timestamp a = clock.Tick();
  Timestamp b = clock.Tick();
  EXPECT_LT(a, b);
  EXPECT_EQ(clock.Now(), b);
}

TEST(LogicalClockTest, AdvanceTo) {
  LogicalClock clock;
  clock.AdvanceTo(100);
  EXPECT_GT(clock.Tick(), 100u);
  clock.AdvanceTo(50);  // never goes backwards
  EXPECT_GT(clock.Tick(), 100u);
}

TEST(LogicalClockTest, ConcurrentTicksAreUnique) {
  LogicalClock clock;
  constexpr int kThreads = 4, kPerThread = 2000;
  std::vector<std::vector<Timestamp>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) seen[t].push_back(clock.Tick());
    });
  }
  for (auto& th : threads) th.join();
  std::set<Timestamp> all;
  for (const auto& v : seen) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
  EXPECT_EQ(rng.UniformInt(9, 9), 9);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(4);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0, sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double v = rng.Gaussian(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / kN;
  double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, NuRandWithinBounds) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NuRand(1023, 1, 3000);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3000);
  }
}

TEST(RngTest, AlphaStringLengths) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    std::string s = rng.AlphaString(4, 9);
    EXPECT_GE(s.size(), 4u);
    EXPECT_LE(s.size(), 9u);
  }
}

TEST(ZipfianTest, BoundsAndSkew) {
  ZipfianGenerator zipf(1000, 0.99, 1);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank 0 should dominate the tail decisively under theta=0.99.
  EXPECT_GT(counts[0], counts[500] * 5);
}

TEST(SpinLatchTest, MutualExclusion) {
  SpinLatch latch;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        SpinGuard guard(latch);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 40000);
}

TEST(SpinLatchTest, TryLock) {
  SpinLatch latch;
  EXPECT_TRUE(latch.TryLock());
  EXPECT_FALSE(latch.TryLock());
  latch.Unlock();
  EXPECT_TRUE(latch.TryLock());
  latch.Unlock();
}

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.Pop().value(), i);
}

TEST(BlockingQueueTest, CloseDrainsRemaining) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, BoundedCapacityBlocksTryPush) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BlockingQueueTest, ProducerConsumer) {
  BlockingQueue<int> q(8);
  constexpr int kItems = 5000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) q.Push(i);
    q.Close();
  });
  int64_t sum = 0, count = 0;
  while (auto v = q.Pop()) {
    sum += *v;
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, kItems);
  EXPECT_EQ(sum, static_cast<int64_t>(kItems) * (kItems - 1) / 2);
}

TEST(BlockingQueueTest, PopUntilWaitsOutDeadlineEvenWhenClosed) {
  using Clock = std::chrono::steady_clock;
  BlockingQueue<int> q;
  // A past deadline is a non-blocking pop.
  EXPECT_FALSE(q.PopUntil(Clock::now()).has_value());
  q.Push(7);
  EXPECT_EQ(q.PopUntil(Clock::now()).value(), 7);
  // An element pushed mid-wait ends the wait early.
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.Push(8);
  });
  EXPECT_EQ(q.PopUntil(Clock::now() + std::chrono::seconds(30)).value(), 8);
  producer.join();
  // Close does not cut the wait short: the call pauses until its deadline.
  q.Close();
  auto start = Clock::now();
  EXPECT_FALSE(q.PopUntil(start + std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(20));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleWithNoTasks) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) pool.Submit([&] { counter.fetch_add(1); });
    pool.WaitIdle();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejectedNoOp) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool.Submit([&] { counter.fetch_add(1); });
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 10);  // accepted tasks drained before stopping
  EXPECT_FALSE(pool.Submit([&] { counter.fetch_add(1); }));
  pool.Shutdown();  // idempotent
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, SubmitShutdownRaceNeverLosesAcceptedTasks) {
  // TSan-exercised: producers hammer Submit while another thread shuts the
  // pool down. Every accepted task must run exactly once; every rejected
  // task must never run. accepted == executed is the whole invariant.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3);
    std::atomic<int> accepted{0};
    std::atomic<int> executed{0};
    std::vector<std::thread> producers;
    producers.reserve(4);
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          if (pool.Submit([&] { executed.fetch_add(1); })) {
            accepted.fetch_add(1);
          }
        }
      });
    }
    std::thread killer([&] { pool.Shutdown(); });
    for (auto& t : producers) t.join();
    killer.join();
    pool.Shutdown();
    EXPECT_EQ(accepted.load(), executed.load());
  }
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.Min(), 1);
  EXPECT_EQ(h.Max(), 100);
  EXPECT_NEAR(h.Mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.Percentile(50), 50, 15);  // bucketed approximation
  EXPECT_GE(h.Percentile(99), h.Percentile(50));
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_EQ(a.Min(), 10);
  EXPECT_EQ(a.Max(), 1000);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, ZeroAndNegativeValuesLandInFirstBucket) {
  Histogram h;
  h.Record(0);
  h.Record(-5);
  EXPECT_EQ(h.count(), 2);
  EXPECT_LE(h.Percentile(50), 1.0);
}

}  // namespace
}  // namespace aets
