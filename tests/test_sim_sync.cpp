// Unit tests for fiber synchronization primitives.
#include <gtest/gtest.h>

#include <vector>

#include "sim/sync.hpp"
#include "util/error.hpp"

namespace pgasq::sim {
namespace {

using namespace pgasq::literals;

TEST(WaitQueue, NotifyOneWakesFifo) {
  Engine engine;
  WaitQueue q(engine);
  std::vector<int> woke;
  for (int i = 0; i < 3; ++i) {
    engine.spawn("w" + std::to_string(i), [&, i] {
      q.wait();
      woke.push_back(i);
    });
  }
  engine.spawn("n", [&] {
    engine.sleep_for(10);
    EXPECT_EQ(q.waiting(), 3u);
    q.notify_one();
    engine.sleep_for(10);
    q.notify_all();
  });
  engine.run();
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
}

TEST(WaitQueue, WaitUntilTimesOut) {
  Engine engine;
  WaitQueue q(engine);
  bool notified = true;
  engine.spawn("w", [&] {
    notified = q.wait_until(100);
    EXPECT_EQ(engine.now(), 100);
  });
  engine.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(q.waiting(), 0u);
}

TEST(WaitQueue, WaitUntilNotifiedBeforeDeadline) {
  Engine engine;
  WaitQueue q(engine);
  bool notified = false;
  engine.spawn("w", [&] {
    notified = q.wait_until(1000);
    EXPECT_LT(engine.now(), 1000);
  });
  engine.spawn("n", [&] {
    engine.sleep_for(10);
    q.notify_one();
  });
  engine.run();
  EXPECT_TRUE(notified);
}

TEST(WaitQueue, WaitUntilNotifiedAtTheDeadlineInstant) {
  // The notifier's wake is queued before the waiter's timeout at the
  // same instant: the notify wins, then the timeout event fires and
  // finds the waiter already notified. The waiter must not cancel
  // that already-fired timer.
  Engine engine;
  WaitQueue q(engine);
  bool notified = false;
  Time woke = 0;
  engine.spawn("n", [&] {
    engine.sleep_for(100);
    q.notify_one();
  });
  engine.spawn("w", [&] {
    notified = q.wait_until(100);
    woke = engine.now();
  });
  engine.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(woke, 100);
  EXPECT_EQ(q.waiting(), 0u);
  EXPECT_EQ(engine.cancelled_pending(), 0u);
}

TEST(SimMutex, MutualExclusionAndStats) {
  Engine engine;
  SimMutex m(engine);
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 4; ++i) {
    engine.spawn("t" + std::to_string(i), [&] {
      for (int r = 0; r < 3; ++r) {
        m.lock();
        ++in_critical;
        max_in_critical = std::max(max_in_critical, in_critical);
        engine.sleep_for(10);  // hold across a blocking point
        --in_critical;
        m.unlock();
      }
    });
  }
  engine.run();
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_GT(m.contended_acquires(), 0u);
  EXPECT_GT(m.total_wait_time(), 0);
  EXPECT_FALSE(m.locked());
}

TEST(SimMutex, TryLock) {
  Engine engine;
  SimMutex m(engine);
  engine.spawn("a", [&] {
    EXPECT_TRUE(m.try_lock());
    EXPECT_TRUE(m.held_by_current());
    engine.sleep_for(100);
    m.unlock();
  });
  engine.spawn("b", [&] {
    engine.sleep_for(10);
    EXPECT_FALSE(m.try_lock());
    EXPECT_FALSE(m.held_by_current());
    engine.sleep_for(200);
    EXPECT_TRUE(m.try_lock());
    m.unlock();
  });
  engine.run();
}

TEST(SimMutex, RecursiveLockAndForeignUnlockRejected) {
  Engine engine;
  SimMutex m(engine);
  engine.spawn("a", [&] {
    m.lock();
    EXPECT_THROW(m.lock(), Error);
    m.unlock();
    EXPECT_THROW(m.unlock(), Error);  // not owner anymore
  });
  engine.run();
}

TEST(SimBarrier, ReleasesAllTogetherEachGeneration) {
  Engine engine;
  SimBarrier barrier(engine, 4);
  std::vector<Time> releases;
  for (int i = 0; i < 4; ++i) {
    engine.spawn("p" + std::to_string(i), [&, i] {
      for (int round = 0; round < 3; ++round) {
        engine.sleep_for((i + 1) * (round + 1) * 10);
        barrier.arrive_and_wait();
        releases.push_back(engine.now());
      }
    });
  }
  engine.run();
  ASSERT_EQ(releases.size(), 12u);
  // Within each round, all four release at the same virtual instant.
  for (int round = 0; round < 3; ++round) {
    for (int i = 1; i < 4; ++i) {
      EXPECT_EQ(releases[static_cast<std::size_t>(round * 4 + i)],
                releases[static_cast<std::size_t>(round * 4)]);
    }
  }
  EXPECT_EQ(barrier.generation(), 3u);
}

TEST(SimBarrier, SingleParticipantNeverBlocks) {
  Engine engine;
  SimBarrier barrier(engine, 1);
  engine.spawn("solo", [&] {
    barrier.arrive_and_wait();
    barrier.arrive_and_wait();
  });
  engine.run();
  EXPECT_EQ(barrier.generation(), 2u);
}

}  // namespace
}  // namespace pgasq::sim
