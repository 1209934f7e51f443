// Unit tests for the discrete-event engine and fibers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"

namespace pgasq::sim {
namespace {

using namespace pgasq::literals;

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
  EXPECT_EQ(engine.events_processed(), 3u);
}

TEST(Engine, SameTimeEventsFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, RejectsPastEventsAndNegativeDelay) {
  Engine engine;
  engine.schedule_at(10, [&] {
    EXPECT_THROW(engine.schedule_at(5, [] {}), Error);
    EXPECT_THROW(engine.schedule_after(-1, [] {}), Error);
  });
  engine.run();
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(kInvalidEvent));
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, NestedScheduling) {
  Engine engine;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) engine.schedule_after(1, recur);
  };
  engine.schedule_at(0, recur);
  engine.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(engine.now(), 4);
}

TEST(Fiber, SleepAdvancesVirtualTime) {
  Engine engine;
  Time woke = -1;
  engine.spawn("sleeper", [&] {
    engine.sleep_for(5_us);
    woke = engine.now();
    engine.sleep_until(20_us);
    EXPECT_EQ(engine.now(), 20_us);
  });
  engine.run();
  EXPECT_EQ(woke, 5_us);
  EXPECT_EQ(engine.live_fibers(), 0u);
}

TEST(Fiber, SuspendResumeHandshake) {
  Engine engine;
  Fiber* worker = nullptr;
  std::vector<std::string> log;
  worker = &engine.spawn("worker", [&] {
    log.push_back("w:start");
    engine.suspend();
    log.push_back("w:resumed@" + std::to_string(engine.now()));
  });
  engine.spawn("controller", [&] {
    engine.sleep_for(100);
    log.push_back("c:resume");
    engine.resume(*worker, 50);
  });
  engine.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "w:start");
  EXPECT_EQ(log[1], "c:resume");
  EXPECT_EQ(log[2], "w:resumed@150");
}

TEST(Fiber, ManyFibersInterleaveDeterministically) {
  // Two identical runs must produce identical traces.
  auto run_once = [] {
    Engine engine;
    std::vector<int> trace;
    for (int f = 0; f < 8; ++f) {
      engine.spawn("f" + std::to_string(f), [&trace, &engine, f] {
        for (int i = 0; i < 5; ++i) {
          engine.sleep_for((f + 1) * 10);
          trace.push_back(f * 100 + i);
        }
      });
    }
    engine.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Fiber, ExceptionPropagatesToRun) {
  Engine engine;
  engine.spawn("thrower", [] { throw Error("boom from fiber"); });
  try {
    engine.run();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(Fiber, DeadlockDetected) {
  Engine engine;
  engine.spawn("stuck", [&] { engine.suspend(); });
  try {
    engine.run();
    FAIL() << "expected deadlock error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("stuck"), std::string::npos);
  }
}

TEST(Fiber, YieldLetsSameTimeEventsRun) {
  Engine engine;
  std::vector<int> order;
  engine.spawn("y", [&] {
    engine.schedule_after(0, [&] { order.push_back(1); });
    engine.yield();
    order.push_back(2);
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Fiber, DoubleResumeRejected) {
  Engine engine;
  Fiber* w = nullptr;
  w = &engine.spawn("w", [&] { engine.suspend(); });
  engine.spawn("c", [&] {
    engine.sleep_for(1);
    engine.resume(*w);
    EXPECT_THROW(engine.resume(*w), Error);  // already ready
  });
  engine.run();
}

TEST(Fiber, SleepOutsideFiberRejected) {
  Engine engine;
  EXPECT_THROW(engine.sleep_for(1), Error);
  EXPECT_THROW(engine.suspend(), Error);
}

TEST(Fiber, StackTooSmallRejected) {
  Engine engine;
  EXPECT_THROW(engine.spawn("tiny", [] {}, 1024), Error);
}

TEST(Fiber, CurrentTracksRunningFiber) {
  Engine engine;
  EXPECT_EQ(engine.current(), nullptr);
  engine.spawn("me", [&] {
    ASSERT_NE(engine.current(), nullptr);
    EXPECT_EQ(engine.current()->name(), "me");
  });
  engine.run();
  EXPECT_EQ(engine.current(), nullptr);
}

// Two fibers hand a turn back and forth over WaitQueues: every slice
// but the first is entered straight from the other fiber's stack.
TEST(Engine, PingPongMakesOneStackSwitchPerFiberSwitch) {
  constexpr int kRounds = 100;
  Engine engine;
  WaitQueue qa(engine);
  WaitQueue qb(engine);
  bool a_turn = true;
  engine.spawn("a", [&] {
    for (int i = 0; i < kRounds; ++i) {
      while (!a_turn) qa.wait();
      a_turn = false;
      qb.notify_one();
    }
  });
  engine.spawn("b", [&] {
    for (int i = 0; i < kRounds; ++i) {
      while (a_turn) qb.wait();
      a_turn = true;
      qa.notify_one();
    }
  });
  engine.run();
  // One slice per round per fiber, each switched in by its own event.
  // A loop that bounces through run()'s stack makes twice as many
  // stack switches; here only the first entry and each fiber's exit
  // touch it.
  EXPECT_EQ(engine.fiber_switches(), 2u * kRounds);
  EXPECT_EQ(engine.events_processed(), 2u * kRounds);
  EXPECT_LE(engine.stack_switches(), engine.fiber_switches() + 2);
}

TEST(Engine, SelfWakeCostsNoStackSwitch) {
  Engine engine;
  int callbacks = 0;
  bool callback_saw_fiber = false;
  engine.spawn("solo", [&] {
    for (int i = 0; i < 100; ++i) {
      // Runs on this fiber's stack while it sleeps.
      engine.schedule_after(0, [&] {
        callback_saw_fiber |= engine.current() != nullptr;
        ++callbacks;
      });
      engine.sleep_for(1);
    }
  });
  engine.run();
  EXPECT_EQ(callbacks, 100);
  EXPECT_FALSE(callback_saw_fiber);
  EXPECT_EQ(engine.now(), 100);
  EXPECT_EQ(engine.fiber_switches(), 101u);
  EXPECT_EQ(engine.stack_switches(), 2u);  // into the fiber and back out
}

// A finished fiber's frames may still be referenced, so the loop goes
// on from run()'s stack: one extra stack switch per finished fiber.
TEST(Engine, FinishedFiberLeavesThroughRunStack) {
  Engine engine;
  std::vector<std::string> log;
  engine.spawn("sleeper", [&] {
    engine.sleep_for(10);
    log.push_back("sleeper@" + std::to_string(engine.now()));
  });
  engine.spawn("quick", [&] { log.push_back("quick@" + std::to_string(engine.now())); });
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"quick@0", "sleeper@10"}));
  EXPECT_EQ(engine.fiber_switches(), 3u);
  // run() -> sleeper -> quick -> (finished) run() -> sleeper -> run().
  EXPECT_EQ(engine.stack_switches(), 5u);
}

TEST(Engine, QueueDrainsOnFiberStackThenRunResumesIt) {
  Engine engine;
  std::vector<std::string> log;
  Fiber* first = nullptr;
  first = &engine.spawn("first", [&] {
    engine.suspend();
    log.push_back("first@" + std::to_string(engine.now()));
  });
  // Blocks last, so the queue drains on this fiber's stack.
  Fiber& last = engine.spawn("last", [&] {
    engine.suspend();
    log.push_back("last@" + std::to_string(engine.now()));
    engine.sleep_for(3);
    engine.resume(*first);
  });
  try {
    engine.run();
    FAIL() << "expected deadlock error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock: 2 fiber(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("first, last"), std::string::npos) << what;
  }
  EXPECT_EQ(engine.stack_switches(), 3u);
  engine.schedule_at(engine.now() + 7, [&] { engine.resume(last); });
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"last@7", "first@10"}));
  EXPECT_EQ(engine.live_fibers(), 0u);
  // run() -> last -> (finished) run() -> first -> run().
  EXPECT_EQ(engine.stack_switches(), 7u);
}

TEST(Engine, CallbackExceptionPropagatesAndEngineRunsAgain) {
  Engine engine;
  // On run()'s own stack.
  engine.schedule_at(1, [] { throw Error("boom from callback 1"); });
  EXPECT_THROW(engine.run(), Error);
  engine.run();
  // While the loop runs on the stack of a fiber blocked inside a try.
  bool caught_in_fiber = false;
  Time woke = -1;
  engine.spawn("host", [&] {
    try {
      engine.sleep_for(10);
    } catch (...) {
      caught_in_fiber = true;
    }
    woke = engine.now();
  });
  engine.schedule_after(5, [] { throw Error("boom from callback 2"); });
  try {
    engine.run();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom from callback 2"), std::string::npos);
  }
  EXPECT_FALSE(caught_in_fiber);
  EXPECT_EQ(engine.now(), 6);
  engine.run();
  EXPECT_FALSE(caught_in_fiber);
  EXPECT_EQ(woke, 11);
  EXPECT_EQ(engine.live_fibers(), 0u);
}

TEST(Engine, WakeOfFinishedFiberFailsFromRun) {
  Engine engine;
  Fiber* f = nullptr;
  f = &engine.spawn("f", [&] { engine.sleep_for(10); });
  // Accepted while f sleeps; f's own wake runs it to the end first.
  engine.schedule_at(5, [&] { engine.resume(*f, 100); });
  try {
    engine.run();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("switch to fiber 'f' in state 3"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine.now(), 105);
  EXPECT_EQ(f->state(), Fiber::State::kFinished);
}

// One waiter polls a flag with an 80 ns + 200 ns idle loop, either on
// its own fiber (sleep_for twice per pass) or replayed by the engine.
// Other fibers and events land flag writes and their own wakes on the
// loop's instants, so any change to a wake's instant or FIFO position
// reorders the log.
struct IdleScenario {
  std::vector<std::pair<Time, std::string>> log;
  std::uint64_t events = 0;
  Time resumed = -1;
};

IdleScenario run_idle_scenario(bool replay) {
  Engine engine;
  IdleScenario out;
  int flag = 0;
  bool urgent = false;
  auto note = [&](const char* who) { out.log.emplace_back(engine.now(), who); };
  // The two steps of a pass; true when the step has nothing to do.
  auto step0 = [&] {
    note("w0");
    return !urgent;
  };
  auto step1 = [&] {
    note("w1");
    return flag < 3;
  };
  auto serve_urgent = [&] {
    urgent = false;
    note("w urgent");
  };
  engine.spawn("waiter", [&] {
    if (replay) {
      const std::function<bool(int)> idle = [&](int phase) {
        return phase == 0 ? step0() : step1();
      };
      while (engine.replay_idle_loop(80_ns, 200_ns, idle) == 0) {
        serve_urgent();
        engine.sleep_for(200_ns);
        if (!step1()) break;
      }
    } else {
      do {
        engine.sleep_for(80_ns);
        if (!step0()) serve_urgent();
        engine.sleep_for(200_ns);
      } while (step1());
    }
    out.resumed = engine.now();
  });
  // Wakes on the first pass's phase-0 and phase-1 instants.
  engine.spawn("a", [&] {
    engine.sleep_until(80_ns);
    note("a");
    engine.sleep_until(280_ns);
    note("a");
  });
  // Written from inside the 80 ns window, landing on the next check:
  // ahead of the check only if the check's wake is scheduled at the
  // phase-0 wake, not before it.
  engine.schedule_at(300_ns, [&] {
    engine.schedule_at(560_ns, [&] {
      ++flag;
      note("x1");
    });
  });
  // Written from inside the 200 ns window, landing exactly on the same
  // check instant: queued behind the check, seen one pass later.
  engine.schedule_at(400_ns, [&] {
    engine.schedule_at(560_ns, [&] {
      ++flag;
      note("x2");
    });
  });
  // Makes the waiter resume in the first phase (at 640 ns).
  engine.schedule_at(600_ns, [&] { urgent = true; });
  // A fiber whose wake was queued at t=0 lands the last write on the
  // check instant 1120 ns, ahead of the check.
  engine.spawn("c", [&] {
    engine.sleep_until(1120_ns);
    ++flag;
    note("c");
  });
  engine.run();
  out.events = engine.events_processed();
  return out;
}

TEST(Engine, IdleReplayMatchesSleepLoop) {
  const IdleScenario loop = run_idle_scenario(false);
  const IdleScenario replayed = run_idle_scenario(true);
  EXPECT_EQ(replayed.log, loop.log);
  EXPECT_EQ(replayed.events, loop.events);
  EXPECT_EQ(replayed.resumed, loop.resumed);
  // The scenario does what it claims: both 560 ns writes precede a
  // check, in different passes, and the phase-0 resume happened.
  EXPECT_EQ(loop.resumed, 1120_ns);
  const std::vector<std::pair<Time, std::string>> at560 = {
      {560_ns, "x1"}, {560_ns, "w1"}, {560_ns, "x2"}};
  EXPECT_NE(std::search(loop.log.begin(), loop.log.end(), at560.begin(), at560.end()),
            loop.log.end());
  const std::pair<Time, std::string> urgent{640_ns, "w urgent"};
  EXPECT_NE(std::find(loop.log.begin(), loop.log.end(), urgent), loop.log.end());
}

}  // namespace
}  // namespace pgasq::sim
