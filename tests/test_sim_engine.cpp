// Unit tests for the discrete-event engine and fibers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/timeline.hpp"
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

// A seeded program of closure events (heavy same-time ties, zero
// delays, nested scheduling, cancels) beside three stepped poll loops,
// run on the engine and on a reference std::priority_queue keyed on
// (time, id). Ordinary ids count every schedule_at, sleep_for and
// resume in call order; a poll wake's id is its ticket under the top
// bit. Both must fire the same events in the same order.
struct OrderProgram {
  static constexpr int kBudget = 20000;
  static constexpr int kPolls = 3;
  static constexpr Time kFirst[kPolls] = {3, 1, 2};
  static constexpr Time kSecond[kPolls] = {2, 4, 2};
  static constexpr Time kHorizon = 60;
  // Log entries: a closure's label, kPollLabel + loop, or a cancel's
  // victim label and verdict.
  static constexpr long kPollLabel = 1'000'000;
  static constexpr long kStartLabel = 2'000'000;

  std::mt19937_64 rng{12345};
  int next_label = 0;
  std::vector<std::uint64_t> handles;  // by label
  std::vector<std::pair<Time, long>> log;
  std::function<std::uint64_t(Time, int)> schedule;
  std::function<bool(std::uint64_t)> cancel;
  std::function<Time()> now;

  void add(Time t) {
    const int label = next_label++;
    handles.push_back(schedule(t, label));
  }
  void seed_events() {
    for (int i = 0; i < 50; ++i) add(static_cast<Time>(rng() % 20));
  }
  void fire(int label) {
    log.emplace_back(now(), label);
    constexpr Time kDelays[] = {0, 0, 1, 2, 5};
    const int kids = static_cast<int>(rng() % 4);
    for (int k = 0; k < kids && next_label < kBudget; ++k) add(now() + kDelays[rng() % 5]);
    if (rng() % 4 == 0) {
      const auto victim = static_cast<std::size_t>(rng() % handles.size());
      const bool ok = cancel(handles[victim]);
      log.emplace_back(now(), -2 * static_cast<long>(victim) - (ok ? 1 : 2));
    }
  }
};

std::vector<std::pair<Time, long>> run_order_on_engine(std::uint64_t* events) {
  obs::Timeline timeline(1_us, 8);  // enabled: the poll loops step
  obs::Sinks sinks;
  sinks.timeline = &timeline;
  Engine engine(sinks);
  OrderProgram prog;
  prog.schedule = [&](Time t, int label) {
    return engine.schedule_at(t, [&prog, label] { prog.fire(label); });
  };
  prog.cancel = [&](std::uint64_t h) { return engine.cancel(h); };
  prog.now = [&] { return engine.now(); };
  for (int p = 0; p < OrderProgram::kPolls; ++p) {
    engine.spawn("poll" + std::to_string(p), [&, p] {
      prog.log.emplace_back(engine.now(), OrderProgram::kStartLabel + p);
      const std::function<bool(int)> idle = [&, p](int) {
        prog.log.emplace_back(engine.now(), OrderProgram::kPollLabel + p);
        return engine.now() < OrderProgram::kHorizon;
      };
      IdlePoll* slot = nullptr;
      engine.poll_idle(OrderProgram::kFirst[p], OrderProgram::kSecond[p],
                       engine.poll_ticket(), idle, slot);
    });
  }
  prog.seed_events();
  engine.run();
  *events = engine.events_processed();
  return prog.log;
}

std::vector<std::pair<Time, long>> run_order_on_reference(std::uint64_t* events) {
  constexpr std::uint64_t kPollBit = std::uint64_t{1} << 63;
  // (time, id, what, phase): what >= 0 is a closure label, else a
  // poll loop's start (-1 - p) or wake (-100 - p).
  using Key = std::tuple<Time, std::uint64_t, long, int>;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> queue;
  std::vector<bool> cancelled;
  std::vector<bool> done;
  std::uint64_t next_id = 1;
  std::uint64_t next_ticket = 0;
  std::uint64_t tickets[OrderProgram::kPolls] = {};
  Time now = 0;
  OrderProgram prog;
  prog.schedule = [&](Time t, int label) {
    queue.emplace(t, next_id++, label, 0);
    cancelled.push_back(false);
    done.push_back(false);
    return static_cast<std::uint64_t>(label);
  };
  prog.cancel = [&](std::uint64_t h) {
    if (done[h] || cancelled[h]) return false;
    cancelled[h] = true;
    return true;
  };
  prog.now = [&] { return now; };
  for (int p = 0; p < OrderProgram::kPolls; ++p) queue.emplace(0, next_id++, -1 - p, 0);
  prog.seed_events();
  *events = 0;
  while (!queue.empty()) {
    const auto [t, id, what, phase] = queue.top();
    queue.pop();
    if (what >= 0) {
      done[static_cast<std::size_t>(what)] = true;
      if (cancelled[static_cast<std::size_t>(what)]) continue;
    }
    now = t;
    ++*events;
    if (what >= 0) {
      prog.fire(static_cast<int>(what));
    } else if (what > -100) {
      const int p = static_cast<int>(-1 - what);
      prog.log.emplace_back(now, OrderProgram::kStartLabel + p);
      tickets[p] = next_ticket++;
      queue.emplace(now + OrderProgram::kFirst[p], kPollBit | tickets[p], what - 99, 0);
    } else {
      const int p = static_cast<int>(-100 - what);
      prog.log.emplace_back(now, OrderProgram::kPollLabel + p);
      if (now >= OrderProgram::kHorizon) continue;
      const Time step = phase == 0 ? OrderProgram::kSecond[p] : OrderProgram::kFirst[p];
      queue.emplace(now + step, kPollBit | tickets[p], what, phase ^ 1);
    }
  }
  return prog.log;
}

TEST(Engine, HeapOrderMatchesReference) {
  std::uint64_t engine_events = 0;
  std::uint64_t reference_events = 0;
  const auto got = run_order_on_engine(&engine_events);
  const auto want = run_order_on_reference(&reference_events);
  ASSERT_GT(want.size(), 20000u);
  EXPECT_EQ(engine_events, reference_events);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "entry " << i;
  }
  // The program exercised what it is meant to: same-time ties with
  // poll wakes, and cancels that hit and that miss.
  const auto count = [&](auto pred) { return std::count_if(want.begin(), want.end(), pred); };
  EXPECT_GT(count([](const auto& e) { return e.second >= OrderProgram::kPollLabel &&
                                             e.second < OrderProgram::kStartLabel; }),
            30);
  EXPECT_GT(count([](const auto& e) { return e.second < 0 && e.second % 2 != 0; }), 100);
  EXPECT_GT(count([](const auto& e) { return e.second < 0 && e.second % 2 == 0; }), 100);
}

// A cancelled event is skipped when popped; a handle outlives its event
// and cancels nothing once the event fired, even after its pool slot
// is reused.
TEST(Engine, CancelOfFiredEventIsANoOp) {
  Engine engine;
  int fired = 0;
  const EventId first = engine.schedule_at(1, [&] { ++fired; });
  const EventId doomed = engine.schedule_at(2, [&] { fired += 100; });
  EXPECT_TRUE(engine.cancel(doomed));
  EXPECT_FALSE(engine.cancel(doomed));
  EXPECT_EQ(engine.cancelled_pending(), 1u);
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.cancelled_pending(), 0u);
  const EventId reused = engine.schedule_at(3, [&] { fired += 10; });
  EXPECT_FALSE(engine.cancel(first));
  EXPECT_FALSE(engine.cancel(doomed));
  EXPECT_EQ(engine.cancelled_pending(), 0u);
  engine.run();
  EXPECT_EQ(fired, 11);
  EXPECT_FALSE(engine.cancel(reused));
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

// 1/3 in SSE arithmetic, which rounds under MXCSR's mode (fegetround
// reads the x87 control word, so the two together check both).
double sse_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

// A switch restores the MXCSR and x87 control word of the side it
// enters, and a new fiber starts with its spawner's.
TEST(Engine, FiberKeepsItsFloatingPointControlState) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = sse_third();
  Engine engine;
  int other_mode = -1;
  double other_third = 0;
  int up_mode = -1;
  double up_third = 0;
  int child_mode = -1;
  double child_third = 0;
  engine.spawn("up", [&] {
    std::fesetround(FE_UPWARD);
    engine.sleep_for(10);  // "other" runs in between
    up_mode = std::fegetround();
    up_third = sse_third();
    engine.spawn("child", [&] {
      child_mode = std::fegetround();
      child_third = sse_third();
    });
    engine.sleep_for(10);
  });
  engine.spawn("other", [&] {
    engine.sleep_for(5);
    other_mode = std::fegetround();
    other_third = sse_third();
  });
  engine.run();
  const int run_mode = std::fegetround();
  const double run_third = sse_third();
  std::fesetround(FE_TONEAREST);  // whatever happened, for later tests
  EXPECT_EQ(other_mode, FE_TONEAREST);
  EXPECT_EQ(other_third, nearest) << std::hexfloat << other_third << " vs " << nearest;
  EXPECT_EQ(up_mode, FE_UPWARD);
  EXPECT_GT(up_third, nearest);
  EXPECT_EQ(child_mode, FE_UPWARD);
  EXPECT_EQ(child_third, up_third);
  // run()'s stack gets its own state back when the last fiber leaves.
  EXPECT_EQ(run_mode, FE_TONEAREST);
  EXPECT_EQ(run_third, nearest) << std::hexfloat << run_third << " vs " << nearest;
  EXPECT_EQ(engine.fiber_switches(), 6u);
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

// Three fibers poll flags in 80 ns + 200 ns idle loops (poll_idle),
// stepped on their fibers when a timeline observes the engine, parked
// between pokes otherwise. All of them start at t = 0, so they share
// one grid of instants: phase 0 at 80 + 280k ns, phase 1 at 280k ns.
// Flag writes poke the loop they feed, as pami::Process::poke does.
struct PollScenario {
  std::vector<std::pair<Time, std::string>> log;
  Time resumed[3] = {-1, -1, -1};
  /// Empty passes: counted per idle phase-1 instant while stepped, from
  /// the parked span while parked (as Comm::poll_until counts them).
  std::uint64_t empties[3] = {};
  std::uint64_t events = 0;
};

PollScenario run_poll_scenario(bool observed) {
  obs::Timeline timeline(1_us, 8);
  obs::Sinks sinks;
  if (observed) sinks.timeline = &timeline;
  Engine engine(sinks);
  PollScenario out;
  struct Flag {
    int value = 0;
    int want;
    bool urgent = false;
    IdlePoll* parked = nullptr;
  };
  Flag flags[3];
  flags[0].want = 3;  // p
  flags[1].want = 2;  // q
  flags[2].want = 1;  // r
  const char* names[3] = {"p", "q", "r"};
  auto note = [&](std::string who) { out.log.emplace_back(engine.now(), std::move(who)); };
  auto poke = [&](Flag& f) {
    if (f.parked != nullptr) engine.poke(*f.parked);
  };
  auto land = [&](int i, const char* who) {
    ++flags[i].value;
    note(who);
    poke(flags[i]);
  };
  for (int i = 0; i < 3; ++i) {
    engine.spawn(names[i], [&, i] {
      Flag& f = flags[i];
      const std::uint64_t ticket = engine.poll_ticket();
      const std::function<bool(int)> idle = [&f, &out, i, observed](int phase) {
        if (phase == 0) return !f.urgent;
        const bool waiting = f.value < f.want;
        if (waiting && observed) ++out.empties[i];
        return waiting;
      };
      while (f.value < f.want) {
        const Time start = engine.now();
        const int phase = engine.poll_idle(80_ns, 200_ns, ticket, idle, f.parked);
        if (!observed) {
          out.empties[i] += static_cast<std::uint64_t>((engine.now() - start) / 280_ns - phase);
        }
        note(std::string(names[i]) + " resumes " + std::to_string(phase));
        if (phase == 0) {
          // Serve the urgent step, then the pass's compute slice.
          f.urgent = false;
          engine.sleep_for(200_ns);
        } else if (i == 0) {
          land(1, "p writes q");  // a poll wake ahead of q's at this instant
        } else if (i == 2) {
          land(0, "r writes p");  // a poll wake behind p's at this instant
        }
      }
      out.resumed[i] = engine.now();
    });
  }
  // Two writes for p landing on the phase-1 instant 560 ns, one queued
  // from inside the 80 ns window, one less than 200 ns before it.
  engine.schedule_at(300_ns, [&] { engine.schedule_at(560_ns, [&] { land(0, "x1"); }); });
  engine.schedule_at(400_ns, [&] { engine.schedule_at(560_ns, [&] { land(0, "x2"); }); });
  // q's first write lands on the same instant (queued first, so it runs
  // first): too few to resume it.
  engine.schedule_at(560_ns, [&] { land(1, "y"); });
  // p resumes in phase 0 (at 640 ns), serves, and parks again at 840.
  engine.schedule_at(600_ns, [&] {
    flags[0].urgent = true;
    poke(flags[0]);
  });
  // A fiber whose wake was queued at t = 0 lands r's write on 1120 ns.
  engine.spawn("c", [&] {
    engine.sleep_until(1120_ns);
    land(2, "c");
  });
  engine.run();
  out.events = engine.events_processed();
  return out;
}

TEST(Engine, IdleReplayMatchesSleepLoop) {
  const PollScenario stepped = run_poll_scenario(true);
  const PollScenario parked = run_poll_scenario(false);
  EXPECT_EQ(parked.log, stepped.log);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(parked.resumed[i], stepped.resumed[i]) << i;
    EXPECT_EQ(parked.empties[i], stepped.empties[i]) << i;
  }
  // The poll-instant rule: a write landing at T is seen by the poll at
  // T (r at 1120), a later ticket's poll at T sees what an earlier one
  // wrote (q at 1400), and an earlier ticket's poll at T does not see
  // what a later one wrote (p only at 1400, not 1120).
  const std::vector<std::pair<Time, std::string>> want = {
      {560_ns, "y"},            {560_ns, "x1"},           {560_ns, "x2"},
      {640_ns, "p resumes 0"},  {1120_ns, "c"},           {1120_ns, "r resumes 1"},
      {1120_ns, "r writes p"},  {1400_ns, "p resumes 1"}, {1400_ns, "p writes q"},
      {1400_ns, "q resumes 1"}};
  EXPECT_EQ(stepped.log, want);
  // p: passes from 280 and 560 before its phase-0 resume, then 1120.
  // q: every phase-1 instant before 1400. r: 280, 560 and 840.
  EXPECT_EQ(stepped.empties[0], 3u);
  EXPECT_EQ(stepped.empties[1], 4u);
  EXPECT_EQ(stepped.empties[2], 3u);
  // Parked, only landings schedule checks.
  EXPECT_LT(parked.events * 2, stepped.events);
}

TEST(Engine, DeadlockNamesAParkedPoller) {
  for (const bool observed : {true, false}) {
    obs::Timeline timeline(1_us, 8);
    obs::Sinks sinks;
    if (observed) sinks.timeline = &timeline;
    Engine engine(sinks);
    int flag = 0;
    IdlePoll* parked = nullptr;
    engine.spawn("waiter", [&] {
      engine.sleep_for(1_us);
      const std::function<bool(int)> idle = [&flag](int phase) {
        return phase == 0 || flag == 0;
      };
      engine.poll_idle(80_ns, 200_ns, engine.poll_ticket(), idle, parked);
    });
    // A write that lands without poking the loop: a stepped loop still
    // sees it, a parked one never wakes.
    engine.schedule_at(2_us, [&] { flag = 1; });
    if (observed) {
      engine.run();
      EXPECT_EQ(engine.now(), 2120_ns);
      continue;
    }
    try {
      engine.run();
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "'waiter' parked in a poll loop since t=1000000 ps"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace pgasq::sim
