// Discrete-event simulation engine.
//
// A single Engine owns virtual time, a priority queue of events, and
// every fiber. Events fire in (time, insertion-sequence) order, so runs
// are bit-reproducible. Fibers interact with the engine through the
// blocking primitives sleep_for / suspend / resume; everything higher
// up (network delivery, PAMI progress, ARMCI protocols) is expressed
// as events and fiber wakeups.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/fiber.hpp"
#include "util/error.hpp"
#include "util/time_types.hpp"

namespace pgasq::obs {
class Timeline;
}  // namespace pgasq::obs

namespace pgasq::sim {

class TraceRecorder;

/// Identifier for a scheduled event; usable with cancel().
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time (picoseconds).
  Time now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (must be >= now()).
  EventId schedule_at(Time t, std::function<void()> fn);
  /// Schedules `fn` after a relative delay (must be >= 0).
  EventId schedule_after(Time delay, std::function<void()> fn);
  /// Cancels a pending event. Returns false if it was already
  /// cancelled. The engine keeps no record of fired events, so callers
  /// must cancel only an event they know is pending: cancelling one
  /// that already fired returns true and leaves its id in
  /// cancelled_pending() for good.
  bool cancel(EventId id);

  /// Creates a fiber and marks it runnable at the current time.
  Fiber& spawn(std::string name, std::function<void()> body,
               std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  /// Runs until the event queue drains. Throws if a fiber threw, or if
  /// fibers remain blocked with no pending events (deadlock).
  void run();

  /// --- Calls valid only from inside a fiber ---

  /// Blocks the current fiber for `delay` of virtual time.
  void sleep_for(Time delay);
  /// Blocks the current fiber until absolute time `t` (no-op if past).
  void sleep_until(Time t);
  /// Blocks the current fiber indefinitely; another party must resume().
  void suspend();
  /// Blocks the current fiber in the fixed-cadence idle loop
  ///   for (;;) { sleep_for(first); step 0; sleep_for(second); step 1; }
  /// without switching into it for steps that do nothing. At each wake
  /// the engine asks `idle(phase)` (0 after `first`, 1 after `second`)
  /// whether the fiber's step there would be a no-op; if so, `idle`
  /// has done that step's bookkeeping and the engine schedules the next
  /// wake from the same event, so every wake keeps the instant and the
  /// FIFO id the fiber's own sleep_for would have given it. Otherwise
  /// the fiber resumes inside that event, and this returns the phase
  /// of the wake it resumed at. `idle` runs as a plain event callback
  /// (no current fiber) and must not throw or block. While a trace
  /// recorder or a timeline observes fiber switches, every wake
  /// resumes the fiber.
  int replay_idle_loop(Time first, Time second, const std::function<bool(int)>& idle);
  /// Yields to let any same-time events run, then continues.
  void yield();

  /// Marks a blocked fiber runnable after `delay`. It is an error to
  /// resume a fiber that is not blocked.
  void resume(Fiber& fiber, Time delay = 0);

  /// The fiber currently executing, or nullptr when inside a plain
  /// event callback / outside run().
  Fiber* current() const { return current_; }

  /// Number of fibers that have not finished.
  std::size_t live_fibers() const { return live_fibers_; }
  /// Total events processed (diagnostics).
  std::uint64_t events_processed() const { return events_processed_; }
  /// Cancelled ids not yet popped from the queue (diagnostics).
  std::size_t cancelled_pending() const { return cancelled_.size(); }

  /// Enables execution tracing (fiber slices). Must be set before the
  /// fibers whose activity should be recorded are spawned; pass
  /// nullptr to disable. The recorder is not owned.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }

  /// Enables continuous telemetry: samples the event-queue depth per
  /// processed event ("sim.event_queue_depth") and counts fiber
  /// switches ("sim.fiber_switches"). Pure observation — never changes
  /// timing. Pass nullptr to disable; the timeline is not owned.
  void set_timeline(obs::Timeline* timeline);
  obs::Timeline* timeline() const { return timeline_; }

  /// Fibers spawned after this whose name matches `pred` get a muted
  /// trace track (their slices are dropped at record time). Used by
  /// trace.sample_ranks to silence unsampled ranks' fibers.
  void set_track_mute(std::function<bool(const std::string&)> pred) {
    track_mute_ = std::move(pred);
  }

  // Internal — used by Fiber.
  void set_pending_exception(std::exception_ptr e);
  void on_fiber_finished(Fiber& fiber);
  void switch_to_scheduler(Fiber& from);
  /// ASan fiber annotation, called at fiber entry (no-op without ASan).
  void asan_back_in_fiber(Fiber& fiber);

 private:
  struct Event {
    Time time;
    EventId id;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event* a, const Event* b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->id > b->id;  // FIFO among same-time events
    }
  };

  /// A fiber blocked in replay_idle_loop (lives on that fiber's stack).
  struct IdleReplay {
    Fiber* fiber;
    Time first;
    Time second;
    const std::function<bool(int)>* idle;
    int phase;
  };

  void switch_to_fiber(Fiber& fiber);
  void block_current(Fiber::State new_state);
  /// One wake of a replayed idle loop.
  void idle_wake(IdleReplay& r);

  // ASan fiber annotations (no-ops unless built with ASan).
  void asan_enter_fiber(Fiber& fiber);      // scheduler side, before swap in
  void asan_back_in_scheduler();            // scheduler side, after swap out
  void asan_leave_fiber(Fiber& fiber);      // fiber side, before swap out

  Time now_ = 0;
  EventId next_event_id_ = 1;
  std::priority_queue<Event*, std::vector<Event*>, EventOrder> queue_;
  // Cancelled events stay in the heap and are skipped on pop; the flag
  // lives in this set keyed by id.
  std::unordered_set<EventId> cancelled_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::size_t live_fibers_ = 0;
  Fiber* current_ = nullptr;
  ucontext_t scheduler_context_{};
  bool running_ = false;
  std::exception_ptr pending_exception_;
  std::uint64_t events_processed_ = 0;
  std::uint64_t next_fiber_id_ = 1;
  TraceRecorder* trace_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  std::uint32_t tl_queue_depth_ = 0xffffffffu;   // obs::Timeline::kNone
  std::uint32_t tl_fiber_switches_ = 0xffffffffu;
  std::function<bool(const std::string&)> track_mute_;
  // ASan bookkeeping: the scheduler's fake stack while inside a fiber,
  // and the scheduler (main thread) stack bounds learned at fiber entry.
  void* asan_scheduler_fake_stack_ = nullptr;
  const void* asan_scheduler_stack_bottom_ = nullptr;
  std::size_t asan_scheduler_stack_size_ = 0;
};

}  // namespace pgasq::sim
