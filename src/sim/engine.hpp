// Discrete-event simulation engine.
//
// A single Engine owns virtual time, a priority queue of events, and
// every fiber. Events fire in (time, insertion-sequence) order, so runs
// are bit-reproducible. Fibers interact with the engine through the
// blocking primitives sleep_for / suspend / resume; everything higher
// up (network delivery, PAMI progress, ARMCI protocols) is expressed
// as events and fiber wakeups.
//
// The event loop runs on the stack of the fiber that last blocked, so
// plain event callbacks run on fiber stacks. A wake of that same fiber
// returns to it without a stack switch, and a wake of another fiber
// swaps straight into it. run()'s own stack starts the loop, hosts it
// after a fiber finishes (the finished stack is never reused), and
// takes it back when the queue drains or an exception is pending.
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

#include "obs/sinks.hpp"
#include "sim/fiber.hpp"
#include "util/error.hpp"
#include "util/time_types.hpp"

namespace pgasq::sim {

/// Identifier for a scheduled event; usable with cancel().
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

class Engine {
 public:
  /// Feeds the trace recorder (fiber slices; fibers spawned while it
  /// is set get a track) and the timeline: the event-queue depth per
  /// processed event ("sim.event_queue_depth") and fiber switches
  /// ("sim.fiber_switches"). Pure observation — never changes timing.
  explicit Engine(const obs::Sinks& sinks = {});
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
  /// recorder or an enabled timeline observes fiber switches, every wake
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
  /// Fiber slices started: each time a fiber is switched in to run
  /// (diagnostics).
  std::uint64_t fiber_switches() const { return fiber_switches_; }
  /// swapcontext calls made by the engine (diagnostics): one per fiber
  /// switch, none when a fiber wakes itself, plus one out of each
  /// finished fiber and one into and out of each run().
  std::uint64_t stack_switches() const { return stack_switches_; }
  /// Cancelled ids not yet popped from the queue (diagnostics).
  std::size_t cancelled_pending() const { return cancelled_.size(); }

  /// Fibers spawned after this whose name matches `pred` get a muted
  /// trace track (their slices are dropped at record time). Used by
  /// trace.sample_ranks to silence unsampled ranks' fibers.
  void set_track_mute(std::function<bool(const std::string&)> pred) {
    track_mute_ = std::move(pred);
  }

  // Internal — used by Fiber.
  void set_pending_exception(std::exception_ptr e);
  /// Leaves the finished fiber for run()'s stack; never returns.
  [[noreturn]] void on_fiber_finished(Fiber& fiber);
  /// ASan annotation after a switch onto `to`'s stack (nullptr: run()'s
  /// stack); no-op without ASan.
  void asan_finish_switch(Fiber* to);

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

  /// Runs the event loop on the calling stack. `ended` is the fiber
  /// whose slice just ended (nullptr when there is none). Returns
  /// the fiber a wake switched in, or nullptr when control must go
  /// back to run(): the queue drained or an exception is pending. An
  /// exception from a callback or a check is caught here and made
  /// pending, so it never unwinds into the hosting fiber.
  Fiber* dispatch(Fiber* ended);
  void switch_in(Fiber& fiber);
  /// One swapcontext from `from`'s stack to `to`'s (nullptr: run()'s).
  void switch_stacks(Fiber* from, Fiber* to);
  void block_current(Fiber::State new_state);
  /// One wake of a replayed idle loop.
  void idle_wake(IdleReplay& r);

  /// ASan annotation before leaving `from` for `to` (no-op without ASan).
  void asan_start_switch(Fiber* from, Fiber* to);

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
  /// The event that switched in the running fiber; freed when its
  /// slice ends, as if the switch had happened inside the event.
  Event* slice_event_ = nullptr;
  /// Set by a wake callback: the fiber its event switches in.
  Fiber* woken_ = nullptr;
  /// Set by a finishing fiber for run(), which ends its slice.
  Fiber* finished_ = nullptr;
  std::uint64_t events_processed_ = 0;
  std::uint64_t fiber_switches_ = 0;
  std::uint64_t stack_switches_ = 0;
  std::uint64_t next_fiber_id_ = 1;
  TraceRecorder* trace_;
  obs::Timeline* timeline_;
  std::uint32_t tl_queue_depth_;
  std::uint32_t tl_fiber_switches_;
  std::function<bool(const std::string&)> track_mute_;
  // ASan bookkeeping: run()'s fake stack while it is switched out, and
  // its (main thread) stack bounds, learned on arrival from it.
  void* asan_scheduler_fake_stack_ = nullptr;
  const void* asan_scheduler_stack_bottom_ = nullptr;
  std::size_t asan_scheduler_stack_size_ = 0;
  bool asan_from_scheduler_ = false;
};

}  // namespace pgasq::sim
