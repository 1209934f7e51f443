// Discrete-event simulation engine.
//
// A single Engine owns virtual time, a priority queue of events, and
// every fiber. Events fire in (time, id) order, so runs are
// bit-reproducible: an ordinary event's id is its insertion sequence
// number (FIFO among same-time events), a poll wake's is kPollWake
// plus its loop's ticket. Fibers interact with the engine through the
// blocking primitives sleep_for / suspend / resume; everything higher
// up (network delivery, PAMI progress, ARMCI protocols) is expressed
// as events and fiber wakeups.
//
// Event storage: the queue is a 4-ary heap of 24-byte entries that
// carry their key (time, id) inline with a tagged payload, so a
// comparison touches no other memory. A fiber wake (sleep_for, resume)
// or a poll wake carries its Fiber* or IdlePoll* and allocates
// nothing. A closure event (schedule_at) keeps its std::function in a
// slot of an engine-owned pool, recycled through a free list; cancel
// flags the slot and the popped entry is skipped. The free slot's
// function storage is poisoned under AddressSanitizer, so a stale use
// of a fired event is reported.
//
// Poll-instant rule: the wakes of idle poll loops (poll_idle) are a
// second class of event. At one instant they run after every ordinary
// event, and among themselves in the order their loops took their
// tickets. A write that lands at T is therefore seen by a poll at T.
// An unobserved poll loop parks between instants and schedules nothing
// until a poke; an observed one steps through every instant under the
// same keys, which makes it the reference that parking must match.
//
// The event loop runs on the stack of the fiber that last blocked, so
// plain event callbacks run on fiber stacks. A wake of that same fiber
// returns to it without a stack switch, and a wake of another fiber
// swaps straight into it. run()'s own stack starts the loop, hosts it
// after a fiber finishes (the finished stack is never reused), and
// takes it back when the queue drains or an exception is pending.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/sinks.hpp"
#include "sim/fiber.hpp"
#include "util/error.hpp"
#include "util/time_types.hpp"

namespace pgasq::sim {

/// Handle of a scheduled closure event, for cancel(): its pool slot
/// and that slot's generation (not the event's order key).
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

/// A fiber's poll loop in Engine::poll_idle (lives on that fiber's stack).
struct IdlePoll {
  Fiber* fiber;
  Time first;
  Time second;
  Time start;  ///< when the loop parked; its instants follow from here
  std::uint64_t ticket;
  const std::function<bool(int)>* idle;
  IdlePoll** slot;
  int phase = 0;          ///< phase of the pending check, or of the resume
  bool parked = false;    ///< false: the loop steps (observed run)
  bool checking = false;  ///< a parked loop's check is scheduled
  IdlePoll* prev = nullptr;  ///< the engine's list of parked loops
  IdlePoll* next = nullptr;
};

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
  /// Cancels a pending event. Returns false, and does nothing, if it
  /// was already cancelled or has fired (its slot's generation moved on
  /// when it was popped).
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
  /// Takes the next poll ticket. A poll loop takes one when it starts;
  /// the ticket orders its wakes among all poll wakes at one instant.
  std::uint64_t poll_ticket() { return next_poll_ticket_++; }
  /// Blocks the current fiber in the fixed-cadence idle loop
  ///   for (;;) { sleep_for(first); step 0; sleep_for(second); step 1; }
  /// started now, whose steps do nothing while `idle(phase)` (0 after
  /// `first`, 1 after `second`) holds. The loop's instants are poll
  /// wakes keyed by `ticket` (see the poll-instant rule above). Returns
  /// the phase of the first instant where `idle` is false, with the
  /// fiber resumed there.
  ///
  /// Unobserved, the fiber parks and no instant is scheduled: `idle`
  /// may only change through an event that calls poke(*slot). `slot`
  /// holds the parked loop until it resumes. A poke schedules one check
  /// at the first instant that has not had its turn yet; a phase-0
  /// check that finds the loop idle checks the next phase-1 instant
  /// too, since only there does `idle` read the awaited condition. A
  /// check runs as a plain event callback (no current fiber), so `idle`
  /// must not throw or block. While a trace recorder or an enabled
  /// timeline observes fiber switches, the loop steps instead: every
  /// instant switches into the fiber, which evaluates `idle` itself.
  /// Either way the instant and the order of the resume are the same.
  int poll_idle(Time first, Time second, std::uint64_t ticket,
                const std::function<bool(int)>& idle, IdlePoll*& slot);
  /// Wakes a parked poll loop for a check at its next instant; a no-op
  /// while a check is already pending.
  void poke(IdlePoll& poll);
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
  /// Stack switches made by the engine (diagnostics): one per fiber
  /// switch, none when a fiber wakes itself, plus one out of each
  /// finished fiber and one into and out of each run().
  std::uint64_t stack_switches() const { return stack_switches_; }
  /// Cancelled events not yet popped from the queue (diagnostics).
  std::size_t cancelled_pending() const { return cancelled_pending_; }

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
  /// A closure event's pool slot. `fn` comes first so that ASan can
  /// poison it alone while the slot is free.
  struct Closure {
    std::function<void()> fn;
    Closure* next_free = nullptr;
    std::uint32_t index = 0;       ///< slot number; the handle's low half
    std::uint32_t generation = 0;  ///< the handle's high half; bumped on pop
    bool cancelled = false;
  };
  /// Slots per pool chunk. Not a tuned size but a heap-layout pin
  /// (DESIGN.md §5, ROADMAP direction 2): perfbench's SCF mirror check,
  /// and with it the scf workload's correctness, passes at 128 by
  /// layout luck. With 64, 256, 512 or 1024 the chunks move a per-task
  /// buffer of the mirror onto a different registration than
  /// apps::run_scf's, and the two virtual walls differ. Free to change
  /// once registrations no longer depend on heap addresses.
  static constexpr std::size_t kClosureChunk = 128;

  /// What a heap entry fires, in the low two bits of its payload word.
  enum Payload : std::uintptr_t {
    kRunClosure = 0,    ///< Closure*
    kWakeSleeper = 1,   ///< Fiber* blocked in sleep_for: made ready here
    kWakeResumed = 2,   ///< Fiber* already made ready by resume()
    kWakePoll = 3,      ///< IdlePoll*
  };
  static constexpr std::uintptr_t kPayloadMask = 3;
  struct Entry {
    Time time;
    EventId id;  ///< order key: sequence number, or kPollWake | ticket
    std::uintptr_t payload;
  };
  static bool fires_before(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.id < b.id;
  }

  /// Poll wakes sort after every ordinary event of their instant: their
  /// ids are this bit plus the loop's ticket.
  static constexpr EventId kPollWake = EventId{1} << 63;

  void push(Time t, EventId id, const void* target, Payload kind);
  Entry pop();
  Closure& acquire_closure(std::function<void()> fn);
  void release_closure(Closure* c);

  /// Runs the event loop on the calling stack. `ended` is the fiber
  /// whose slice just ended (nullptr when there is none). Returns
  /// the fiber a wake switched in, or nullptr when control must go
  /// back to run(): the queue drained or an exception is pending. An
  /// exception from a callback or a check is caught here and made
  /// pending, so it never unwinds into the hosting fiber.
  Fiber* dispatch(Fiber* ended);
  void switch_in(Fiber& fiber);
  /// One register swap from `from`'s stack to `to`'s (nullptr: run()'s).
  void switch_stacks(Fiber* from, Fiber* to);
  void block_current(Fiber::State new_state);
  /// Schedules `poll`'s wake at its instant `t` (phase `poll.phase`).
  void schedule_poll_wake(IdlePoll& poll, Time t);
  /// One wake: a stepped loop's fiber is switched in; a parked loop is
  /// checked and resumes unless it is still idle.
  void poll_wake(IdlePoll& poll);

  /// ASan annotation before leaving `from` for `to` (no-op without ASan).
  void asan_start_switch(Fiber* from, Fiber* to);

  Time now_ = 0;
  EventId next_event_id_ = 1;
  std::uint64_t next_poll_ticket_ = 0;
  /// The last poll wake that ran: its time and its loop's ticket.
  Time poll_cursor_time_ = -1;
  std::uint64_t poll_cursor_ticket_ = 0;
  /// Parked poll loops, for the deadlock diagnostic.
  IdlePoll* parked_ = nullptr;
  std::vector<Entry> heap_;  ///< 4-ary min-heap on (time, id)
  /// Closure slots, in chunks whose addresses never move.
  std::vector<std::unique_ptr<Closure[]>> closure_chunks_;
  Closure* free_closures_ = nullptr;
  /// Cancelled events stay in the heap, flagged, and are skipped on pop.
  std::size_t cancelled_pending_ = 0;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::size_t live_fibers_ = 0;
  Fiber* current_ = nullptr;
  /// run()'s stack pointer while a fiber runs.
  void* scheduler_sp_ = nullptr;
  bool running_ = false;
  std::exception_ptr pending_exception_;
  /// The closure event that switched in the running fiber; released
  /// when its slice ends, as if the switch had happened inside it.
  Closure* slice_event_ = nullptr;
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
