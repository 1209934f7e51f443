#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "sim/trace.hpp"

// Defined in fiber.cpp. Pushes the callee-saved registers, MXCSR and the
// x87 control word on the current stack and stores the stack pointer in
// `*save`, then loads `load` (a pointer so stored, or a new fiber's
// first frame), pops the same state there and returns on that stack.
extern "C" void pgasq_sim_switch_stacks(void** save, void* load);

#if PGASQ_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     std::size_t* size_old);
}
#endif

namespace pgasq::sim {

void Engine::asan_start_switch(Fiber* from, Fiber* to) {
#if PGASQ_ASAN_FIBERS
  // A finished fiber's stack is never re-entered: with no save slot
  // ASan drops its fake stack.
  void** save = from == nullptr ? &asan_scheduler_fake_stack_
                : from->state_ == Fiber::State::kFinished ? nullptr
                                                          : &from->asan_fake_stack_;
  asan_from_scheduler_ = from == nullptr;
  if (to != nullptr) {
    __sanitizer_start_switch_fiber(save, to->stack_.get(), to->stack_bytes_);
  } else {
    __sanitizer_start_switch_fiber(save, asan_scheduler_stack_bottom_,
                                   asan_scheduler_stack_size_);
  }
#else
  (void)from;
  (void)to;
#endif
}

void Engine::asan_finish_switch(Fiber* to) {
#if PGASQ_ASAN_FIBERS
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(
      to == nullptr ? asan_scheduler_fake_stack_ : to->asan_fake_stack_, &bottom, &size);
  // Every run() enters its first fiber from its own stack, so the
  // bounds are known before any switch back to it.
  if (asan_from_scheduler_) {
    asan_scheduler_stack_bottom_ = bottom;
    asan_scheduler_stack_size_ = size;
  }
#else
  (void)to;
#endif
}

Engine::Engine(const obs::Sinks& sinks)
    : trace_(sinks.trace),
      timeline_(sinks.timeline),
      tl_queue_depth_(timeline_->series("sim.event_queue_depth",
                                        obs::Timeline::Kind::kGauge)),
      tl_fiber_switches_(timeline_->series("sim.fiber_switches",
                                           obs::Timeline::Kind::kCounter)) {}

Engine::~Engine() {
  // Free slots are poisoned; the chunks' destructors read every slot.
#if PGASQ_ASAN_FIBERS
  for (const auto& chunk : closure_chunks_) {
    ASAN_UNPOISON_MEMORY_REGION(chunk.get(), kClosureChunk * sizeof(Closure));
  }
#endif
}

void Engine::push(Time t, EventId id, const void* target, Payload kind) {
  static_assert(alignof(Fiber) > kPayloadMask && alignof(IdlePoll) > kPayloadMask &&
                alignof(Closure) > kPayloadMask);
  const Entry e{t, id, reinterpret_cast<std::uintptr_t>(target) | kind};
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!fires_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

Engine::Entry Engine::pop() {
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (fires_before(heap_[c], heap_[best])) best = c;
    }
    if (!fires_before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

Engine::Closure& Engine::acquire_closure(std::function<void()> fn) {
  if (free_closures_ == nullptr) {
    auto chunk = std::make_unique<Closure[]>(kClosureChunk);
    const auto base = static_cast<std::uint32_t>(closure_chunks_.size() * kClosureChunk);
    for (std::size_t i = kClosureChunk; i-- > 0;) {
      Closure& c = chunk[i];
      c.index = base + static_cast<std::uint32_t>(i);
      c.next_free = free_closures_;
      free_closures_ = &c;
#if PGASQ_ASAN_FIBERS
      ASAN_POISON_MEMORY_REGION(&c.fn, sizeof(c.fn));
#endif
    }
    closure_chunks_.push_back(std::move(chunk));
  }
  Closure& c = *std::exchange(free_closures_, free_closures_->next_free);
#if PGASQ_ASAN_FIBERS
  ASAN_UNPOISON_MEMORY_REGION(&c.fn, sizeof(c.fn));
#endif
  c.fn = std::move(fn);
  c.cancelled = false;
  return c;
}

void Engine::release_closure(Closure* c) {
  if (c == nullptr) return;
  c->fn = nullptr;
#if PGASQ_ASAN_FIBERS
  ASAN_POISON_MEMORY_REGION(&c->fn, sizeof(c->fn));
#endif
  c->next_free = free_closures_;
  free_closures_ = c;
}

EventId Engine::schedule_at(Time t, std::function<void()> fn) {
  PGASQ_CHECK(t >= now_, << "event scheduled in the past: t=" << t << " now=" << now_);
  Closure& c = acquire_closure(std::move(fn));
  push(t, next_event_id_++, &c, kRunClosure);
  // Slot numbers start at 1 in the handle, so no handle is kInvalidEvent.
  return (EventId{c.generation} << 32) | (EventId{c.index} + 1);
}

EventId Engine::schedule_after(Time delay, std::function<void()> fn) {
  PGASQ_CHECK(delay >= 0, << "negative delay " << delay);
  return schedule_at(now_ + delay, std::move(fn));
}

bool Engine::cancel(EventId id) {
  const EventId slot = id & 0xffffffffu;
  if (slot == 0 || slot > closure_chunks_.size() * kClosureChunk) return false;
  Closure& c = closure_chunks_[(slot - 1) / kClosureChunk][(slot - 1) % kClosureChunk];
  if (c.generation != id >> 32 || c.cancelled) return false;
  c.cancelled = true;
  ++cancelled_pending_;
  return true;
}

Fiber& Engine::spawn(std::string name, std::function<void()> body,
                     std::size_t stack_bytes) {
  fibers_.push_back(std::unique_ptr<Fiber>(
      new Fiber(*this, next_fiber_id_++, std::move(name), std::move(body), stack_bytes)));
  Fiber& fiber = *fibers_.back();
  if (trace_ != nullptr) {
    fiber.trace_track_ = trace_->register_track(
        fiber.name(), track_mute_ && track_mute_(fiber.name()));
  }
  ++live_fibers_;
  fiber.state_ = Fiber::State::kBlocked;  // resume() below flips it to ready
  resume(fiber);
  return fiber;
}

void Engine::run() {
  PGASQ_CHECK(!running_, << "Engine::run is not reentrant");
  PGASQ_CHECK(current_ == nullptr);
  running_ = true;
  // The loop hands off from fiber to fiber and comes back to this
  // stack when it stops or a fiber finishes.
  Fiber* next = dispatch(nullptr);
  while (next != nullptr) {
    switch_stacks(nullptr, next);
    next = finished_ != nullptr ? dispatch(std::exchange(finished_, nullptr)) : nullptr;
  }
  running_ = false;
  if (pending_exception_) {
    std::rethrow_exception(std::exchange(pending_exception_, nullptr));
  }
  if (live_fibers_ != 0) {
    std::string blocked;
    for (const auto& f : fibers_) {
      if (f->state() != Fiber::State::kFinished) {
        if (!blocked.empty()) blocked += ", ";
        blocked += f->name();
        if (blocked.size() > 200) {
          blocked += ", ...";
          break;
        }
      }
    }
    // Name each parked poll loop and when it parked: one whose wait
    // was satisfied without a poke points at a missing poke site.
    std::ostringstream parked;
    for (const IdlePoll* p = parked_; p != nullptr; p = p->next) {
      parked << "; '" << p->fiber->name() << "' parked in a poll loop since t="
             << p->start << " ps";
    }
    PGASQ_CHECK(false, << "deadlock: " << live_fibers_
                       << " fiber(s) blocked with empty event queue: " << blocked
                       << parked.str());
  }
}

Fiber* Engine::dispatch(Fiber* ended) {
  Closure* closure = nullptr;
  try {
    if (ended != nullptr) {
      closure = std::exchange(slice_event_, nullptr);
      if (trace_ != nullptr && ended->trace_track_ != 0xffffffffu) {
        trace_->end_slice(ended->trace_track_, now_);
      }
      ended->check_canary();
      release_closure(std::exchange(closure, nullptr));
    }
    while (!pending_exception_ && !heap_.empty()) {
      const Entry ev = pop();
      const auto kind = static_cast<Payload>(ev.payload & kPayloadMask);
      void* target = reinterpret_cast<void*>(ev.payload & ~kPayloadMask);
      if (kind == kRunClosure) {
        closure = static_cast<Closure*>(target);
        ++closure->generation;  // the handle is stale from here on
        if (closure->cancelled) {
          --cancelled_pending_;
          release_closure(std::exchange(closure, nullptr));
          continue;
        }
      }
      PGASQ_CHECK(ev.time >= now_);
      now_ = ev.time;
      ++events_processed_;
      timeline_->sample(tl_queue_depth_, now_, static_cast<double>(heap_.size()));
      switch (kind) {
        case kRunClosure:
          closure->fn();
          break;
        case kWakeSleeper:
          static_cast<Fiber*>(target)->state_ = Fiber::State::kReady;
          woken_ = static_cast<Fiber*>(target);
          break;
        case kWakeResumed:
          woken_ = static_cast<Fiber*>(target);
          break;
        case kWakePoll:
          poll_wake(*static_cast<IdlePoll*>(target));
          break;
      }
      if (Fiber* fiber = std::exchange(woken_, nullptr)) {
        // Callbacks may have run on `ended`'s stack too.
        if (ended != nullptr) ended->check_canary();
        switch_in(*fiber);
        slice_event_ = closure;
        return fiber;
      }
      release_closure(std::exchange(closure, nullptr));
    }
    if (ended != nullptr) ended->check_canary();
  } catch (...) {
    release_closure(closure);
    set_pending_exception(std::current_exception());
  }
  return nullptr;
}

void Engine::sleep_for(Time delay) {
  PGASQ_CHECK(delay >= 0, << "negative sleep " << delay);
  Fiber* self = current_;
  PGASQ_CHECK(self != nullptr, << "sleep_for outside a fiber");
  // The fiber is still kRunning here; it becomes kBlocked in
  // block_current() below, before the wake event can possibly fire.
  push(now_ + delay, next_event_id_++, self, kWakeSleeper);
  block_current(Fiber::State::kBlocked);
}

void Engine::sleep_until(Time t) {
  if (t <= now_) {
    yield();
    return;
  }
  sleep_for(t - now_);
}

void Engine::suspend() {
  PGASQ_CHECK(current_ != nullptr, << "suspend outside a fiber");
  block_current(Fiber::State::kBlocked);
}

void Engine::yield() { sleep_for(0); }

int Engine::poll_idle(Time first, Time second, std::uint64_t ticket,
                      const std::function<bool(int)>& idle, IdlePoll*& slot) {
  PGASQ_CHECK(first > 0 && second > 0, << "poll loop needs positive sleeps");
  Fiber* self = current_;
  PGASQ_CHECK(self != nullptr, << "poll_idle outside a fiber");
  IdlePoll poll{self, first, second, now_, ticket, &idle, &slot};
  if (trace_ != nullptr || timeline_->enabled()) {
    // Observed: every instant is a fiber slice, under the key a parked
    // loop's check would have there.
    for (Time t = now_ + first;; t += poll.phase == 0 ? first : second) {
      schedule_poll_wake(poll, t);
      block_current(Fiber::State::kBlocked);
      if (!idle(poll.phase)) return poll.phase;
      poll.phase ^= 1;
    }
  }
  PGASQ_CHECK(slot == nullptr, << "fiber '" << self->name()
                               << "' parks a second poll loop on one slot");
  poll.parked = true;
  poll.next = parked_;
  if (parked_ != nullptr) parked_->prev = &poll;
  parked_ = &poll;
  slot = &poll;
  block_current(Fiber::State::kBlocked);
  return poll.phase;
}

void Engine::poke(IdlePoll& poll) {
  if (poll.checking) return;
  // The first instant at or after now: `start` is no instant, a later
  // multiple of the period is a phase-1 instant, `first` after one a
  // phase-0 instant.
  const Time period = poll.first + poll.second;
  const Time base = poll.start + (now_ - poll.start) / period * period;
  Time t;
  if (now_ == base && base != poll.start) {
    t = base;
    poll.phase = 1;
  } else if (now_ <= base + poll.first) {
    t = base + poll.first;
    poll.phase = 0;
  } else {
    t = base + period;
    poll.phase = 1;
  }
  // Poll wakes at now up to the cursor have had their turn; this loop's
  // did if its ticket is not after the cursor's.
  if (t == now_ && poll_cursor_time_ == now_ && poll.ticket <= poll_cursor_ticket_) {
    t += poll.phase == 0 ? poll.second : poll.first;
    poll.phase ^= 1;
  }
  poll.checking = true;
  schedule_poll_wake(poll, t);
}

void Engine::schedule_poll_wake(IdlePoll& poll, Time t) {
  PGASQ_CHECK(t > now_ || (t == now_ && !(poll_cursor_time_ == now_ &&
                                          poll.ticket <= poll_cursor_ticket_)));
  push(t, kPollWake | poll.ticket, &poll, kWakePoll);
}

void Engine::poll_wake(IdlePoll& poll) {
  poll_cursor_time_ = now_;
  poll_cursor_ticket_ = poll.ticket;
  if (poll.parked) {
    poll.checking = false;
    if ((*poll.idle)(poll.phase)) {
      // Idle at phase 0 says nothing about the awaited condition, which
      // only phase 1 reads; idle at phase 1 stays so until a poke.
      if (poll.phase == 0) {
        poll.phase = 1;
        poll.checking = true;
        schedule_poll_wake(poll, now_ + poll.second);
      }
      return;
    }
    (poll.prev != nullptr ? poll.prev->next : parked_) = poll.next;
    if (poll.next != nullptr) poll.next->prev = poll.prev;
    *poll.slot = nullptr;
  }
  poll.fiber->state_ = Fiber::State::kReady;
  woken_ = poll.fiber;
}

void Engine::resume(Fiber& fiber, Time delay) {
  PGASQ_CHECK(fiber.state() == Fiber::State::kBlocked,
              << "resume of fiber '" << fiber.name() << "' in state "
              << static_cast<int>(fiber.state()));
  PGASQ_CHECK(delay >= 0, << "negative delay " << delay);
  fiber.state_ = Fiber::State::kReady;
  push(now_ + delay, next_event_id_++, &fiber, kWakeResumed);
}

void Engine::set_pending_exception(std::exception_ptr e) {
  // First exception wins; later ones would mask the root cause.
  if (!pending_exception_) pending_exception_ = e;
}

void Engine::on_fiber_finished(Fiber& fiber) {
  PGASQ_CHECK(current_ == &fiber);
  PGASQ_CHECK(live_fibers_ > 0);
  --live_fibers_;
  current_ = nullptr;
  // Objects in this fiber's dead frames may still be referenced (a
  // rank's Comm by its async-progress fiber), so the loop goes on from
  // run()'s stack instead of reusing this one.
  finished_ = &fiber;
  switch_stacks(&fiber, nullptr);
  PGASQ_UNREACHABLE("finished fiber resumed");
}

void Engine::switch_in(Fiber& fiber) {
  PGASQ_CHECK(current_ == nullptr,
              << "fiber switch while fiber '" << current_->name() << "' is running");
  PGASQ_CHECK(fiber.state() == Fiber::State::kReady,
              << "switch to fiber '" << fiber.name() << "' in state "
              << static_cast<int>(fiber.state()));
  fiber.state_ = Fiber::State::kRunning;
  current_ = &fiber;
  ++fiber_switches_;
  timeline_->count(tl_fiber_switches_, now_);
  if (trace_ != nullptr && fiber.trace_track_ != 0xffffffffu) {
    trace_->begin_slice(fiber.trace_track_, now_);
  }
}

void Engine::switch_stacks(Fiber* from, Fiber* to) {
  ++stack_switches_;
  asan_start_switch(from, to);
  pgasq_sim_switch_stacks(from != nullptr ? &from->sp_ : &scheduler_sp_,
                          to != nullptr ? to->sp_ : scheduler_sp_);
  // Back on `from`'s stack: a loop switched it in, or (run()'s stack)
  // the loop stopped or a fiber finished.
  asan_finish_switch(from);
}

void Engine::block_current(Fiber::State new_state) {
  Fiber* self = current_;
  self->state_ = new_state;
  current_ = nullptr;
  // The next event may wake this same fiber: then no switch at all.
  Fiber* next = dispatch(self);
  if (next != self) switch_stacks(self, next);
  PGASQ_CHECK(current_ == self);
}

}  // namespace pgasq::sim
