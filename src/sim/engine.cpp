#include "sim/engine.hpp"

#include "obs/timeline.hpp"
#include "sim/trace.hpp"

#if PGASQ_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     std::size_t* size_old);
}
#endif

namespace pgasq::sim {

void Engine::asan_enter_fiber(Fiber& fiber) {
#if PGASQ_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&asan_scheduler_fake_stack_, fiber.stack_.get(),
                                 fiber.stack_bytes_);
#else
  (void)fiber;
#endif
}

void Engine::asan_back_in_scheduler() {
#if PGASQ_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(asan_scheduler_fake_stack_, nullptr, nullptr);
#endif
}

void Engine::asan_leave_fiber(Fiber& fiber) {
#if PGASQ_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&fiber.asan_fake_stack_,
                                 asan_scheduler_stack_bottom_,
                                 asan_scheduler_stack_size_);
#else
  (void)fiber;
#endif
}

void Engine::asan_back_in_fiber(Fiber& fiber) {
#if PGASQ_ASAN_FIBERS
  // Learn (or refresh) the scheduler stack bounds we switched from.
  __sanitizer_finish_switch_fiber(fiber.asan_fake_stack_,
                                  &asan_scheduler_stack_bottom_,
                                  &asan_scheduler_stack_size_);
#else
  (void)fiber;
#endif
}

Engine::Engine() = default;

Engine::~Engine() {
  // Drain the heap; Event objects are heap-allocated.
  while (!queue_.empty()) {
    delete queue_.top();
    queue_.pop();
  }
}

EventId Engine::schedule_at(Time t, std::function<void()> fn) {
  PGASQ_CHECK(t >= now_, << "event scheduled in the past: t=" << t << " now=" << now_);
  const EventId id = next_event_id_++;
  queue_.push(new Event{t, id, std::move(fn)});
  return id;
}

EventId Engine::schedule_after(Time delay, std::function<void()> fn) {
  PGASQ_CHECK(delay >= 0, << "negative delay " << delay);
  return schedule_at(now_ + delay, std::move(fn));
}

bool Engine::cancel(EventId id) {
  if (id == kInvalidEvent || id >= next_event_id_) return false;
  return cancelled_.insert(id).second;
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
  while (!queue_.empty()) {
    Event* ev = queue_.top();
    queue_.pop();
    const bool skip = !cancelled_.empty() && cancelled_.erase(ev->id) != 0;
    if (!skip) {
      PGASQ_CHECK(ev->time >= now_);
      now_ = ev->time;
      ++events_processed_;
      if (timeline_ != nullptr) {
        timeline_->sample(tl_queue_depth_, now_,
                          static_cast<double>(queue_.size()));
      }
      ev->fn();
      if (pending_exception_) {
        delete ev;
        running_ = false;
        std::exception_ptr e = pending_exception_;
        pending_exception_ = nullptr;
        std::rethrow_exception(e);
      }
    }
    delete ev;
  }
  running_ = false;
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
    PGASQ_CHECK(false, << "deadlock: " << live_fibers_
                       << " fiber(s) blocked with empty event queue: " << blocked);
  }
}

void Engine::sleep_for(Time delay) {
  PGASQ_CHECK(delay >= 0, << "negative sleep " << delay);
  Fiber* self = current_;
  PGASQ_CHECK(self != nullptr, << "sleep_for outside a fiber");
  // The fiber is still kRunning here; it becomes kBlocked in
  // block_current() below, before the wake event can possibly fire.
  schedule_after(delay, [this, self] {
    self->state_ = Fiber::State::kReady;
    switch_to_fiber(*self);
  });
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

int Engine::replay_idle_loop(Time first, Time second,
                             const std::function<bool(int)>& idle) {
  PGASQ_CHECK(first >= 0 && second >= 0, << "negative idle-loop sleep");
  Fiber* self = current_;
  PGASQ_CHECK(self != nullptr, << "replay_idle_loop outside a fiber");
  IdleReplay r{self, first, second, &idle, 0};
  // Wake closures stay at two pointers, like sleep_for's, so
  // std::function keeps them inline and the heap sees the same
  // allocations either way.
  schedule_after(first, [this, rp = &r] { idle_wake(*rp); });
  block_current(Fiber::State::kBlocked);
  return r.phase;
}

void Engine::idle_wake(IdleReplay& r) {
  if (trace_ == nullptr && timeline_ == nullptr && (*r.idle)(r.phase)) {
    const Time next = r.phase == 0 ? r.second : r.first;
    r.phase ^= 1;
    schedule_after(next, [this, rp = &r] { idle_wake(*rp); });
    return;
  }
  r.fiber->state_ = Fiber::State::kReady;
  switch_to_fiber(*r.fiber);
}

void Engine::resume(Fiber& fiber, Time delay) {
  PGASQ_CHECK(fiber.state() == Fiber::State::kBlocked,
              << "resume of fiber '" << fiber.name() << "' in state "
              << static_cast<int>(fiber.state()));
  fiber.state_ = Fiber::State::kReady;
  schedule_after(delay, [this, f = &fiber] { switch_to_fiber(*f); });
}

void Engine::set_timeline(obs::Timeline* timeline) {
  timeline_ = timeline;
  if (timeline_ != nullptr) {
    tl_queue_depth_ = timeline_->series("sim.event_queue_depth",
                                        obs::Timeline::Kind::kGauge);
    tl_fiber_switches_ = timeline_->series("sim.fiber_switches",
                                           obs::Timeline::Kind::kCounter);
  }
}

void Engine::set_pending_exception(std::exception_ptr e) {
  // First exception wins; later ones would mask the root cause.
  if (!pending_exception_) pending_exception_ = e;
}

void Engine::on_fiber_finished(Fiber& fiber) {
  (void)fiber;
  PGASQ_CHECK(live_fibers_ > 0);
  --live_fibers_;
}

void Engine::switch_to_scheduler(Fiber& from) {
  PGASQ_CHECK(current_ == &from);
  current_ = nullptr;
  asan_leave_fiber(from);
  PGASQ_CHECK(swapcontext(&from.context_, &scheduler_context_) == 0);
}

void Engine::switch_to_fiber(Fiber& fiber) {
  PGASQ_CHECK(current_ == nullptr,
              << "fiber switch while fiber '" << current_->name() << "' is running");
  PGASQ_CHECK(fiber.state() == Fiber::State::kReady,
              << "switch to fiber '" << fiber.name() << "' in state "
              << static_cast<int>(fiber.state()));
  fiber.state_ = Fiber::State::kRunning;
  current_ = &fiber;
  if (timeline_ != nullptr) timeline_->count(tl_fiber_switches_, now_);
  const bool tracing = trace_ != nullptr && fiber.trace_track_ != 0xffffffffu;
  if (tracing) trace_->begin_slice(fiber.trace_track_, now_);
  asan_enter_fiber(fiber);
  PGASQ_CHECK(swapcontext(&scheduler_context_, &fiber.context_) == 0);
  // Back in the scheduler: the fiber blocked or finished.
  asan_back_in_scheduler();
  if (tracing) trace_->end_slice(fiber.trace_track_, now_);
  fiber.check_canary();
}

void Engine::block_current(Fiber::State new_state) {
  Fiber* self = current_;
  self->state_ = new_state;
  current_ = nullptr;
  asan_leave_fiber(*self);
  PGASQ_CHECK(swapcontext(&self->context_, &scheduler_context_) == 0);
  // Resumed: scheduler set us running again.
  asan_back_in_fiber(*self);
  PGASQ_CHECK(current_ == self);
}

}  // namespace pgasq::sim
