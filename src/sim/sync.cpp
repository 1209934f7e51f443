#include "sim/sync.hpp"

#include "util/error.hpp"

namespace pgasq::sim {

void WaitQueue::wait() {
  Fiber* self = engine_.current();
  PGASQ_CHECK(self != nullptr, << "WaitQueue::wait outside a fiber");
  Waiter w{self};
  waiters_.push_back(&w);
  engine_.suspend();
  PGASQ_CHECK(w.notified, << "spurious resume of fiber waiting on queue");
}

bool WaitQueue::wait_until(Time deadline) {
  Fiber* self = engine_.current();
  PGASQ_CHECK(self != nullptr, << "WaitQueue::wait_until outside a fiber");
  Waiter w{self};
  waiters_.push_back(&w);
  // Timeout event resumes the fiber unless a notify got there first.
  const EventId timeout = engine_.schedule_at(
      std::max(deadline, engine_.now()), [this, &w] {
        w.timer_fired = true;
        if (w.notified) return;  // already woken; stale timer
        for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
          if (*it == &w) {
            waiters_.erase(it);
            break;
          }
        }
        engine_.resume(*w.fiber);
      });
  engine_.suspend();
  // Cancel only a still-pending timer: when the notify and the
  // deadline share an instant the timer may already have fired.
  if (w.notified && !w.timer_fired) engine_.cancel(timeout);
  return w.notified;
}

void WaitQueue::notify_one() {
  if (waiters_.empty()) return;
  Waiter* w = waiters_.front();
  waiters_.pop_front();
  w->notified = true;
  engine_.resume(*w->fiber);
}

void WaitQueue::notify_all() {
  while (!waiters_.empty()) notify_one();
}

void SimMutex::lock() {
  Fiber* self = engine_.current();
  PGASQ_CHECK(self != nullptr, << "SimMutex::lock outside a fiber");
  PGASQ_CHECK(owner_ != self, << "recursive lock by fiber '" << self->name() << "'");
  while (owner_ != nullptr) {
    ++contended_;
    const Time t0 = engine_.now();
    queue_.wait();
    total_wait_ += engine_.now() - t0;
  }
  owner_ = self;
}

bool SimMutex::try_lock() {
  Fiber* self = engine_.current();
  PGASQ_CHECK(self != nullptr, << "SimMutex::try_lock outside a fiber");
  if (owner_ != nullptr) return false;
  owner_ = self;
  return true;
}

void SimMutex::unlock() {
  PGASQ_CHECK(owner_ == engine_.current(),
              << "unlock by non-owner fiber");
  owner_ = nullptr;
  queue_.notify_one();
}

SimBarrier::SimBarrier(Engine& engine, std::size_t participants)
    : engine_(engine), queue_(engine), participants_(participants) {
  PGASQ_CHECK(participants_ > 0);
}

void SimBarrier::arrive_and_wait() {
  PGASQ_CHECK(engine_.current() != nullptr, << "barrier outside a fiber");
  ++arrived_;
  PGASQ_CHECK(arrived_ <= participants_, << "barrier overflow");
  if (arrived_ == participants_) {
    arrived_ = 0;
    ++generation_;
    queue_.notify_all();
    return;
  }
  const std::uint64_t my_generation = generation_;
  while (generation_ == my_generation) queue_.wait();
}

}  // namespace pgasq::sim
