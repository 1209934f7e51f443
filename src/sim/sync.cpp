#include "sim/sync.hpp"

#include "util/error.hpp"

namespace pgasq::sim {

void WaitQueue::link(Waiter& w) {
  w.prev = tail_;
  (tail_ != nullptr ? tail_->next : head_) = &w;
  tail_ = &w;
  ++waiting_;
}

void WaitQueue::unlink(Waiter& w) {
  (w.prev != nullptr ? w.prev->next : head_) = w.next;
  (w.next != nullptr ? w.next->prev : tail_) = w.prev;
  w.prev = w.next = nullptr;
  --waiting_;
}

void WaitQueue::wait() {
  Fiber* self = engine_.current();
  PGASQ_CHECK(self != nullptr, << "WaitQueue::wait outside a fiber");
  Waiter w{self};
  link(w);
  engine_.suspend();
  PGASQ_CHECK(w.notified, << "spurious resume of fiber waiting on queue");
}

bool WaitQueue::wait_until(Time deadline) {
  Fiber* self = engine_.current();
  PGASQ_CHECK(self != nullptr, << "WaitQueue::wait_until outside a fiber");
  Waiter w{self};
  link(w);
  // Timeout event resumes the fiber unless a notify got there first.
  const EventId timeout = engine_.schedule_at(
      std::max(deadline, engine_.now()), [this, &w] {
        if (w.notified) return;  // already woken; stale timer
        unlink(w);
        engine_.resume(*w.fiber);
      });
  engine_.suspend();
  // When the notify and the deadline share an instant the timer may
  // already have fired; cancelling it then is a no-op.
  if (w.notified) engine_.cancel(timeout);
  return w.notified;
}

void WaitQueue::notify_one() {
  if (head_ == nullptr) return;
  Waiter* w = head_;
  unlink(*w);
  w->notified = true;
  engine_.resume(*w->fiber);
}

void WaitQueue::notify_all() {
  while (head_ != nullptr) notify_one();
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
