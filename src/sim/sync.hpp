// Blocking synchronization primitives for fibers.
//
// These mirror the shapes of condition variables, mutexes and barriers
// but operate on virtual time. Because fibers are cooperative there is
// no lost-wakeup race: a fiber that checks a predicate and then calls
// wait() cannot be preempted in between. Callers still follow the
// standard `while (!pred) q.wait();` pattern because notify_all wakes
// everyone regardless of predicate.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/engine.hpp"
#include "util/time_types.hpp"

namespace pgasq::sim {

/// FIFO wait queue (condition-variable analogue).
class WaitQueue {
 public:
  explicit WaitQueue(Engine& engine) : engine_(engine) {}

  /// Blocks the calling fiber until notified.
  void wait();
  /// Blocks until notified or until absolute time `deadline`;
  /// returns true if notified, false on timeout.
  bool wait_until(Time deadline);
  /// Wakes the longest-waiting fiber (no-op when empty).
  void notify_one();
  /// Wakes all waiting fibers.
  void notify_all();

  std::size_t waiting() const { return waiters_.size(); }

 private:
  struct Waiter {
    Fiber* fiber;
    bool notified = false;
    /// wait_until's timeout event has run (it may have found the
    /// waiter already notified at the same instant).
    bool timer_fired = false;
  };
  Engine& engine_;
  std::deque<Waiter*> waiters_;
};

/// Fiber mutex with contention statistics. Used to model the PAMI
/// per-context lock that the paper identifies as the bottleneck when
/// the main thread and the asynchronous progress thread share one
/// communication context (S III-D).
class SimMutex {
 public:
  explicit SimMutex(Engine& engine) : engine_(engine), queue_(engine) {}

  void lock();
  bool try_lock();
  void unlock();
  bool locked() const { return owner_ != nullptr; }
  /// True when the calling fiber holds the mutex.
  bool held_by_current() const { return owner_ != nullptr && owner_ == engine_.current(); }

  /// Number of lock() calls that had to block.
  std::uint64_t contended_acquires() const { return contended_; }
  /// Total virtual time fibers spent blocked on this mutex.
  Time total_wait_time() const { return total_wait_; }

 private:
  Engine& engine_;
  WaitQueue queue_;
  Fiber* owner_ = nullptr;
  std::uint64_t contended_ = 0;
  Time total_wait_ = 0;
};

/// RAII lock guard for SimMutex.
class SimLockGuard {
 public:
  explicit SimLockGuard(SimMutex& m) : m_(m) { m_.lock(); }
  ~SimLockGuard() { m_.unlock(); }
  SimLockGuard(const SimLockGuard&) = delete;
  SimLockGuard& operator=(const SimLockGuard&) = delete;

 private:
  SimMutex& m_;
};

/// Reusable barrier for a fixed participant count.
class SimBarrier {
 public:
  SimBarrier(Engine& engine, std::size_t participants);

  /// Blocks until all participants arrive; the last arriver releases
  /// everyone and resets the barrier for the next round.
  void arrive_and_wait();

  std::size_t participants() const { return participants_; }
  std::uint64_t generation() const { return generation_; }

 private:
  Engine& engine_;
  WaitQueue queue_;
  std::size_t participants_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace pgasq::sim
