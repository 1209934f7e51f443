#include "sim/fiber.hpp"

#include <cstring>

#include "sim/engine.hpp"
#include "util/error.hpp"

#if PGASQ_ASAN_FIBERS
extern "C" void __lsan_ignore_object(const void* p);
#endif

namespace pgasq::sim {

namespace {
// Written at the low end of each stack; checked at the end of every
// slice to catch silent stack overflow.
constexpr std::uint64_t kStackCanary = 0x9a6b5c4d3e2f1a0bULL;
}  // namespace

Fiber::Fiber(Engine& engine, std::uint64_t id, std::string name,
             std::function<void()> body, std::size_t stack_bytes)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      stack_bytes_(stack_bytes) {
  PGASQ_CHECK(stack_bytes_ >= 16 * 1024, << "fiber stack too small: " << stack_bytes_);
  // Default-initialized char array: pages are committed only on touch.
  stack_.reset(new char[stack_bytes_]);
  std::memcpy(stack_.get(), &kStackCanary, sizeof kStackCanary);

  PGASQ_CHECK(getcontext(&context_) == 0);
  context_.uc_stack.ss_sp = stack_.get();
  context_.uc_stack.ss_size = stack_bytes_;
  context_.uc_link = nullptr;  // trampoline never returns; it swaps out

  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
}

Fiber::~Fiber() {
#if PGASQ_ASAN_FIBERS
  // A run aborted by an exception discards its blocked fibers without
  // unwinding them, so heap owned by objects on their stacks is never
  // freed. Keeping such a stack as a LeakSanitizer root reports none
  // of that heap, and every other allocation is still leak-checked.
  if (state_ != State::kFinished) __lsan_ignore_object(stack_.release());
#endif
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  const auto self = (static_cast<std::uintptr_t>(hi) << 32) |
                    static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(self)->run_body();
}

void Fiber::run_body() {
  engine_.asan_finish_switch(this);  // first entry on this stack
  try {
    body_();
  } catch (...) {
    engine_.set_pending_exception(std::current_exception());
  }
  state_ = State::kFinished;
  // This context is never resumed.
  engine_.on_fiber_finished(*this);
}

void Fiber::check_canary() const {
  std::uint64_t value;
  std::memcpy(&value, stack_.get(), sizeof value);
  PGASQ_CHECK(value == kStackCanary,
              << "stack overflow detected in fiber '" << name_ << "' (" << stack_bytes_
              << " bytes)");
}

}  // namespace pgasq::sim
