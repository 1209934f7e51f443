#include "sim/fiber.hpp"

#include <cstring>

#include "sim/engine.hpp"
#include "util/error.hpp"

#if PGASQ_ASAN_FIBERS
extern "C" void __lsan_ignore_object(const void* p);
#endif

// The switch, and the stub a new fiber's first switch returns into.
// Built with -fcf-protection=none: see src/sim/CMakeLists.txt.
asm(R"(
  .pushsection .text
  .globl pgasq_sim_switch_stacks
  .type pgasq_sim_switch_stacks, @function
  .p2align 4
pgasq_sim_switch_stacks:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $16, %rsp
  .cfi_adjust_cfa_offset 16
  fnstcw (%rsp)
  stmxcsr 8(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  .cfi_adjust_cfa_offset -16
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size pgasq_sim_switch_stacks, .-pgasq_sim_switch_stacks

  .type pgasq_sim_fiber_entry, @function
  .p2align 4
pgasq_sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined %rip
  movq %rbx, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size pgasq_sim_fiber_entry, .-pgasq_sim_fiber_entry
  .popsection
)");

extern "C" void pgasq_sim_fiber_entry();

namespace pgasq::sim {

namespace {
// Written at the low end of each stack; checked at the end of every
// slice to catch silent stack overflow.
constexpr std::uint64_t kStackCanary = 0x9a6b5c4d3e2f1a0bULL;

// A new fiber's first frame: what pgasq_sim_switch_stacks pops, lowest
// address first, set up for the entry stub.
struct EntryFrame {
  std::uint64_t fpu_cw;  ///< x87 control word, low 16 bits
  std::uint64_t mxcsr;   ///< low 32 bits
  void* r15;
  void* r14;
  void* r13;
  void (*r12)(Fiber*);  ///< the stub calls this with rbx
  Fiber* rbx;
  void* rbp;
  void (*ret)();
};
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

  // The first switch in pops this frame and returns into the entry
  // stub with rsp at the 16-byte-aligned stack top, so run_body starts
  // with the ABI's call alignment. rbp = 0 ends frame-pointer walks;
  // the stub's CFI ends unwinds. The fiber starts with the spawner's
  // floating-point control state.
  const auto top = (reinterpret_cast<std::uintptr_t>(stack_.get()) + stack_bytes_) &
                   ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<EntryFrame*>(top - sizeof(EntryFrame));
  std::uint16_t fpu_cw;
  std::uint32_t mxcsr;
  asm volatile("fnstcw %0\n\tstmxcsr %1" : "=m"(fpu_cw), "=m"(mxcsr));
  *frame = EntryFrame{fpu_cw,           mxcsr, nullptr, nullptr, nullptr,
                      &Fiber::run_body, this,  nullptr, &pgasq_sim_fiber_entry};
  sp_ = frame;
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

void Fiber::run_body(Fiber* self) {
  self->engine_.asan_finish_switch(self);  // first entry on this stack
  try {
    self->body_();
  } catch (...) {
    self->engine_.set_pending_exception(std::current_exception());
  }
  self->state_ = State::kFinished;
  // This stack is never resumed.
  self->engine_.on_fiber_finished(*self);
}

void Fiber::check_canary() const {
  std::uint64_t value;
  std::memcpy(&value, stack_.get(), sizeof value);
  PGASQ_CHECK(value == kStackCanary,
              << "stack overflow detected in fiber '" << name_ << "' (" << stack_bytes_
              << " bytes)");
}

}  // namespace pgasq::sim
