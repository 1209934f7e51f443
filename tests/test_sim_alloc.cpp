// Allocation count of the engine's warm wake path. This file builds into
// its own test binary (pgasq_alloc_tests): it counts allocations by
// replacing the global operator new, and a replacement in the shared
// test binary would route every test's allocations around the ASan
// new/delete mismatch checks. Under ASan it installs the sanitizer's
// malloc hook instead and replaces nothing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/engine.hpp"

namespace {
bool g_count_news = false;
std::uint64_t g_news = 0;
}  // namespace

#if PGASQ_ASAN_FIBERS
extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));

namespace {
void count_malloc(const volatile void*, std::size_t) {
  if (g_count_news) ++g_news;
}
void ignore_free(const volatile void*) {}
const bool g_hooks_installed =
    __sanitizer_install_malloc_and_free_hooks(count_malloc, ignore_free) != 0;
}  // namespace
#else
namespace {
const bool g_hooks_installed = true;
void* counted_new(std::size_t n) {
  if (g_count_news) ++g_news;
  return std::malloc(n == 0 ? 1 : n);
}
// Out of line, so the compiler does not see free() paired with new.
[[gnu::noinline]] void counted_delete(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_new(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_new(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_new(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_new(n); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_delete(p); }
#endif

namespace pgasq::sim {
namespace {

// Once the heap and the closure pool have grown, fiber wakes (sleep_for,
// resume) and small closures cycle without touching the allocator.
TEST(Engine, WakesDoNotAllocate) {
  ASSERT_TRUE(g_hooks_installed);
  constexpr int kWarm = 64;
  constexpr int kCycles = 10000;
  Engine engine;
  int hits = 0;
  Fiber& waiter = engine.spawn("waiter", [&] {
    for (int i = 0; i < kWarm + kCycles; ++i) engine.suspend();
  });
  engine.spawn("waker", [&] {
    for (int i = 0; i < kWarm + kCycles; ++i) {
      if (i == kWarm) g_count_news = true;
      engine.resume(waiter);
      engine.schedule_after(0, [&hits] { ++hits; });
      engine.sleep_for(1);
    }
    g_count_news = false;
  });
  // The counter sees an allocation.
  g_news = 0;
  g_count_news = true;
  int* volatile probe = new int(1);
  g_count_news = false;
  delete probe;
  EXPECT_EQ(g_news, 1u);
  g_news = 0;
  engine.run();
  g_count_news = false;
  EXPECT_EQ(g_news, 0u);
  EXPECT_EQ(hits, kWarm + kCycles);
  EXPECT_EQ(engine.fiber_switches(), 2u * (kWarm + kCycles) + 2);
}

}  // namespace
}  // namespace pgasq::sim
