// Global operator new/delete replacements that count allocations while a
// timed window is open (see alloc_count.h). Outside a window the counter
// is left alone, so set-up, trace generation and output checks never show
// up in the per-packet figures.
#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void StartAllocWindow() { g_counting.store(true, std::memory_order_release); }

void StopAllocWindow() { g_counting.store(false, std::memory_order_release); }

uint64_t AllocCount() { return g_allocs.load(std::memory_order_acquire); }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (perfbench::g_counting.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
