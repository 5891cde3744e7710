// Replaces the global allocation functions so the benchmark can count every
// heap allocation the process makes (runtime.allocs_per_request). They
// forward to malloc/free; counting is gated by a flag that only the traced
// run turns on.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  // aligned_alloc wants the size to be a multiple of the alignment.
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

// libstdc++'s array, nothrow and sized forms forward to these four, so
// replacing them is enough to count every allocation.
void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
