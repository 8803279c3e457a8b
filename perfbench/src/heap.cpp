#include "heap.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::heap {
namespace {

// Relaxed atomics: the measured program runs on one thread (the benchmark
// pins every thread knob to 1), so these only need to be race-free.
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

void note_alloc(void* p) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t n = malloc_usable_size(p);
  const std::uint64_t live =
      g_live.fetch_add(n, std::memory_order_relaxed) + n;
  if (live > g_peak.load(std::memory_order_relaxed))
    g_peak.store(live, std::memory_order_relaxed);
}

void* alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) note_alloc(p);
  return p;
}

void* alloc_aligned(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, size);
  if (p != nullptr) note_alloc(p);
  return p;
}

void release(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

Stats stats() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_peak.load(std::memory_order_relaxed)};
}

void reset_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace perfbench::heap

using perfbench::heap::alloc;
using perfbench::heap::alloc_aligned;
using perfbench::heap::release;

void* operator new(std::size_t n) {
  if (void* p = alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = alloc_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = alloc_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return alloc_aligned(n, al);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}
