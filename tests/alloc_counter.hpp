// Global allocation counter for tests that prove a code window allocates
// nothing (or only so many bytes): replaces every form of global operator
// new/delete — plain, array, nothrow, aligned, and the sized deletes — so
// every heap request passes through one counted malloc/free pair.
//
// Replace all of them or none: a form left to the runtime (or to a
// sanitizer's interceptor) allocates through its own allocator, and the
// replaced delete then frees that block — an alloc-dealloc mismatch under
// ASan (libstdc++'s std::stable_sort buffer, for one, uses the nothrow
// form).
//
// Include from exactly one source file per test binary: the replacement
// functions are ordinary (non-inline) definitions, so a second including
// translation unit in the same binary would not link.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

/// operator new calls and bytes requested since the binary started.
inline std::atomic<std::size_t> g_allocations{0};
inline std::atomic<std::size_t> g_allocated_bytes{0};

inline void* counted_malloc(std::size_t size,
                            std::align_val_t align = {}) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;  // new(0) must return a unique pointer
  const auto alignment = static_cast<std::size_t>(align);
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  void* p = nullptr;
  return ::posix_memalign(&p, alignment, size) == 0 ? p : nullptr;
}

inline void* counted_new(std::size_t size, std::align_val_t align = {}) {
  if (void* p = counted_malloc(size, align)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_malloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_malloc(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
