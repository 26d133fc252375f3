#include "alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace simba::perfbench {
namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* try_allocate(std::size_t size, std::size_t alignment) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, alignment, size) != 0) {
    p = nullptr;
  }
  if (p != nullptr) g_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

// The throwing forms: retry through the installed new-handler, as the
// standard library's own operator new does, then throw.
void* allocate(std::size_t size, std::size_t alignment) {
  while (true) {
    if (void* p = try_allocate(size, alignment)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* allocate_nothrow(std::size_t size, std::size_t alignment) noexcept {
  try {
    return allocate(size, alignment);
  } catch (...) {
    return nullptr;
  }
}

}  // namespace

AllocCounts alloc_counts() {
  return AllocCounts{g_allocs.load(std::memory_order_relaxed)};
}

}  // namespace simba::perfbench

using simba::perfbench::allocate;
using simba::perfbench::allocate_nothrow;

namespace {
constexpr std::size_t kDefault = alignof(std::max_align_t);
std::size_t align_of(std::align_val_t a) { return static_cast<std::size_t>(a); }
}  // namespace

void* operator new(std::size_t n) { return allocate(n, kDefault); }
void* operator new[](std::size_t n) { return allocate(n, kDefault); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, kDefault);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, kDefault);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate(n, align_of(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, align_of(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
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
