// Global heap-allocation counter for allocation-budget assertions.
//
// Including this header replaces the ordinary AND aligned global operator
// new/delete families, nothrow forms included, for the whole binary,
// counting every allocation in mage::common::alloc_count().  The library
// never includes it; it exists for test/bench mains (tests/hotpath_test.cpp,
// bench/bench_hotpath.cpp) that assert the spine's one-allocation-per-send
// budget.
//
// Every form allocates with malloc and frees with free.  A form left to the
// runtime would pair its own allocator with these frees: std::stable_sort
// takes its buffer from nothrow new and returns it through sized delete,
// which AddressSanitizer reports as an alloc-dealloc mismatch.
//
// Include from EXACTLY ONE translation unit per binary: the operators are
// deliberately non-inline definitions (replacement functions), so a second
// inclusion in the same binary is an ODR violation the linker will reject.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace mage::common {

inline std::atomic<std::uint64_t> g_alloc_count{0};

inline std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace mage::common

void* operator new(std::size_t size) {
  mage::common::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  mage::common::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t alignment =
      static_cast<std::size_t>(align) < sizeof(void*)
          ? sizeof(void*)
          : static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size == 0 ? alignment : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}

// GCC pairs `new` expressions at call sites with the free() in these
// replaced deletes and warns about a mismatch; the pairing is correct here
// because the replaced operator new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
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
#pragma GCC diagnostic pop
