// Counting global operator new for the traced binary only: each thread
// counts its own heap allocations (no shared atomic on the hot path).
// The untraced binary links the default allocator, so the counter's
// cost never reaches the end-to-end numbers.
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {
thread_local int64_t t_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpbench {
int64_t ThreadAllocCount() { return t_allocs; }
}  // namespace tpbench
