#include "support/allocation_counter.h"

#include <cstdlib>
#include <new>

namespace {
thread_local bool tl_armed = false;
thread_local int64_t tl_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (tl_armed) ++tl_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace qsnc::test_support {

int64_t count_allocations(const std::function<void()>& fn) {
  tl_allocations = 0;
  tl_armed = true;
  fn();
  tl_armed = false;
  return tl_allocations;
}

}  // namespace qsnc::test_support
