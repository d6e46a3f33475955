// Counts the heap allocations a piece of code makes. Linking
// allocation_counter.cpp into a test binary replaces the global operator
// new with one that counts (per thread, only while armed) and then defers
// to malloc.
#pragma once

#include <cstdint>
#include <functional>

namespace qsnc::test_support {

/// Heap allocations the calling thread makes inside fn().
int64_t count_allocations(const std::function<void()>& fn);

}  // namespace qsnc::test_support
