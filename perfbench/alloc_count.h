// Heap-allocation tally for the traced run. The traced executable links
// alloc_count.cpp, which replaces the global operator new/delete with
// counting versions; the timed executable links alloc_stub.cpp and keeps the
// standard library's allocator untouched.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTally {
  std::uint64_t count = 0;  ///< operator new calls (all forms)
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

/// True in the executable that carries the counting operator new.
bool alloc_counting_linked();
/// Starts/stops counting (process-wide; counters are never reset).
void alloc_counting(bool on);
AllocTally alloc_tally();

}  // namespace perfbench
