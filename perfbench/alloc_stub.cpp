// The timed executable keeps the standard allocator: no counting.
#include "alloc_count.h"

namespace perfbench {

bool alloc_counting_linked() { return false; }
void alloc_counting(bool) {}
AllocTally alloc_tally() { return {}; }

}  // namespace perfbench
