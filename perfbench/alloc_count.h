#ifndef PIMENTO_PERFBENCH_ALLOC_COUNT_H_
#define PIMENTO_PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Heap allocations (every replaced `operator new` form) made so far by the
/// calling thread. The benchmark binary replaces the global allocation
/// functions (alloc_count.cc); the engine library is untouched. Reading the
/// counter before and after a call on the same thread gives that call's
/// exact allocation count.
int64_t ThreadAllocs();

}  // namespace perfbench

#endif  // PIMENTO_PERFBENCH_ALLOC_COUNT_H_
