// Live-heap accounting through the benchmark binary's own replacement of
// the global operator new/delete (heap.cpp). Sizes are the allocator's
// usable sizes, so for a deterministic program the counts and the peak
// repeat exactly from run to run, which resident-set figures do not.
#pragma once

#include <cstdint>

namespace perfbench::heap {

struct Stats {
  std::uint64_t allocs = 0;      ///< operator new calls since start.
  std::uint64_t peak_bytes = 0;  ///< Most bytes live since reset_peak().
};

Stats stats();

/// Restarts peak tracking from the current live size.
void reset_peak();

}  // namespace perfbench::heap
