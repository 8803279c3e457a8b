#include "reference.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "probes.h"

namespace perfbench {
namespace {

std::vector<std::uint64_t> make_keys() {
  std::vector<std::uint64_t> keys(1u << 20);  // 8 MiB: beyond L2, in L3
  std::uint64_t x = 88172645463325252ULL;     // xorshift64, fixed seed
  for (std::uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  return keys;
}

}  // namespace

double reference_kernel_s() {
  static const std::vector<std::uint64_t> keys = make_keys();
  std::vector<std::uint64_t> sorted = keys;
  const double start = now_s();
  std::sort(sorted.begin(), sorted.end());
  const double elapsed = now_s() - start;
  // Keep the result observable so the sort cannot be optimized away.
  asm volatile("" : : "r"(sorted[sorted.size() / 2]) : "memory");
  return elapsed;
}

}  // namespace perfbench
