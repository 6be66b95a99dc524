#include "support/rng.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_set>

namespace lamb {

std::uint64_t Rng::below_rejecting(std::uint64_t bound, __uint128_t m) {
  const std::uint64_t threshold = -bound % bound;
  while (static_cast<std::uint64_t>(m) < threshold) {
    m = static_cast<__uint128_t>((*this)()) * bound;
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() {
  // 53 random mantissa bits.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::child_seed(std::uint64_t index) {
  std::uint64_t sm = state_[0] ^ (0xd1342543de82ef95ULL * (index + 1));
  return splitmix64(sm);
}

std::vector<std::int64_t> sample_without_replacement(std::int64_t n,
                                                     std::int64_t k, Rng& rng) {
  assert(k >= 0 && k <= n);
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  if (k == 0) return out;
  if (k * 4 >= n) {
    // Partial Fisher-Yates over an explicit index array.
    std::vector<std::int64_t> pool(static_cast<std::size_t>(n));
    std::iota(pool.begin(), pool.end(), std::int64_t{0});
    for (std::int64_t i = 0; i < k; ++i) {
      const std::int64_t j = i + static_cast<std::int64_t>(
                                     rng.below(static_cast<std::uint64_t>(n - i)));
      std::swap(pool[static_cast<std::size_t>(i)], pool[static_cast<std::size_t>(j)]);
      out.push_back(pool[static_cast<std::size_t>(i)]);
    }
  } else {
    // Floyd's algorithm: k iterations, expected O(k) hash operations.
    std::unordered_set<std::int64_t> chosen;
    chosen.reserve(static_cast<std::size_t>(k) * 2);
    for (std::int64_t j = n - k; j < n; ++j) {
      const std::int64_t t =
          static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(j) + 1));
      if (!chosen.insert(t).second) chosen.insert(j);
    }
    out.assign(chosen.begin(), chosen.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace lamb
