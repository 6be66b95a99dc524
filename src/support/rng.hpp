// Deterministic pseudo-random number generation for simulations.
//
// All Monte-Carlo experiments must be reproducible from a single seed, so
// the library ships its own small, fast generator (xoshiro256**) instead of
// relying on implementation-defined std::default_random_engine behavior.
// std::mt19937_64 would also be portable but is several times slower and
// has a large state; trial loops spawn one generator per trial.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

namespace lamb {

// splitmix64: used to expand a single seed into generator state and to
// derive independent per-trial seeds (seed-sequence style).
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** 1.0 (Blackman & Vigna, public domain reference algorithm).
// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 1) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound) without modulo bias (Lemire's
  // nearly-divisionless method). The first draw is accepted unless its
  // low product word falls below `bound`; only then does the out-of-line
  // rejection loop run, so the common call is one draw and one multiply.
  std::uint64_t below(std::uint64_t bound) {
    assert(bound > 0);
    const __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
    if (static_cast<std::uint64_t>(m) < bound) [[unlikely]] {
      return below_rejecting(bound, m);
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double uniform01();

  // True with probability p.
  bool bernoulli(double p) { return uniform01() < p; }

  // Derive a child seed for trial `index`; children are statistically
  // independent of each other and of this generator's future output.
  std::uint64_t child_seed(std::uint64_t index);

  // Exact generator state, for durable resume (a restored generator
  // continues the same stream, unlike a reseed).
  std::array<std::uint64_t, 4> state() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (int i = 0; i < 4; ++i) state_[i] = s[static_cast<std::size_t>(i)];
  }

 private:
  // below()'s slow path: `m` is the first draw times `bound`.
  std::uint64_t below_rejecting(std::uint64_t bound, __uint128_t m);

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

// k distinct values sampled uniformly from [0, n) (Floyd's algorithm for
// small k, partial Fisher-Yates when k is a large fraction of n).
// Result is sorted ascending.
std::vector<std::int64_t> sample_without_replacement(std::int64_t n,
                                                     std::int64_t k, Rng& rng);

}  // namespace lamb
