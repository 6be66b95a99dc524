// Small measurement helpers for the pipeline benchmark: the outcome
// digest, nearest-rank percentiles with their sample-count rule, the
// host reference kernel, and peak RSS. Nothing here calls into lambmesh,
// so a change to the program cannot change how it is measured.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace pipebench {

// FNV-1a over 64-bit words (byte at a time, little end first).
struct Fnv {
  std::uint64_t value = 1469598103934665603ULL;
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      value ^= (x >> (8 * i)) & 0xff;
      value *= 1099511628211ULL;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

// Nearest-rank quantile of an unsorted sample (0 when empty).
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[rank == 0 ? 0 : rank - 1];
}

// A percentile is reported only when at least ten samples lie beyond it.
inline bool percentile_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

// Fixed host workload timed once per round. It does the program's kind
// of work on a mesh of the workload's shape, with its own code and no
// program calls: dimension-ordered bitset floods around a fixed set of
// faulty nodes, flood intersections scanned for the shortest-path
// intermediate (ties broken by a random draw) with a hop list built for
// the pick, a pseudo-random read/write walk over a 512 KB buffer, and
// cycle-stepped worms acquiring and releasing the links of
// dimension-ordered paths.
// Host-time samples of a round are scaled by kNominalUs / measured, so a
// slow spell of the shared machine moves the kernel and the samples
// together, whichever of ALU, branch or cache pressure it comes from.
class RefKernel {
 public:
  static constexpr double kNominalUs = 100.0;

  RefKernel(int dim, int width) : dim_(dim), width_(width) {
    size_ = 1;
    for (int j = 0; j < dim_; ++j) size_ *= width_;
    words_ = (size_ + 63) / 64;
    // About a quarter of a pass each for floods, scans, the walk and the
    // worms, on M_3(16) and M_2(32) alike.
    floods_per_pass_ = std::max<int>(1, static_cast<int>(12288 / size_));
    scans_per_pass_ = std::max<int>(1, static_cast<int>(9216 / size_));
    owner_.assign(static_cast<std::size_t>(size_ * 2 * dim_), -1);
    faulty_.assign(static_cast<std::size_t>(size_), 0);
    for (auto& f : faulty_) f = next() % 20 == 0 ? 1 : 0;  // 5% faulty
    for (auto& flood : floods_) flood.assign(words_, 0);
    for (int s = 0; s < kFloods; ++s) flood(s);
    buf_.resize(kWalkWords);
    for (auto& w : buf_) w = next();
  }

  // One pass; returns microseconds. The caller supplies the clock so the
  // kernel and the samples it scales read the same one.
  template <typename Clock>
  double run(Clock&& now_us) {
    const double start = now_us();
    for (int i = 0; i < floods_per_pass_; ++i) flood(turn_++ % kFloods);
    std::uint64_t acc = 0;
    for (int i = 0; i < scans_per_pass_; ++i) acc += scan();
    acc += walk();
    acc += worms();
    sink_ += acc;  // keeps the work observable
    return now_us() - start;
  }

  // Median of nine short passes: what a round (or a set-up) is scaled
  // by. Short passes and the median leave out passes the host preempted,
  // as the medians of the short samples they scale do.
  template <typename Clock>
  double measure(Clock&& now_us) {
    double passes[9];
    for (double& p : passes) p = run(now_us);
    std::sort(passes, passes + 9);
    return passes[4];
  }

 private:
  static constexpr int kFloods = 16;
  static constexpr std::size_t kWalkWords = 512 * 1024 / sizeof(std::uint64_t);
  static constexpr int kWalkSteps = 10000;
  static constexpr int kWorms = 72;
  static constexpr int kWormFlits = 8;

  std::uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::int64_t node() {
    return static_cast<std::int64_t>(next() %
                                     static_cast<std::uint64_t>(size_));
  }

  void coords(std::int64_t id, int* c) const {
    for (int j = 0; j < dim_; ++j) {
      c[j] = static_cast<int>(id % width_);
      id /= width_;
    }
  }

  // Forward flood of a random good node, one dimension at a time: every
  // reached node extends along the dimension both ways until a fault.
  void flood(int slot) {
    std::vector<std::uint64_t>& out = floods_[static_cast<std::size_t>(slot)];
    std::int64_t src = 0;
    do {
      src = node();
    } while (faulty_[static_cast<std::size_t>(src)] != 0);
    std::vector<std::uint64_t> cur(words_, 0);
    cur[static_cast<std::size_t>(src / 64)] |= 1ULL << (src % 64);
    std::int64_t stride = 1;
    int c[8];
    for (int j = 0; j < dim_; ++j, stride *= width_) {
      std::vector<std::uint64_t> nxt(words_, 0);
      for (std::size_t w = 0; w < words_; ++w) {
        for (std::uint64_t bits = cur[w]; bits != 0; bits &= bits - 1) {
          const std::int64_t id =
              static_cast<std::int64_t>(w * 64) + __builtin_ctzll(bits);
          coords(id, c);
          for (const int step : {1, -1}) {
            std::int64_t at = id;
            for (int x = c[j]; x >= 0 && x < width_;
                 x += step, at += step * stride) {
              if (faulty_[static_cast<std::size_t>(at)] != 0) break;
              nxt[static_cast<std::size_t>(at / 64)] |= 1ULL << (at % 64);
            }
          }
        }
      }
      cur.swap(nxt);
    }
    out.swap(cur);
  }

  // Intersects two floods and picks the intermediate with the shortest
  // src->u->dst path, then lists the hops of the pick.
  std::uint64_t scan() {
    const auto& a = floods_[next() % kFloods];
    const auto& b = floods_[next() % kFloods];
    int cs[8], cd[8], cu[8];
    coords(node(), cs);
    coords(node(), cd);
    std::vector<std::uint64_t> both(a);
    for (std::size_t w = 0; w < words_; ++w) both[w] &= b[w];
    int best = 1 << 30;
    std::uint64_t ties = 0;
    std::int64_t chosen = -1;
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t bits = both[w]; bits != 0; bits &= bits - 1) {
        const std::int64_t u =
            static_cast<std::int64_t>(w * 64) + __builtin_ctzll(bits);
        coords(u, cu);
        int total = 0;
        for (int j = 0; j < dim_; ++j) {
          total += std::abs(cs[j] - cu[j]) + std::abs(cu[j] - cd[j]);
        }
        if (total > best) continue;
        if (total < best) {
          best = total;
          ties = 1;
          chosen = u;
        } else if (next() % ++ties == 0) {
          chosen = u;
        }
      }
    }
    if (chosen < 0) return 0;
    coords(chosen, cu);
    std::vector<std::int8_t> hops;
    for (int j = 0; j < dim_; ++j) {
      for (int s = std::abs(cs[j] - cu[j]); s > 0; --s) {
        hops.push_back(static_cast<std::int8_t>(j));
      }
    }
    for (int j = 0; j < dim_; ++j) {
      for (int s = std::abs(cu[j] - cd[j]); s > 0; --s) {
        hops.push_back(static_cast<std::int8_t>(j + 8));
      }
    }
    return static_cast<std::uint64_t>(chosen) + hops.size();
  }

  std::uint64_t walk() {
    std::uint64_t x = state_;
    std::uint64_t acc = 0;
    for (int i = 0; i < kWalkSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint64_t& word = buf_[x & (kWalkWords - 1)];
      acc += word;
      word = acc ^ x;
    }
    state_ = x;
    return acc;
  }

  // Worms between random node pairs, each on its dimension-ordered path
  // (links numbered node * 2d + 2j + direction). Every cycle each worm's
  // head takes its next link unless another worm holds it, and its tail
  // releases the link it leaves, until every worm has drained.
  std::uint64_t worms() {
    paths_.clear();
    starts_.assign(1, 0);
    int c[8], d[8];
    for (int w = 0; w < kWorms; ++w) {
      coords(node(), c);
      coords(node(), d);
      std::int64_t at = 0, stride = 1;
      for (int j = 0; j < dim_; ++j, stride *= width_) at += c[j] * stride;
      stride = 1;
      for (int j = 0; j < dim_; ++j, stride *= width_) {
        const int step = d[j] > c[j] ? 1 : -1;
        for (; c[j] != d[j]; c[j] += step, at += step * stride) {
          paths_.push_back(static_cast<std::int32_t>(
              at * 2 * dim_ + 2 * j + (step > 0 ? 1 : 0)));
        }
      }
      starts_.push_back(static_cast<std::int32_t>(paths_.size()));
    }
    heads_.assign(kWorms, 0);
    std::uint64_t moves = 0;
    for (int live = kWorms; live > 0;) {
      live = 0;
      for (int w = 0; w < kWorms; ++w) {
        const std::int32_t* path = paths_.data() + starts_[w];
        const int len = starts_[w + 1] - starts_[w];
        int& head = heads_[static_cast<std::size_t>(w)];
        if (head >= len + kWormFlits) continue;
        ++live;
        if (head < len) {
          std::int32_t& owner = owner_[static_cast<std::size_t>(path[head])];
          if (owner >= 0 && owner != w) continue;
          owner = w;
        }
        const int tail = head - kWormFlits;
        if (tail >= 0 && tail < len) {
          std::int32_t& owner = owner_[static_cast<std::size_t>(path[tail])];
          if (owner == w) owner = -1;
        }
        ++head;
        ++moves;
      }
    }
    return moves;
  }

  int dim_;
  int width_;
  std::int64_t size_ = 0;
  std::size_t words_ = 0;
  int floods_per_pass_ = 1;
  int scans_per_pass_ = 1;
  std::vector<std::uint8_t> faulty_;
  std::vector<std::uint64_t> floods_[kFloods];
  std::vector<std::uint64_t> buf_;
  std::vector<std::int32_t> owner_;  // worm holding each directed link
  std::vector<std::int32_t> paths_, starts_;
  std::vector<int> heads_;
  std::uint64_t state_ = 0x2545f4914f6cdd1dULL;
  std::uint64_t sink_ = 0;
  int turn_ = 0;
};

}  // namespace pipebench
