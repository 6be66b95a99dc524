// Streaming statistics accumulators, a wall-clock stopwatch and the
// micro benches' interleaved timers (best-of-N, and the median of paired
// on/off ratios for small overheads), used by the experiment
// harness (paper Section 8 reports averages and maxima over 1000-trial
// sweeps, plus running times in Figure 26).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace lamb {

// Single-pass accumulator for count/mean/min/max/variance (Welford).
class Accumulator {
 public:
  void add(double x);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// Interleaved best-of-N: `reps` rounds, each calling `run(v)` once per
// variant in order (variant 0 rep 0, variant 1 rep 0, variant 0 rep 1,
// ...), so a load spike on a shared host hits every variant of a
// comparison alike instead of skewing their ratio. `run` times one rep of
// variant v itself, so untimed setup stays outside its Stopwatch, and
// returns the seconds. The result is each variant's minimum (+inf when
// reps < 1).
std::vector<double> best_of_interleaved(
    int reps, std::size_t variants,
    const std::function<double(std::size_t)>& run);

// An on/off overhead from order-alternating interleaved pairs: `pairs`
// rounds, each timing run(0) (the baseline) and run(1) (the variant) back
// to back — baseline first in even rounds, variant first in odd ones, so
// neither side always runs second on a warm cache. A load spike lands
// inside one pair and moves that pair's ratio run(1) / run(0), which the
// median shrugs off where it can swing either side's best. `run` times
// one run of side v itself and returns the seconds.
struct PairedOverhead {
  double median_pct = 0.0;  // (median ratio - 1) * 100
  double iqr_pct = 0.0;     // interquartile range of the ratios, * 100
  double best[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};  // per side
};
PairedOverhead paired_overhead(int pairs,
                               const std::function<double(int)>& run);

}  // namespace lamb
