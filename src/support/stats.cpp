#include "support/stats.hpp"

#include <algorithm>

namespace lamb {

void Accumulator::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

std::vector<double> best_of_interleaved(
    int reps, std::size_t variants,
    const std::function<double(std::size_t)>& run) {
  std::vector<double> best(variants, std::numeric_limits<double>::infinity());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t v = 0; v < variants; ++v) {
      best[v] = std::min(best[v], run(v));
    }
  }
  return best;
}

}  // namespace lamb
