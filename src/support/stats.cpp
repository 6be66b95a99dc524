#include "support/stats.hpp"

#include <algorithm>

#include "support/quantiles.hpp"

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

PairedOverhead paired_overhead(int pairs,
                               const std::function<double(int)>& run) {
  PairedOverhead out;
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    double t[2];
    const int first = p % 2;
    t[first] = run(first);
    t[1 - first] = run(1 - first);
    for (int v = 0; v < 2; ++v) out.best[v] = std::min(out.best[v], t[v]);
    ratios.push_back(t[1] / t[0]);
  }
  std::sort(ratios.begin(), ratios.end());
  out.median_pct = (support::quantile_sorted(ratios, 0.5) - 1.0) * 100.0;
  out.iqr_pct = (support::quantile_sorted(ratios, 0.75) -
                 support::quantile_sorted(ratios, 0.25)) *
                100.0;
  return out;
}

}  // namespace lamb
