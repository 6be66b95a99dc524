// Serial-vs-parallel microbenchmark for the support/parallel.hpp layer:
//   1. the saturating BitMatrix::multiply kernel (dense and sparse
//      left factors), reported as wall time and effective GB/s, and
//   2. a figure-level percent sweep on M_2(32) (the Figure 17 workload),
//      the trial-level tier that dominates real reproduction runs.
// Each workload runs at 1, 2, and N threads (N = --threads, else
// LAMBMESH_THREADS, else hardware_concurrency) and prints the speedup
// against the exact-serial 1-thread baseline. With --json PATH the
// results are also written as a JSON document (see BENCH_parallel.json).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/bit_matrix.hpp"
#include "expt/experiments.hpp"
#include "io/cli_args.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

using namespace lamb;

namespace {

struct Result {
  std::string workload;
  int threads = 0;
  double seconds = 0.0;
  double gb_per_s = 0.0;  // 0 when the workload has no bytes-moved model
  double speedup = 1.0;   // vs the 1-thread run of the same workload
};

BitMatrix random_matrix(std::int64_t rows, std::int64_t cols, double density,
                        Rng& rng) {
  BitMatrix m(rows, cols);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      if (rng.bernoulli(density)) m.set(i, j);
    }
  }
  return m;
}

// Times `reps` products a*b. The bytes-moved model charges one read of a
// b-row (out_words words) per set bit of a, plus one write of the output:
// the word traffic of the inner OR loop if no row stopped early. The
// kernel stops a row once it fills, so on dense factors this is an upper
// bound and the GB/s figure overstates the traffic actually moved.
Result time_multiply(const char* workload, const BitMatrix& a,
                     const BitMatrix& b, int reps, int threads) {
  par::set_threads(threads);
  BitMatrix out;
  BitMatrix::multiply_into(a, b, &out);  // warm-up, outside the clock
  Stopwatch watch;
  for (int r = 0; r < reps; ++r) BitMatrix::multiply_into(a, b, &out);
  Result res;
  res.workload = workload;
  res.threads = par::threads();
  res.seconds = watch.seconds() / reps;
  const double out_words = static_cast<double>((b.cols() + 63) / 64);
  const double words_moved =
      (static_cast<double>(a.count_ones()) + a.rows()) * out_words;
  res.gb_per_s = words_moved * 8.0 / res.seconds / 1e9;
  return res;
}

Result time_sweep(const char* workload, int trials, int threads) {
  par::set_threads(threads);
  const MeshShape shape = MeshShape::cube(2, 32);
  Stopwatch watch;
  const auto rows =
      expt::percent_sweep(shape, {1.0, 2.0, 3.0}, trials, default_seed());
  Result res;
  res.workload = workload;
  res.threads = par::threads();
  res.seconds = watch.seconds();
  if (rows.empty()) res.seconds = -1.0;  // keep the optimizer honest
  return res;
}

void print_result(const Result& r) {
  std::printf("  %-28s %2d threads  %9.4f s", r.workload.c_str(), r.threads,
              r.seconds);
  if (r.gb_per_s > 0) std::printf("  %6.2f GB/s", r.gb_per_s);
  std::printf("  %5.2fx\n", r.speedup);
}

void write_json(const std::string& path, const std::vector<Result>& results) {
  const unsigned hw = std::thread::hardware_concurrency();
  support::BenchDoc doc("bench", "micro_parallel");
  doc.field("hardware_concurrency", hw);
  if (hw < 4) {
    doc.field("note",
              "machine-limited: fewer than 4 hardware threads, so wider "
              "pools cannot show wall-clock speedup; re-run on a multi-core "
              "machine for the >=2x figure");
  }
  doc.array("results");
  for (const Result& r : results) {
    doc.record({{"workload", r.workload}, {"threads", r.threads},
                {"seconds", r.seconds}, {"gb_per_s", r.gb_per_s},
                {"speedup", r.speedup}});
  }
  doc.end();
  doc.write(path);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr io::Flag kFlags[] = {io::kJsonFlag};
  const io::CliArgs args = io::parse_cli(argc, argv, {.flags = kFlags});
  const int requested = args.get_int("threads", 0);
  par::set_threads(0);
  const int max_threads = requested > 0 ? requested : par::threads();
  const std::string json_path = args.get("json");

  std::vector<int> ladder{1};
  if (max_threads >= 2) ladder.push_back(2);
  if (max_threads > 2) ladder.push_back(max_threads);

  Rng rng(default_seed());
  const BitMatrix dense_a = random_matrix(2048, 2048, 0.30, rng);
  const BitMatrix dense_b = random_matrix(2048, 2048, 0.30, rng);
  const BitMatrix sparse_a = random_matrix(2048, 2048, 0.02, rng);
  const int trials = scaled_trials(60);

  std::printf("micro_parallel: hardware_concurrency = %u, ladder = 1..%d\n\n",
              std::thread::hardware_concurrency(), max_threads);
  std::vector<Result> results;
  const auto run = [&](auto&& timer) {
    double serial_s = 0.0;
    for (int t : ladder) {
      Result r = timer(t);
      if (t == 1) serial_s = r.seconds;
      r.speedup = serial_s > 0 ? serial_s / r.seconds : 1.0;
      print_result(r);
      results.push_back(r);
    }
    std::printf("\n");
  };
  run([&](int t) {
    return time_multiply("multiply_dense_2048", dense_a, dense_b, 3, t);
  });
  run([&](int t) {
    return time_multiply("multiply_sparse_2048", sparse_a, dense_b, 3, t);
  });
  run([&](int t) { return time_sweep("percent_sweep_2d32", trials, t); });

  if (!json_path.empty()) write_json(json_path, results);
  par::set_threads(0);
  return 0;
}
