// Unit tests for the support module: RNG determinism and distribution
// sanity, sampling without replacement, accumulator statistics, the
// interleaved best-of-N timer, bitsets, environment helpers, and the JSON
// writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "support/bitset.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace lamb {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

// Pins the below() stream: 27 calls over bounds from 1 to 2^64 - 1. Bound
// 2^63 + 1 rejects about half its draws; here its first call rejects four
// and its last one, so the generator ends exactly 32 draws on. Every route
// tie-break and fault draw in the digests goes through below().
TEST(Rng, BelowGoldenStream) {
  const std::uint64_t bounds[] = {
      1, 2, 3, 7, 1000, (1ULL << 32) + 1, (1ULL << 63) + 1, 3ULL << 62,
      ~0ULL};
  const std::uint64_t want[3][9] = {
      {0x0, 0x1, 0x0, 0x1, 0x305, 0x3eaff086, 0x5c3442844f9c01f0,
       0xb2e45da2867310a2, 0xe1ca930597a23685},
      {0x0, 0x1, 0x0, 0x0, 0x28c, 0xcf5faf72, 0x337235cbbc24a811,
       0x7ca5bc282cb6898c, 0x4dd238a533e0688c},
      {0x0, 0x0, 0x1, 0x0, 0x1f6, 0x3d87f581, 0x4ae69b5325e0bdce,
       0xb8f8c2c08e539153, 0x809b649a2194f238}};
  Rng rng(2024);
  for (const auto& row : want) {
    for (std::size_t i = 0; i < std::size(bounds); ++i) {
      EXPECT_EQ(rng.below(bounds[i]), row[i]) << "bound " << bounds[i];
    }
  }
  const std::array<std::uint64_t, 4> state{
      0xba68376069880e20, 0x0a23a0dcab0d7681, 0xd11d589503f71b84,
      0x445d1484c97181ee};
  EXPECT_EQ(rng.state(), state);
  Rng draws(2024);
  for (int i = 0; i < 32; ++i) draws();
  EXPECT_EQ(draws.state(), state);
}

TEST(Rng, UniformCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChildSeedsDiffer) {
  Rng rng(9);
  EXPECT_NE(rng.child_seed(0), rng.child_seed(1));
  EXPECT_NE(rng.child_seed(1), rng.child_seed(2));
}

TEST(Rng, ChildSeedsStableAcrossCalls) {
  Rng a(9), b(9);
  EXPECT_EQ(a.child_seed(5), b.child_seed(5));
}

TEST(SampleWithoutReplacement, SizeAndUniqueness) {
  Rng rng(17);
  for (std::int64_t n : {10, 100, 1000}) {
    for (std::int64_t k : {std::int64_t{0}, std::int64_t{1}, n / 2, n}) {
      auto sample = sample_without_replacement(n, k, rng);
      EXPECT_EQ(static_cast<std::int64_t>(sample.size()), k);
      EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
      EXPECT_EQ(std::adjacent_find(sample.begin(), sample.end()), sample.end());
      for (auto v : sample) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, n);
      }
    }
  }
}

TEST(SampleWithoutReplacement, UniformMarginals) {
  // Each element should appear with probability k/n.
  Rng rng(23);
  const std::int64_t n = 20, k = 5;
  std::vector<int> hits(n, 0);
  const int reps = 4000;
  for (int r = 0; r < reps; ++r) {
    for (auto v : sample_without_replacement(n, k, rng)) {
      hits[static_cast<std::size_t>(v)]++;
    }
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / reps, 0.25, 0.05);
  }
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, SingleSampleVarianceZero) {
  Accumulator acc;
  acc.add(7.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.min(), 7.0);
  EXPECT_EQ(acc.max(), 7.0);
}

// The timer's contract: reps run interleaved A0 B0 A1 B1 ..., and each
// variant keeps its own minimum, wherever in the rounds it fell.
TEST(BestOfInterleaved, InterleavesRepsAndKeepsEachMinimum) {
  const double times[2][3] = {{3.0, 1.0, 2.0}, {0.5, 4.0, 0.25}};
  std::vector<std::pair<std::size_t, int>> calls;
  int rep[2] = {0, 0};
  const std::vector<double> best =
      best_of_interleaved(3, 2, [&](std::size_t v) {
        calls.push_back({v, rep[v]});
        return times[v][rep[v]++];
      });
  const std::vector<std::pair<std::size_t, int>> order = {
      {0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}};
  EXPECT_EQ(calls, order);
  EXPECT_EQ(best, (std::vector<double>{1.0, 0.25}));
}

TEST(BestOfInterleaved, OneVariantAlone) {
  int calls = 0;
  const double times[] = {0.2, 0.1, 0.3, 0.4};
  const std::vector<double> best =
      best_of_interleaved(4, 1, [&](std::size_t v) {
        EXPECT_EQ(v, 0u);
        return times[calls++];
      });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(best, (std::vector<double>{0.1}));
}

// Pairs alternate which side runs first; every ratio is variant over
// baseline whatever the order (here 1.5, 0.5, 1.5), and each side keeps
// its own minimum.
TEST(PairedOverhead, AlternatesOrderAndTakesTheMedianRatio) {
  const double times[2][3] = {{2.0, 4.0, 1.0}, {3.0, 2.0, 1.5}};
  std::vector<int> calls;
  int rep[2] = {0, 0};
  const PairedOverhead got = paired_overhead(3, [&](int v) {
    calls.push_back(v);
    return times[v][rep[v]++];
  });
  EXPECT_EQ(calls, (std::vector<int>{0, 1, 1, 0, 0, 1}));
  EXPECT_DOUBLE_EQ(got.median_pct, 50.0);
  EXPECT_DOUBLE_EQ(got.iqr_pct, 100.0);
  EXPECT_EQ(got.best[0], 1.0);
  EXPECT_EQ(got.best[1], 1.5);
}

TEST(Bits, SetTestReset) {
  Bits b(130);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2);
}

TEST(Bits, OrAndOperations) {
  Bits a(100), b(100);
  a.set(3);
  a.set(70);
  b.set(70);
  b.set(99);
  Bits o = a;
  o |= b;
  EXPECT_EQ(o.count(), 3);
  Bits n = a;
  n &= b;
  EXPECT_EQ(n.count(), 1);
  EXPECT_TRUE(n.test(70));
}

TEST(Bits, ForEachVisitsAscending) {
  Bits b(200);
  const std::vector<std::int64_t> want{0, 63, 64, 127, 199};
  for (auto i : want) b.set(i);
  std::vector<std::int64_t> got;
  b.for_each([&](std::int64_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(Bits, AnyAndClear) {
  Bits b(10);
  EXPECT_FALSE(b.any());
  b.set(9);
  EXPECT_TRUE(b.any());
  b.clear();
  EXPECT_FALSE(b.any());
}

TEST(Env, FallbackWhenUnset) {
  ::unsetenv("LAMBMESH_TEST_UNSET");
  EXPECT_EQ(env_long("LAMBMESH_TEST_UNSET", 5), 5);
  EXPECT_EQ(env_double("LAMBMESH_TEST_UNSET", 1.5), 1.5);
}

TEST(Env, ParsesValues) {
  ::setenv("LAMBMESH_TEST_VAL", "12", 1);
  EXPECT_EQ(env_long("LAMBMESH_TEST_VAL", 5), 12);
  ::setenv("LAMBMESH_TEST_VAL", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("LAMBMESH_TEST_VAL", 0.0), 2.5);
  ::unsetenv("LAMBMESH_TEST_VAL");
}

TEST(Env, ScaledTrialsMultiplier) {
  ::unsetenv("LAMBMESH_TRIALS");
  EXPECT_EQ(scaled_trials(100), 100);
  ::setenv("LAMBMESH_TRIALS", "2.5", 1);
  EXPECT_EQ(scaled_trials(100), 250);
  ::setenv("LAMBMESH_TRIALS", "0.001", 1);
  EXPECT_EQ(scaled_trials(100), 1);  // at least one trial
  ::unsetenv("LAMBMESH_TRIALS");
}

using support::BenchDoc;
using support::JsonWriter;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Json, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(support::json_string("a\"b\\c\nd\te\x01" "f"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
  EXPECT_EQ(support::json_string(""), "\"\"");
}

TEST(Json, NonFiniteNumbersAreNull) {
  EXPECT_EQ(support::json_number(std::nan("")), "null");
  EXPECT_EQ(support::json_number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(support::json_number(-std::numeric_limits<double>::infinity()),
            "null");
}

TEST(Json, NumbersPrintShortestRoundTrip) {
  EXPECT_EQ(support::json_number(0.99), "0.99");
  EXPECT_EQ(support::json_number(2.5), "2.5");
  EXPECT_EQ(support::json_number(3.0), "3");
  EXPECT_EQ(support::json_number(0.1 + 0.2), "0.30000000000000004");
  JsonWriter w;
  w.begin_array(JsonWriter::kInline)
      .value(-7)
      .value(std::uint64_t{18446744073709551615u})
      .value(true)
      .value(1.0)
      .end();
  EXPECT_EQ(w.str(), "[-7, 18446744073709551615, true, 1]\n");
}

TEST(Json, NestedBlockAndInlineLayout) {
  JsonWriter w;
  w.begin_object()
      .field("name", "x")
      .key("inline")
      .begin_object(JsonWriter::kInline)
      .field("a", 1)
      .array("b")
      .value(2)
      .end()
      .end()
      .array("rows")
      .begin_object(JsonWriter::kInline)
      .field("k", 1)
      .end()
      .begin_array()
      .end()
      .end()
      .object("empty")
      .end()
      .end();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"inline\": {\"a\": 1, \"b\": [2]},\n"
            "  \"rows\": [\n"
            "    {\"k\": 1},\n"
            "    []\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

TEST(Json, WriteFileReportsFailure) {
  EXPECT_FALSE(support::write_file("/nonexistent-dir/sub/x.json", "{}\n"));
  const std::string path = ::testing::TempDir() + "support_test_write.json";
  ASSERT_TRUE(support::write_file(path, "{}\n"));
  EXPECT_EQ(slurp(path), "{}\n");
  std::remove(path.c_str());
}

TEST(Json, BenchDocEnvelopeAndGates) {
  BenchDoc doc("bench", "unit");
  doc.field("ratio", 0.5).field("flag", 1);
  doc.gate_max("ratio", 1.5).gate_min("ratio", 0.25).gate_equals("flag", 1);
  const std::string path = ::testing::TempDir() + "support_test_doc.json";
  testing::internal::CaptureStdout();
  doc.write(path);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "wrote " + path + "\n");
  const std::string text = slurp(path);
  std::remove(path.c_str());
  EXPECT_EQ(text.rfind("{\n  \"bench\": \"unit\",\n  \"schema_version\": 2,\n"
                       "  \"machine\": {\"hostname\": ",
                       0),
            0u);
  EXPECT_NE(text.find("  \"ratio\": 0.5,\n  \"flag\": 1,\n"),
            std::string::npos);
  EXPECT_NE(text.find("  \"gates\": [\n"
                      "    {\"metric\": \"ratio\", \"max\": 1.5},\n"
                      "    {\"metric\": \"ratio\", \"min\": 0.25},\n"
                      "    {\"metric\": \"flag\", \"equals\": 1}\n"
                      "  ]\n}\n"),
            std::string::npos);
}

TEST(Json, BenchDocWriteErrorExitsTwo) {
  EXPECT_EXIT(BenchDoc("bench", "unit").write("/nonexistent-dir/x.json"),
              testing::ExitedWithCode(2), "cannot write /nonexistent-dir");
}

}  // namespace
}  // namespace lamb
