// Tests for the Boolean matrix machinery (paper Sections 5, 6.2): unit
// tests of BitMatrix, multiply vs a naive reference, and the exact
// reproduction of the paper's Table 1 (one-round matrix R) and Table 2
// (two-round matrix R^(2) = R I R) for the 12x12 example.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "core/bit_matrix.hpp"
#include "core/lamb.hpp"
#include "core/reach_matrices.hpp"
#include "support/fnv1a.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

TEST(BitMatrix, SetGetReset) {
  BitMatrix m(3, 70);
  m.set(0, 0);
  m.set(2, 69);
  m.set(1, 64);
  EXPECT_TRUE(m.get(0, 0));
  EXPECT_TRUE(m.get(2, 69));
  EXPECT_TRUE(m.get(1, 64));
  EXPECT_FALSE(m.get(0, 1));
  EXPECT_EQ(m.count_ones(), 3);
  m.reset(1, 64);
  EXPECT_FALSE(m.get(1, 64));
}

TEST(BitMatrix, RowFullAndColumnAll) {
  BitMatrix m(2, 3);
  for (int j = 0; j < 3; ++j) m.set(0, j);
  m.set(1, 1);
  EXPECT_TRUE(m.row_full(0));
  EXPECT_FALSE(m.row_full(1));
  const Bits col_all = m.column_all();
  EXPECT_FALSE(col_all.test(0));
  EXPECT_TRUE(col_all.test(1));
  EXPECT_FALSE(col_all.test(2));
}

TEST(BitMatrix, DensityAndCount) {
  BitMatrix m(4, 4);
  m.set(0, 0);
  m.set(3, 3);
  EXPECT_EQ(m.count_ones(), 2);
  EXPECT_DOUBLE_EQ(m.density(), 2.0 / 16.0);
}

BitMatrix naive_multiply(const BitMatrix& a, const BitMatrix& b) {
  BitMatrix out(a.rows(), b.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      for (std::int64_t k = 0; k < a.cols(); ++k) {
        if (a.get(i, k) && b.get(k, j)) {
          out.set(i, j);
          break;
        }
      }
    }
  }
  return out;
}

TEST(BitMatrix, MultiplyMatchesNaiveOnRandomMatrices) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng.below(90));
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.below(90));
    const std::int64_t p = 1 + static_cast<std::int64_t>(rng.below(90));
    BitMatrix a(m, n), b(n, p);
    const double density = 0.05 + 0.4 * rng.uniform01();
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t k = 0; k < n; ++k) {
        if (rng.bernoulli(density)) a.set(i, k);
      }
    }
    for (std::int64_t k = 0; k < n; ++k) {
      for (std::int64_t j = 0; j < p; ++j) {
        if (rng.bernoulli(density)) b.set(k, j);
      }
    }
    EXPECT_EQ(BitMatrix::multiply(a, b), naive_multiply(a, b));
  }
}

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

TEST(BitMatrix, MultiplyPropertyAcrossShapesAndDensities) {
  // Covers the saturating kernel from both ends — sparse left factors
  // whose rows never fill and dense ones whose rows fill after a few ORs
  // and stop early — and the word-boundary edge cases: widths 1, 63, 64,
  // 65, 127, 128 and a couple of deliberately skewed shapes.
  const std::int64_t shapes[][3] = {{1, 1, 1},    {1, 64, 1},   {63, 65, 64},
                                    {64, 64, 64}, {65, 127, 33}, {128, 1, 190},
                                    {7, 128, 65}};
  Rng rng(2026);
  for (const auto& s : shapes) {
    for (const double density : {0.0, 0.01, 0.2, 0.6, 0.97}) {
      const BitMatrix a = random_matrix(s[0], s[1], density, rng);
      const BitMatrix b = random_matrix(s[1], s[2], density, rng);
      EXPECT_EQ(BitMatrix::multiply(a, b), naive_multiply(a, b))
          << s[0] << "x" << s[1] << "x" << s[2] << " @ " << density;
    }
  }
}

TEST(BitMatrix, MultiplyMatchesNaiveAtEveryTailWidth) {
  // Output widths on both sides of each word boundary. Dense factors fill
  // rows early, so a fill test that counted the last word's padding bits
  // as set would stop a row before its tail columns arrive; the product
  // must never set padding either (count_ones and == see every word).
  Rng rng(4242);
  for (const std::int64_t width : {1, 63, 64, 65, 128, 130}) {
    for (const std::int64_t inner : {1, 40, 130}) {
      for (const double density : {0.0, 0.05, 0.3, 0.9, 1.0}) {
        const BitMatrix a = random_matrix(37, inner, density, rng);
        const BitMatrix b = random_matrix(inner, width, density, rng);
        const BitMatrix got = BitMatrix::multiply(a, b);
        const BitMatrix want = naive_multiply(a, b);
        EXPECT_EQ(got, want) << inner << "x" << width << " @ " << density;
        EXPECT_EQ(got.count_ones(), want.count_ones());
      }
    }
  }
}

TEST(BitMatrix, MultiplyTailColumnArrivesLast) {
  // Every b-row sets all columns but the last, which only the final b-row
  // sets: each output row looks full everywhere except its tail word until
  // that row is ORed in. A fill test that let padding stand in for the
  // missing tail column would stop too early.
  for (const std::int64_t width : {1, 63, 65, 130}) {
    const std::int64_t inner = 5;
    BitMatrix b(inner, width);
    for (std::int64_t k = 0; k < inner; ++k) {
      for (std::int64_t j = 0; j + 1 < width; ++j) b.set(k, j);
    }
    b.set(inner - 1, width - 1);
    BitMatrix a(3, inner);
    for (std::int64_t k = 0; k < inner; ++k) a.set(0, k);  // reaches the tail
    a.set(1, 0);                                          // never does
    a.set(1, 2);
    const BitMatrix got = BitMatrix::multiply(a, b);
    EXPECT_EQ(got, naive_multiply(a, b)) << width;
    EXPECT_TRUE(got.row_full(0)) << width;
    EXPECT_FALSE(got.row_full(1)) << width;
    EXPECT_FALSE(got.get(1, width - 1)) << width;
  }
}

TEST(BitMatrix, MultiplySaturatingRowShapes) {
  Rng rng(515);
  const std::int64_t inner = 70;
  const std::int64_t width = 130;
  // A b-row of all ones: every a-row whose first set bit hits it fills on
  // that bit, and the bits after it must not matter.
  BitMatrix b = random_matrix(inner, width, 0.2, rng);
  for (std::int64_t j = 0; j < width; ++j) b.set(3, j);
  BitMatrix a = random_matrix(6, inner, 0.5, rng);
  for (std::int64_t k = 0; k < 3; ++k) a.reset(0, k);
  a.set(0, 3);
  for (std::int64_t k = 0; k < inner; ++k) a.reset(1, k);  // empty left row
  BitMatrix got = BitMatrix::multiply(a, b);
  EXPECT_EQ(got, naive_multiply(a, b));
  EXPECT_TRUE(got.row_full(0));
  for (std::int64_t j = 0; j < width; ++j) EXPECT_FALSE(got.get(1, j)) << j;

  // An all-zero column of b: no output row can ever fill, so every row
  // runs through all of its set bits.
  BitMatrix dense = random_matrix(inner, width, 0.95, rng);
  for (std::int64_t k = 0; k < inner; ++k) dense.reset(k, 100);
  const BitMatrix full_left = random_matrix(9, inner, 1.0, rng);
  got = BitMatrix::multiply(full_left, dense);
  EXPECT_EQ(got, naive_multiply(full_left, dense));
  for (std::int64_t i = 0; i < got.rows(); ++i) {
    EXPECT_FALSE(got.row_full(i));
    EXPECT_FALSE(got.get(i, 100));
  }
}

TEST(BitMatrix, MultiplyEmptyMatrices) {
  // Zero-row, zero-column, and zero-inner-dimension products are all legal
  // and yield all-zero results of the induced shape.
  const BitMatrix a0(0, 5), b(5, 3);
  EXPECT_EQ(BitMatrix::multiply(a0, b), BitMatrix(0, 3));
  const BitMatrix a(4, 5), b0(5, 0);
  EXPECT_EQ(BitMatrix::multiply(a, b0), BitMatrix(4, 0));
  BitMatrix inner_a(4, 0), inner_b(0, 3);
  EXPECT_EQ(BitMatrix::multiply(inner_a, inner_b), BitMatrix(4, 3));
}

TEST(BitMatrix, MultiplyIntoReusesStorage) {
  Rng rng(99);
  const BitMatrix a = random_matrix(70, 40, 0.3, rng);
  const BitMatrix b = random_matrix(40, 90, 0.3, rng);
  const BitMatrix want = naive_multiply(a, b);
  BitMatrix out;
  BitMatrix::multiply_into(a, b, &out);
  EXPECT_EQ(out, want);
  // Same-shape reuse: stale bits from the previous product must not leak.
  BitMatrix::multiply_into(a, b, &out);
  EXPECT_EQ(out, want);
  // Shape change reshapes the output.
  const BitMatrix c = random_matrix(90, 20, 0.3, rng);
  BitMatrix::multiply_into(b, c, &out);
  EXPECT_EQ(out, naive_multiply(b, c));
}

TEST(BitMatrix, MultiplyIdentityIsNoop) {
  BitMatrix a(5, 5), id(5, 5);
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    id.set(i, i);
    for (int j = 0; j < 5; ++j) {
      if (rng.bernoulli(0.4)) a.set(i, j);
    }
  }
  EXPECT_EQ(BitMatrix::multiply(a, id), a);
  EXPECT_EQ(BitMatrix::multiply(id, a), a);
}

TEST(BitMatrix, MultiplyIdenticalAcrossThreadCounts) {
  // Large enough (rows x out_words >= 2^14) that the kernel splits into
  // parallel row bands; the result must not depend on the pool width.
  Rng rng(7);
  const BitMatrix a = random_matrix(1024, 300, 0.1, rng);
  const BitMatrix b = random_matrix(300, 1024, 0.1, rng);
  par::set_threads(1);
  const BitMatrix serial = BitMatrix::multiply(a, b);
  for (int threads : {2, 8}) {
    par::set_threads(threads);
    EXPECT_EQ(BitMatrix::multiply(a, b), serial) << threads << " threads";
  }
  par::set_threads(0);
}

// --- Tables 1 and 2 --------------------------------------------------------

class PaperMatrices : public ::testing::Test {
 protected:
  void SetUp() override {
    shape_ = std::make_unique<MeshShape>(MeshShape::cube(2, 12));
    faults_ = std::make_unique<FaultSet>(*shape_);
    faults_->add_node(Point{9, 1});
    faults_->add_node(Point{11, 6});
    faults_->add_node(Point{10, 10});
    const DimOrder xy = DimOrder::ascending(2);
    ses_ = find_ses_partition(*shape_, *faults_, xy);
    des_ = find_des_partition(*shape_, *faults_, xy);
    // Map our partition indices to the paper's S1..S9 / D1..D7 numbering.
    s_of_ = {find_set(ses_, 0, 11, 0, 0),   find_set(ses_, 0, 8, 1, 1),
             find_set(ses_, 10, 11, 1, 1),  find_set(ses_, 0, 11, 2, 5),
             find_set(ses_, 0, 10, 6, 6),   find_set(ses_, 0, 11, 7, 9),
             find_set(ses_, 0, 9, 10, 10),  find_set(ses_, 11, 11, 10, 10),
             find_set(ses_, 0, 11, 11, 11)};
    d_of_ = {find_set(des_, 0, 8, 0, 11),   find_set(des_, 9, 9, 0, 0),
             find_set(des_, 9, 9, 2, 11),   find_set(des_, 10, 10, 0, 9),
             find_set(des_, 10, 10, 11, 11), find_set(des_, 11, 11, 0, 5),
             find_set(des_, 11, 11, 7, 11)};
    for (auto i : s_of_) ASSERT_GE(i, 0);
    for (auto j : d_of_) ASSERT_GE(j, 0);
  }

  std::int64_t find_set(const EquivPartition& part, Coord xlo, Coord xhi,
                        Coord ylo, Coord yhi) const {
    RectSet want(*shape_);
    want.clamp(0, xlo, xhi);
    want.clamp(1, ylo, yhi);
    for (std::int64_t i = 0; i < part.size(); ++i) {
      if (part.sets[static_cast<std::size_t>(i)] == want) return i;
    }
    return -1;
  }

  std::unique_ptr<MeshShape> shape_;
  std::unique_ptr<FaultSet> faults_;
  EquivPartition ses_, des_;
  std::array<std::int64_t, 9> s_of_{};
  std::array<std::int64_t, 7> d_of_{};
};

// Table 1 of the paper, indexed [S-1][D-1].
constexpr int kTable1[9][7] = {
    {1, 1, 0, 1, 0, 1, 0},  // S1
    {1, 0, 0, 0, 0, 0, 0},  // S2
    {0, 0, 0, 1, 0, 1, 0},  // S3
    {1, 0, 1, 1, 0, 1, 0},  // S4
    {1, 0, 1, 1, 0, 0, 0},  // S5
    {1, 0, 1, 1, 0, 0, 1},  // S6
    {1, 0, 1, 0, 0, 0, 0},  // S7
    {0, 0, 0, 0, 0, 0, 1},  // S8
    {1, 0, 1, 0, 1, 0, 1},  // S9
};

TEST_F(PaperMatrices, OneRoundMatrixMatchesTable1) {
  const ReachOracle oracle(*shape_, *faults_);
  const BitMatrix r =
      one_round_reach_matrix(oracle, ses_, des_, DimOrder::ascending(2));
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 7; ++j) {
      EXPECT_EQ(r.get(s_of_[static_cast<std::size_t>(i)],
                      d_of_[static_cast<std::size_t>(j)]),
                kTable1[i][j] == 1)
          << "R(S" << i + 1 << ", D" << j + 1 << ")";
    }
  }
}

TEST_F(PaperMatrices, TwoRoundMatrixMatchesTable2) {
  // Table 2: all ones except (S3,D5), (S8,D2), (S8,D6).
  const ReachComputation reach =
      compute_reachability(*shape_, *faults_, ascending_rounds(2, 2));
  ASSERT_EQ(reach.rk.rows(), 9);
  ASSERT_EQ(reach.rk.cols(), 7);
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 7; ++j) {
      const bool zero = (i + 1 == 3 && j + 1 == 5) ||
                        (i + 1 == 8 && j + 1 == 2) ||
                        (i + 1 == 8 && j + 1 == 6);
      EXPECT_EQ(reach.rk.get(s_of_[static_cast<std::size_t>(i)],
                             d_of_[static_cast<std::size_t>(j)]),
                !zero)
          << "R2(S" << i + 1 << ", D" << j + 1 << ")";
    }
  }
}

TEST_F(PaperMatrices, IntersectionMatrixAgainstExplicitSets) {
  const BitMatrix inter = intersection_matrix(des_, ses_);
  for (std::int64_t j = 0; j < des_.size(); ++j) {
    for (std::int64_t i = 0; i < ses_.size(); ++i) {
      bool want = false;
      des_.sets[static_cast<std::size_t>(j)].for_each([&](const Point& p) {
        if (ses_.sets[static_cast<std::size_t>(i)].contains(p)) want = true;
      });
      EXPECT_EQ(inter.get(j, i), want);
    }
  }
}

TEST_F(PaperMatrices, DistinctOrdersShareNothing) {
  // Two different per-round orderings exercise the distinct-partition path.
  const MultiRoundOrder orders{DimOrder::ascending(2), DimOrder::descending(2)};
  const ReachComputation reach = compute_reachability(*shape_, *faults_, orders);
  EXPECT_EQ(reach.ses.size(), 2u);
  EXPECT_EQ(reach.round_part, (std::vector<int>{0, 1}));
  EXPECT_EQ(reach.rk.rows(), reach.first_ses().size());
  EXPECT_EQ(reach.rk.cols(), reach.last_des().size());
}

TEST(ReachComputation, NoFaultsAllReachable) {
  const MeshShape shape = MeshShape::cube(3, 4);
  const FaultSet faults(shape);
  const ReachComputation reach =
      compute_reachability(shape, faults, ascending_rounds(3, 2));
  ASSERT_EQ(reach.rk.rows(), 1);
  ASSERT_EQ(reach.rk.cols(), 1);
  EXPECT_TRUE(reach.rk.get(0, 0));
}

TEST(ReachComputation, ChainMatchesNaiveLeftToRight) {
  // reach_chain evaluates R1 I1 R2 ... right to left; the captured factors
  // multiplied naively left to right must give the same R^(k), for k = 2,
  // 3 and 4 with orderings that repeat out of order (round_part {0,1,0}
  // and {0,1,1,0}), under node and directed-link faults.
  struct Case {
    int dim;
    Coord width;
  };
  for (const Case& c : {Case{2, 12}, Case{3, 6}}) {
    const MeshShape shape = MeshShape::cube(c.dim, c.width);
    Rng rng(static_cast<std::uint64_t>(600 + c.dim));
    FaultSet faults = FaultSet::random_nodes(shape, shape.size() / 20, rng);
    for (int added = 0; added < 6;) {
      const Point from =
          shape.point(static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(shape.size()))));
      const int dim = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.dim)));
      const Dir dir = rng.bernoulli(0.5) ? Dir::Pos : Dir::Neg;
      Point to;
      if (!shape.neighbor(from, dim, dir, &to)) continue;
      faults.add_directed_link(from, dim, dir);
      ++added;
    }
    const DimOrder asc = DimOrder::ascending(c.dim);
    const DimOrder desc = DimOrder::descending(c.dim);
    const std::vector<std::pair<MultiRoundOrder, std::vector<int>>> runs = {
        {{asc, desc}, {0, 1}},
        {{asc, desc, asc}, {0, 1, 0}},
        {{desc, asc, asc, desc}, {0, 1, 1, 0}},
    };
    for (const auto& [orders, round_part] : runs) {
      const ReachComputation reach =
          compute_reachability(shape, faults, orders);
      ASSERT_EQ(reach.round_part, round_part);
      ASSERT_EQ(reach.inters.size(), orders.size() - 1);
      BitMatrix want = reach.r[static_cast<std::size_t>(round_part[0])];
      for (std::size_t t = 1; t < orders.size(); ++t) {
        want = naive_multiply(want, reach.inters[t - 1]);
        want = naive_multiply(
            want, reach.r[static_cast<std::size_t>(round_part[t])]);
      }
      EXPECT_EQ(reach.rk, want)
          << "M_" << c.dim << "(" << c.width << ") k=" << orders.size();
      EXPECT_EQ(reach_chain(reach.r, reach.inters, reach.round_part), want);
    }
  }
}

TEST(ReachComputation, RejectsZeroRounds) {
  const MeshShape shape = MeshShape::cube(2, 4);
  const FaultSet faults(shape);
  EXPECT_THROW(compute_reachability(shape, faults, {}), std::invalid_argument);
}

// --- Paper-scale behaviour lock ---------------------------------------------

// FNV-1a over rk's shape, then its row words (bit b of word w is column
// 64w + b; tail padding zero), built from get() so any storage layout
// hashes alike.
std::uint64_t rk_digest(const BitMatrix& m) {
  support::Fnv1a h;
  h.mix(static_cast<std::uint64_t>(m.rows()));
  h.mix(static_cast<std::uint64_t>(m.cols()));
  for (std::int64_t i = 0; i < m.rows(); ++i) {
    for (std::int64_t w0 = 0; w0 < m.cols(); w0 += 64) {
      std::uint64_t word = 0;
      for (std::int64_t j = w0; j < std::min(w0 + 64, m.cols()); ++j) {
        if (m.get(i, j)) word |= std::uint64_t{1} << (j - w0);
      }
      h.mix(word);
    }
  }
  return h.h;
}

TEST(ReachComputation, PaperScaleChainPinned) {
  // The paper's two simulation meshes at k = 2 with uniformly random node
  // faults: M_2(181) at 1.5% and M_3(32) at 1%.
  // The pinned values were computed with the chain evaluated left to
  // right, so they check the right-to-left reach_chain and the product
  // kernel at the paper's scale: a flipped bit of R^(2) or a changed
  // Lamb1 lamb count fails here.
  struct Case {
    int dim;
    Coord width;
    std::int64_t faults;
    std::uint64_t seed;
    std::int64_t p, q;
    std::uint64_t digest;
    std::int64_t lambs;
  };
  const Case cases[] = {
      {2, 181, 491, 21, 657, 666, 0x0cf8bfd6a7ab0e5bULL, 678},
      {3, 32, 328, 22, 792, 789, 0xe619ae9bb1c4b36eULL, 2},
  };
  for (const Case& c : cases) {
    const MeshShape shape = MeshShape::cube(c.dim, c.width);
    Rng rng(c.seed);
    const FaultSet faults = FaultSet::random_nodes(shape, c.faults, rng);
    const ReachComputation reach =
        compute_reachability(shape, faults, ascending_rounds(c.dim, 2));
    const LambResult lambs = lamb1(shape, faults, {});
    EXPECT_EQ(reach.rk.rows(), c.p) << "M_" << c.dim << "(" << c.width << ")";
    EXPECT_EQ(reach.rk.cols(), c.q) << "M_" << c.dim << "(" << c.width << ")";
    EXPECT_EQ(rk_digest(reach.rk), c.digest)
        << "M_" << c.dim << "(" << c.width << ")";
    EXPECT_EQ(lambs.size(), c.lambs) << "M_" << c.dim << "(" << c.width << ")";
  }
}

}  // namespace
}  // namespace lamb
