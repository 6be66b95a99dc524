// Tests for the lamb solvers (paper Sections 5-7): the exact 12x12
// example, brute-force validity of Lamb1/Lamb2 lamb sets over randomized
// sweeps (meshes in 2D/3D/4D, hypercubes, link faults, one to three
// rounds, per-round orderings), the 2-approximation guarantee against the
// exact optimum, optimality of Lamb2+exact WVC, the Figure 15 adversarial
// family, and the Section 7 extensions (node values, predetermined lambs).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/lamb.hpp"
#include "core/optimal.hpp"
#include "core/theory.hpp"
#include "core/verifier.hpp"
#include "reach/route.hpp"
#include "support/rng.hpp"
#include "sweep_name.hpp"

namespace lamb {
namespace {

MeshShape paper_mesh() { return MeshShape::cube(2, 12); }

FaultSet paper_faults(const MeshShape& shape) {
  FaultSet f(shape);
  f.add_node(Point{9, 1});
  f.add_node(Point{11, 6});
  f.add_node(Point{10, 10});
  return f;
}

TEST(PaperExample, Lamb1FindsTheTwoLambsOfSection5) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  const LambResult result = lamb1(shape, faults, {});
  const std::vector<NodeId> want{shape.index(Point{11, 10}),
                                 shape.index(Point{10, 11})};
  std::vector<NodeId> sorted_want = want;
  std::sort(sorted_want.begin(), sorted_want.end());
  EXPECT_EQ(result.lambs, sorted_want);
  EXPECT_EQ(result.stats.p, 9);
  EXPECT_EQ(result.stats.q, 7);
  EXPECT_DOUBLE_EQ(result.stats.cover_weight, 2.0);
  EXPECT_EQ(result.stats.relevant_ses, 2);  // S3 and S8
  EXPECT_EQ(result.stats.relevant_des, 3);  // D2, D5, D6
}

TEST(PaperExample, Lamb1ResultIsAValidLambSetAndOptimal) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  const LambResult result = lamb1(shape, faults, {});
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
  const auto optimal = optimal_lamb_set(shape, faults, ascending_rounds(2, 2));
  ASSERT_TRUE(optimal.has_value());
  EXPECT_EQ(result.size(), static_cast<std::int64_t>(optimal->size()));
}

TEST(PaperExample, WithoutLambsSurvivorPairsAreBroken) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  const auto bad =
      unreachable_survivor_pairs(shape, faults, ascending_rounds(2, 2), {}, 64);
  // Table 2 has zeros at (S3,D5), (S8,D2), (S8,D6): S3 = {(10,1),(11,1)},
  // S8 = {(11,10)}, D5 = {(10,11)}, D2 = {(9,0)}, D6 = (11,[0,5]) -> 2 + 1
  // + 6 = 9 broken ordered pairs in total.
  ASSERT_EQ(bad.size(), 9u);
  bool s3_to_d5 = false, s8_to_d2 = false;
  for (const auto& [v, w] : bad) {
    if (v == shape.index(Point{10, 1}) && w == shape.index(Point{10, 11})) {
      s3_to_d5 = true;
    }
    if (v == shape.index(Point{11, 10}) && w == shape.index(Point{9, 0})) {
      s8_to_d2 = true;
    }
  }
  EXPECT_TRUE(s3_to_d5);
  EXPECT_TRUE(s8_to_d2);
}

TEST(Lamb1, NoFaultsNoLambs) {
  const MeshShape shape = MeshShape::cube(3, 6);
  const FaultSet faults(shape);
  EXPECT_EQ(lamb1(shape, faults, {}).size(), 0);
}

struct LambSweepParam {
  std::vector<Coord> widths;
  int node_faults;
  int link_faults;
  int rounds;
  std::uint64_t seed;
};

// Failure messages print the case as its test name.
void PrintTo(const LambSweepParam& p, std::ostream* os) {
  *os << sweep_name(p.widths, false, p.seed);
}

class LambSweep : public ::testing::TestWithParam<LambSweepParam> {
 protected:
  void SetUp() override {
    const auto& p = GetParam();
    shape_ = std::make_unique<MeshShape>(MeshShape::mesh(p.widths));
    Rng rng(p.seed);
    faults_ = std::make_unique<FaultSet>(
        FaultSet::random_nodes(*shape_, p.node_faults, rng));
    int added = 0;
    while (added < p.link_faults) {
      const NodeId id = static_cast<NodeId>(
          rng.below(static_cast<std::uint64_t>(shape_->size())));
      const int dim =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(shape_->dim())));
      Point other;
      if (!shape_->neighbor(shape_->point(id), dim, Dir::Pos, &other)) continue;
      faults_->add_link(shape_->point(id), dim, Dir::Pos);
      ++added;
    }
    orders_ = ascending_rounds(shape_->dim(), p.rounds);
  }

  std::unique_ptr<MeshShape> shape_;
  std::unique_ptr<FaultSet> faults_;
  MultiRoundOrder orders_;
};

TEST_P(LambSweep, Lamb1ProducesValidLambSet) {
  LambOptions options;
  options.orders = orders_;
  const LambResult result = lamb1(*shape_, *faults_, options);
  EXPECT_TRUE(is_lamb_set(*shape_, *faults_, orders_, result.lambs));
  for (NodeId id : result.lambs) {
    EXPECT_FALSE(faults_->node_faulty(id)) << "lambs must be good nodes";
  }
}

TEST_P(LambSweep, Lamb2ProducesValidLambSet) {
  LambOptions options;
  options.orders = orders_;
  const LambResult result = lamb2(*shape_, *faults_, options);
  EXPECT_TRUE(is_lamb_set(*shape_, *faults_, orders_, result.lambs));
}

TEST_P(LambSweep, Lamb1IsWithinTwiceOptimal) {
  LambOptions options;
  options.orders = orders_;
  const LambResult result = lamb1(*shape_, *faults_, options);
  const auto optimal = optimal_lamb_set(*shape_, *faults_, orders_);
  ASSERT_TRUE(optimal.has_value());
  EXPECT_LE(result.size(), 2 * static_cast<std::int64_t>(optimal->size()));
}

TEST_P(LambSweep, Lamb2ExactMatchesOptimal) {
  LambOptions options;
  options.orders = orders_;
  const LambResult result = lamb2(*shape_, *faults_, options, /*exact=*/true);
  const auto optimal = optimal_lamb_set(*shape_, *faults_, orders_);
  ASSERT_TRUE(optimal.has_value());
  EXPECT_EQ(result.size(), static_cast<std::int64_t>(optimal->size()));
  EXPECT_TRUE(is_lamb_set(*shape_, *faults_, orders_, result.lambs));
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, LambSweep,
    ::testing::Values(LambSweepParam{{8, 8}, 5, 0, 2, 1},
                      LambSweepParam{{8, 8}, 8, 0, 2, 2},
                      LambSweepParam{{8, 8}, 4, 4, 2, 3},
                      LambSweepParam{{10, 10}, 12, 0, 2, 4},
                      LambSweepParam{{12, 12}, 20, 0, 2, 5},
                      LambSweepParam{{6, 6, 6}, 10, 0, 2, 6},
                      LambSweepParam{{6, 6, 6}, 6, 6, 2, 7},
                      LambSweepParam{{5, 6, 7}, 12, 0, 2, 8},
                      LambSweepParam{{8, 8}, 6, 0, 1, 9},
                      LambSweepParam{{8, 8}, 6, 0, 3, 10},
                      LambSweepParam{{6, 6, 6}, 10, 0, 3, 11},
                      LambSweepParam{{4, 4, 4, 4}, 10, 0, 2, 12},
                      LambSweepParam{{2, 2, 2, 2, 2, 2}, 5, 0, 2, 13},
                      LambSweepParam{{16, 4}, 8, 2, 2, 14},
                      LambSweepParam{{9, 9}, 16, 0, 2, 15},
                      LambSweepParam{{10, 10}, 0, 10, 2, 16},
                      LambSweepParam{{5, 5, 5}, 15, 5, 2, 17},
                      LambSweepParam{{8, 8}, 12, 0, 4, 18}),
    ::testing::PrintToStringParamName());

TEST(Lamb, MixedPerRoundOrderingsAreValid) {
  const MeshShape shape = MeshShape::cube(2, 10);
  Rng rng(44);
  const FaultSet faults = FaultSet::random_nodes(shape, 10, rng);
  const MultiRoundOrder orders{DimOrder::ascending(2), DimOrder::descending(2)};
  LambOptions options;
  options.orders = orders;
  const LambResult result = lamb1(shape, faults, options);
  EXPECT_TRUE(is_lamb_set(shape, faults, orders, result.lambs));
}

TEST(Lamb, OneRoundNeedsMoreLambsThanTwoRounds) {
  const MeshShape shape = MeshShape::cube(2, 12);
  Rng rng(45);
  const FaultSet faults = FaultSet::random_nodes(shape, 10, rng);
  LambOptions one;
  one.rounds = 1;
  LambOptions two;
  two.rounds = 2;
  EXPECT_GE(lamb1(shape, faults, one).size(), lamb1(shape, faults, two).size());
}

TEST(Lamb, HypercubeEcubeRouting) {
  const MeshShape shape = MeshShape::hypercube(6);  // 64 nodes
  Rng rng(46);
  const FaultSet faults = FaultSet::random_nodes(shape, 5, rng);
  const LambResult result = lamb1(shape, faults, {});
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(6, 2), result.lambs));
}

// --- Figure 15 adversarial family -----------------------------------------

TEST(Fig15, Lamb1IsNearlyTwiceOptimal) {
  for (int m : {1, 2, 3}) {
    const MeshShape shape = MeshShape::cube(2, 4 * m + 1);
    const FaultSet faults = adversarial_fig15(shape, m);
    const LambResult result = lamb1(shape, faults, {});
    EXPECT_EQ(result.size(), fig15_lamb1_size(m)) << "m=" << m;
    EXPECT_TRUE(
        is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
    // The optimum is the two mn-sized components.
    const auto optimal = optimal_lamb_set(shape, faults, ascending_rounds(2, 2),
                                          std::int64_t{1} << 24);
    if (optimal) {
      EXPECT_EQ(static_cast<std::int64_t>(optimal->size()),
                fig15_optimal_size(m));
    }
    const double ratio = static_cast<double>(fig15_lamb1_size(m)) /
                         static_cast<double>(fig15_optimal_size(m));
    EXPECT_NEAR(ratio, 2.0 - 1.0 / (2.0 * m), 1e-12);
  }
}

// --- Section 7 extensions ---------------------------------------------------

TEST(Extensions, PredeterminedLambsAreIncludedAndFree) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  LambOptions options;
  options.predetermined = {shape.index(Point{0, 0}), shape.index(Point{5, 5})};
  const LambResult result = lamb1(shape, faults, options);
  for (NodeId id : options.predetermined) {
    EXPECT_TRUE(std::binary_search(result.lambs.begin(), result.lambs.end(), id));
  }
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
}

TEST(Extensions, PredeterminedMustBeGood) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  LambOptions options;
  options.predetermined = {shape.index(Point{9, 1})};  // faulty
  EXPECT_THROW(lamb1(shape, faults, options), std::invalid_argument);
}

TEST(Extensions, NodeValuesSteerTheChoice) {
  // Figure 10's tie: S8 (w=1) + D5 (w=1) beats D2+D5+D6 and s3+s8 etc.
  // Giving node (10,11) (the D5 singleton) a huge value while zeroing
  // (11,10)'s value must flip the cover to prefer sets containing cheap
  // nodes; the result must still be a valid lamb set.
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  std::vector<double> values(static_cast<std::size_t>(shape.size()), 1.0);
  values[static_cast<std::size_t>(shape.index(Point{10, 11}))] = 1.0;
  values[static_cast<std::size_t>(shape.index(Point{11, 10}))] = 0.0;
  LambOptions options;
  options.node_values = &values;
  const LambResult result = lamb1(shape, faults, options);
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), result.lambs));
  // The zero-value node is free to sacrifice, so cover weight <= 1.
  EXPECT_LE(result.stats.cover_weight, 1.0 + 1e-9);
}

TEST(Extensions, NodeValuesSizeValidated) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  std::vector<double> values(3, 1.0);
  LambOptions options;
  options.node_values = &values;
  EXPECT_THROW(lamb1(shape, faults, options), std::invalid_argument);
}

TEST(Extensions, ValueOfResultUsesNodeValues) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  std::vector<double> values(static_cast<std::size_t>(shape.size()), 0.5);
  const LambResult plain = lamb1(shape, faults, {});
  LambOptions options;
  options.node_values = &values;
  EXPECT_DOUBLE_EQ(plain.value(options),
                   0.5 * static_cast<double>(plain.size()));
}

// --- Verifier edge cases ----------------------------------------------------

TEST(Verifier, ChecksMeshesBeyondSixteenThousandNodes) {
  const MeshShape shape = MeshShape::cube(2, 129);  // 16641 > 2^14
  Rng rng(11);
  const FaultSet faults = FaultSet::random_nodes(shape, 500, rng);
  const MultiRoundOrder orders = ascending_rounds(2, 2);
  const LambResult result = lamb1(shape, faults, {});
  ASSERT_FALSE(result.lambs.empty());
  EXPECT_TRUE(
      unreachable_survivor_pairs(shape, faults, orders, result.lambs).empty());
  const std::vector<NodeId> dropped(result.lambs.begin() + 1,
                                    result.lambs.end());
  EXPECT_FALSE(
      unreachable_survivor_pairs(shape, faults, orders, dropped).empty());
}

// The reference: Definition 2.5's k-round relation composed from
// route_clear walks (reach/route.hpp), with no flood anywhere, read as
// the ordered survivor pairs (v, w) with w not reachable from v.
std::vector<std::pair<NodeId, NodeId>> walked_unreachable_pairs(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, const std::vector<NodeId>& lambs) {
  const auto n = static_cast<std::size_t>(shape.size());
  using Relation = std::vector<std::vector<bool>>;
  auto one_round = [&](const DimOrder& order) {
    Relation rel(n, std::vector<bool>(n));
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t w = 0; w < n; ++w) {
        rel[v][w] = route_clear(shape, faults, shape.point(NodeId(v)),
                                shape.point(NodeId(w)), order);
      }
    }
    return rel;
  };
  Relation reach = one_round(orders.front());
  for (std::size_t r = 1; r < orders.size(); ++r) {
    const Relation step = one_round(orders[r]);
    Relation next(n, std::vector<bool>(n));
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t u = 0; u < n; ++u) {
        if (!reach[v][u]) continue;
        for (std::size_t w = 0; w < n; ++w) {
          if (step[u][w]) next[v][w] = true;
        }
      }
    }
    reach = std::move(next);
  }
  std::vector<NodeId> survivors;
  for (NodeId v = 0; v < shape.size(); ++v) {
    if (faults.node_good(v) &&
        std::find(lambs.begin(), lambs.end(), v) == lambs.end()) {
      survivors.push_back(v);
    }
  }
  std::vector<std::pair<NodeId, NodeId>> bad;
  for (const NodeId v : survivors) {
    for (const NodeId w : survivors) {
      if (!reach[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)]) {
        bad.emplace_back(v, w);
      }
    }
  }
  return bad;
}

TEST(Verifier, MatchesRouteWalkReference) {
  struct Case {
    MeshShape shape;
    int node_faults, links, directed_links;
  };
  const Case cases[] = {
      {MeshShape::cube(2, 6), 4, 2, 2},
      {MeshShape::mesh({7, 5}), 3, 0, 4},
      {MeshShape::cube(3, 4), 4, 2, 2},
      {MeshShape::torus({5, 5}), 2, 2, 2},
  };
  for (const Case& c : cases) {
    const MeshShape& shape = c.shape;
    const int d = shape.dim();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      FaultSet faults = FaultSet::random_nodes(shape, c.node_faults, rng);
      for (int added = 0; added < c.links + c.directed_links;) {
        const Point p = shape.point(static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(shape.size()))));
        const int dim =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(d)));
        const Dir dir = rng.bernoulli(0.5) ? Dir::Pos : Dir::Neg;
        Point other;
        if (!shape.neighbor(p, dim, dir, &other)) continue;
        if (added++ < c.links) {
          faults.add_link(p, dim, dir);
        } else {
          faults.add_directed_link(p, dim, dir);
        }
      }
      // A few good nodes as lambs, unsorted.
      std::vector<NodeId> lambs;
      for (NodeId v = shape.size() - 1; v >= 0; v -= 7) {
        if (faults.node_good(v)) lambs.push_back(v);
      }
      const MultiRoundOrder order_sets[] = {
          ascending_rounds(d, 1),
          ascending_rounds(d, 2),
          {DimOrder::ascending(d), DimOrder::descending(d)},
          {DimOrder::descending(d), DimOrder::descending(d),
           DimOrder::ascending(d)},
      };
      for (const MultiRoundOrder& orders : order_sets) {
        for (const auto& chosen : {std::vector<NodeId>{}, lambs}) {
          SCOPED_TRACE(shape.to_string() + " seed " + std::to_string(seed) +
                       " k=" + std::to_string(orders.size()) + " lambs " +
                       std::to_string(chosen.size()));
          const auto want =
              walked_unreachable_pairs(shape, faults, orders, chosen);
          EXPECT_EQ(unreachable_survivor_pairs(
                        shape, faults, orders, chosen,
                        std::numeric_limits<std::size_t>::max()),
                    want);
          EXPECT_EQ(is_lamb_set(shape, faults, orders, chosen), want.empty());
          const auto capped = unreachable_survivor_pairs(shape, faults,
                                                         orders, chosen, 5);
          ASSERT_EQ(capped.size(), std::min<std::size_t>(want.size(), 5));
          EXPECT_TRUE(std::equal(capped.begin(), capped.end(), want.begin()));
        }
      }
    }
  }
}

// The count is every unreachable pair the uncapped list holds, while the
// sample stays the list's first `max_sample` pairs.
TEST(Verifier, CountsEveryPairAndCapsTheSample) {
  const MeshShape shape = MeshShape::cube(3, 6);
  Rng rng(3);
  const FaultSet faults = FaultSet::random_nodes(shape, 20, rng);
  for (const DimOrder& order :
       {DimOrder::ascending(3), DimOrder::descending(3)}) {
    const MultiRoundOrder orders = {order};
    const auto all = unreachable_survivor_pairs(
        shape, faults, orders, {}, std::numeric_limits<std::size_t>::max());
    ASSERT_GT(all.size(), 4u);
    const UnreachableCount counted =
        count_unreachable_survivor_pairs(shape, faults, orders, {}, 4);
    EXPECT_EQ(counted.pairs, static_cast<std::int64_t>(all.size()));
    ASSERT_EQ(counted.sample.size(), 4u);
    EXPECT_TRUE(
        std::equal(counted.sample.begin(), counted.sample.end(), all.begin()));
  }
  const LambResult result = lamb1(shape, faults, {});
  const UnreachableCount valid = count_unreachable_survivor_pairs(
      shape, faults, ascending_rounds(3, 2), result.lambs);
  EXPECT_EQ(valid.pairs, 0);
  EXPECT_TRUE(valid.sample.empty());
}

TEST(Verifier, DetectsMissingLamb) {
  const MeshShape shape = paper_mesh();
  const FaultSet faults = paper_faults(shape);
  // Only one of the two required lambs.
  const std::vector<NodeId> partial{shape.index(Point{11, 10})};
  EXPECT_FALSE(is_lamb_set(shape, faults, ascending_rounds(2, 2), partial));
}

TEST(Verifier, EverythingLambedIsTriviallyValid) {
  const MeshShape shape = MeshShape::cube(2, 4);
  FaultSet faults(shape);
  faults.add_node(Point{1, 1});
  std::vector<NodeId> all;
  for (NodeId id = 0; id < shape.size(); ++id) {
    if (faults.node_good(id)) all.push_back(id);
  }
  EXPECT_TRUE(is_lamb_set(shape, faults, ascending_rounds(2, 2), all));
}

}  // namespace
}  // namespace lamb
