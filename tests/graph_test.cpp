// Tests for the graph substrate: the weighted graph type, Dinic max-flow,
// optimal bipartite WVC via min-cut (checked against brute force over
// random instances), the Bar-Yehuda & Even local-ratio 2-approximation,
// and the exact branch-and-bound WVC.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "graph/bipartite_wvc.hpp"
#include "graph/dinic.hpp"
#include "graph/general_wvc.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

TEST(WeightedGraph, EdgesDeduplicated) {
  WeightedGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(WeightedGraph, RejectsSelfLoop) {
  WeightedGraph g(2);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
}

TEST(WeightedGraph, CoverPredicate) {
  WeightedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.is_vertex_cover({0, 2}));
  EXPECT_TRUE(g.is_vertex_cover({1, 3}));
  EXPECT_FALSE(g.is_vertex_cover({0}));
  EXPECT_TRUE(g.is_vertex_cover({0, 1, 2, 3}));
}

TEST(Dinic, SimplePath) {
  Dinic d(3);
  d.add_edge(0, 1, 5);
  d.add_edge(1, 2, 3);
  EXPECT_DOUBLE_EQ(d.max_flow(0, 2), 3.0);
}

TEST(Dinic, ParallelPaths) {
  Dinic d(4);
  d.add_edge(0, 1, 2);
  d.add_edge(0, 2, 2);
  d.add_edge(1, 3, 2);
  d.add_edge(2, 3, 2);
  EXPECT_DOUBLE_EQ(d.max_flow(0, 3), 4.0);
}

TEST(Dinic, ClassicNetwork) {
  // CLRS-style example with a crossing edge.
  Dinic d(6);
  d.add_edge(0, 1, 16);
  d.add_edge(0, 2, 13);
  d.add_edge(1, 3, 12);
  d.add_edge(2, 1, 4);
  d.add_edge(3, 2, 9);
  d.add_edge(2, 4, 14);
  d.add_edge(4, 3, 7);
  d.add_edge(3, 5, 20);
  d.add_edge(4, 5, 4);
  EXPECT_DOUBLE_EQ(d.max_flow(0, 5), 23.0);
}

TEST(Dinic, MinCutSideSeparatesSourceFromSink) {
  Dinic d(4);
  d.add_edge(0, 1, 1);
  d.add_edge(1, 2, 10);
  d.add_edge(2, 3, 1);
  d.max_flow(0, 3);
  const auto side = d.min_cut_side();
  EXPECT_TRUE(side[0]);
  EXPECT_FALSE(side[3]);
}

TEST(Dinic, FlowOnReportsPerEdgeFlow) {
  Dinic d(3);
  const int a = d.add_edge(0, 1, 5);
  const int b = d.add_edge(1, 2, 3);
  d.max_flow(0, 2);
  EXPECT_DOUBLE_EQ(d.flow_on(a), 3.0);
  EXPECT_DOUBLE_EQ(d.flow_on(b), 3.0);
}

// --- Bipartite WVC ---------------------------------------------------------

double brute_force_bipartite_cover(const std::vector<double>& lw,
                                   const std::vector<double>& rw,
                                   const std::vector<BipartiteEdge>& edges) {
  const int l = static_cast<int>(lw.size());
  const int r = static_cast<int>(rw.size());
  double best = std::numeric_limits<double>::infinity();
  for (int ml = 0; ml < (1 << l); ++ml) {
    for (int mr = 0; mr < (1 << r); ++mr) {
      bool covers = true;
      for (const auto& e : edges) {
        if (!((ml >> e.left) & 1) && !((mr >> e.right) & 1)) {
          covers = false;
          break;
        }
      }
      if (!covers) continue;
      double w = 0;
      for (int i = 0; i < l; ++i) {
        if ((ml >> i) & 1) w += lw[static_cast<std::size_t>(i)];
      }
      for (int j = 0; j < r; ++j) {
        if ((mr >> j) & 1) w += rw[static_cast<std::size_t>(j)];
      }
      best = std::min(best, w);
    }
  }
  return best;
}

TEST(BipartiteWvc, PaperFigure10Example) {
  // Vertices s3(w=2), s8(w=1); d2(w=1), d5(w=1), d6(w=6); edges
  // (s3,d5), (s8,d2), (s8,d6). Minimum cover = {s8, d5} of weight 2.
  const std::vector<double> lw{2, 1};        // s3, s8
  const std::vector<double> rw{1, 1, 6};     // d2, d5, d6
  const std::vector<BipartiteEdge> edges{{0, 1}, {1, 0}, {1, 2}};
  const BipartiteCover cover = min_weight_bipartite_cover(lw, rw, edges);
  EXPECT_DOUBLE_EQ(cover.weight, 2.0);
  ASSERT_EQ(cover.left.size(), 1u);
  EXPECT_EQ(cover.left[0], 1);  // s8
  ASSERT_EQ(cover.right.size(), 1u);
  EXPECT_EQ(cover.right[0], 1);  // d5
}

TEST(BipartiteWvc, EmptyEdgesEmptyCover) {
  const BipartiteCover cover =
      min_weight_bipartite_cover({1, 2}, {3}, {});
  EXPECT_EQ(cover.weight, 0.0);
  EXPECT_TRUE(cover.left.empty());
  EXPECT_TRUE(cover.right.empty());
}

struct WvcSweepParam {
  int left;
  int right;
  double edge_prob;
  bool unit_weights;
  std::uint64_t seed;
};

// Failure messages print the case as its test name.
void PrintTo(const WvcSweepParam& p, std::ostream* os) {
  *os << p.left << "x" << p.right << "_seed" << p.seed;
}

class BipartiteWvcSweep : public ::testing::TestWithParam<WvcSweepParam> {};

TEST_P(BipartiteWvcSweep, MatchesBruteForce) {
  const WvcSweepParam p = GetParam();
  Rng rng(p.seed);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> lw(static_cast<std::size_t>(p.left));
    std::vector<double> rw(static_cast<std::size_t>(p.right));
    for (auto& w : lw) {
      w = p.unit_weights ? 1.0 : static_cast<double>(1 + rng.below(9));
    }
    for (auto& w : rw) {
      w = p.unit_weights ? 1.0 : static_cast<double>(1 + rng.below(9));
    }
    std::vector<BipartiteEdge> edges;
    for (int i = 0; i < p.left; ++i) {
      for (int j = 0; j < p.right; ++j) {
        if (rng.bernoulli(p.edge_prob)) edges.push_back({i, j});
      }
    }
    const BipartiteCover cover = min_weight_bipartite_cover(lw, rw, edges);
    // Must be a cover.
    std::vector<char> inl(static_cast<std::size_t>(p.left), 0);
    std::vector<char> inr(static_cast<std::size_t>(p.right), 0);
    for (int i : cover.left) inl[static_cast<std::size_t>(i)] = 1;
    for (int j : cover.right) inr[static_cast<std::size_t>(j)] = 1;
    for (const auto& e : edges) {
      EXPECT_TRUE(inl[static_cast<std::size_t>(e.left)] ||
                  inr[static_cast<std::size_t>(e.right)]);
    }
    // Must be optimal.
    EXPECT_NEAR(cover.weight, brute_force_bipartite_cover(lw, rw, edges), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, BipartiteWvcSweep,
    ::testing::Values(WvcSweepParam{4, 4, 0.3, true, 1},
                      WvcSweepParam{4, 4, 0.3, false, 2},
                      WvcSweepParam{6, 5, 0.4, false, 3},
                      WvcSweepParam{8, 8, 0.2, false, 4},
                      WvcSweepParam{8, 8, 0.6, true, 5},
                      WvcSweepParam{10, 3, 0.5, false, 6}),
    ::testing::PrintToStringParamName());

// --- General WVC -----------------------------------------------------------

WeightedGraph random_graph(int n, double p, bool unit, Rng& rng) {
  WeightedGraph g(n);
  for (int v = 0; v < n; ++v) {
    g.set_weight(v, unit ? 1.0 : static_cast<double>(1 + rng.below(9)));
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) g.add_edge(u, v);
    }
  }
  return g;
}

double brute_force_wvc(const WeightedGraph& g) {
  const int n = g.num_vertices();
  double best = std::numeric_limits<double>::infinity();
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<int> cover;
    for (int v = 0; v < n; ++v) {
      if ((mask >> v) & 1) cover.push_back(v);
    }
    if (g.is_vertex_cover(cover)) best = std::min(best, g.weight_of(cover));
  }
  return best;
}

TEST(GeneralWvc, LocalRatioIsACoverWithin2xOptimal) {
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 4 + static_cast<int>(rng.below(9));
    const WeightedGraph g = random_graph(n, 0.35, trial % 2 == 0, rng);
    const auto cover = wvc_local_ratio(g);
    EXPECT_TRUE(g.is_vertex_cover(cover));
    EXPECT_LE(g.weight_of(cover), 2.0 * brute_force_wvc(g) + 1e-9);
  }
}

TEST(GeneralWvc, ExactMatchesBruteForce) {
  Rng rng(32);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 4 + static_cast<int>(rng.below(9));
    const WeightedGraph g = random_graph(n, 0.35, trial % 2 == 1, rng);
    const auto cover = wvc_exact(g);
    ASSERT_TRUE(cover.has_value());
    EXPECT_TRUE(g.is_vertex_cover(*cover));
    EXPECT_NEAR(g.weight_of(*cover), brute_force_wvc(g), 1e-9);
  }
}

TEST(GeneralWvc, ExactRespectsNodeBudget) {
  Rng rng(33);
  const WeightedGraph g = random_graph(24, 0.5, true, rng);
  EXPECT_FALSE(wvc_exact(g, /*node_budget=*/3).has_value());
}

TEST(GeneralWvc, EmptyGraphEmptyCover) {
  const WeightedGraph g(5);
  EXPECT_TRUE(wvc_local_ratio(g).empty());
  const auto exact = wvc_exact(g);
  ASSERT_TRUE(exact.has_value());
  EXPECT_TRUE(exact->empty());
}

TEST(GeneralWvc, StarGraphPicksCenter) {
  WeightedGraph g(6, 1.0);
  for (int v = 1; v < 6; ++v) g.add_edge(0, v);
  const auto exact = wvc_exact(g);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(*exact, std::vector<int>{0});
}

TEST(GeneralWvc, HeavyCenterStarPicksLeaves) {
  WeightedGraph g(4, 1.0);
  g.set_weight(0, 10.0);
  for (int v = 1; v < 4; ++v) g.add_edge(0, v);
  const auto exact = wvc_exact(g);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(*exact, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace lamb
