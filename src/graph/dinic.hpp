// Dinic's maximum-flow algorithm. The optimal bipartite weighted vertex
// cover of paper Section 6.3.1 is found as a minimum s-t cut (Gusfield
// [10]); Dinic on the b+2-vertex network gives the O(b^3) bound quoted in
// the paper. Capacities are doubles because the node-value extension of
// Section 7 allows fractional vertex weights; all comparisons use a fixed
// tolerance.
#pragma once

#include <limits>
#include <vector>

namespace lamb {

class Dinic {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr double kEps = 1e-9;

  explicit Dinic(int num_vertices);

  // Adds a directed edge u -> v with the given capacity and returns its id.
  int add_edge(int u, int v, double capacity);

  // Computes the maximum flow from s to t.
  double max_flow(int s, int t);

  // After max_flow: vertices reachable from s in the residual network
  // (the s-side of a minimum cut).
  std::vector<bool> min_cut_side() const;

  double flow_on(int edge_id) const;

 private:
  struct Arc {
    int to;
    int rev;  // index of the reverse arc in arcs_[to]
    double cap;
  };

  bool bfs(int s, int t);
  double dfs(int v, int t, double pushed);

  std::vector<std::vector<Arc>> arcs_;
  std::vector<int> level_;
  std::vector<int> iter_;
  std::vector<std::pair<int, int>> edge_index_;  // edge id -> (vertex, arc pos)
  int source_ = -1;
};

}  // namespace lamb
