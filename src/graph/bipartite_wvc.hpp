// Optimal weighted vertex cover on bipartite graphs via minimum s-t cut
// (paper Section 6.3.1, citing Gusfield [10]): attach a source to the left
// side and a sink to the right side with capacities equal to the vertex
// weights, infinite capacity on the bipartite edges; a minimum cut induces
// a minimum-weight cover (weighted Konig-Egervary).
#pragma once

#include <vector>

namespace lamb {

struct BipartiteEdge {
  int left = 0;
  int right = 0;
};

struct BipartiteCover {
  std::vector<int> left;   // chosen left-side vertices
  std::vector<int> right;  // chosen right-side vertices
  double weight = 0.0;
};

// Minimum-weight vertex cover of the bipartite graph with the given vertex
// weights and edges. Runs in O((L + R)^3) via Dinic. The cover is read off
// the residual-reachable set from the source, the unique minimal min-cut
// source side, so it does not depend on which maximum flow Dinic reached.
BipartiteCover min_weight_bipartite_cover(
    const std::vector<double>& left_weights,
    const std::vector<double>& right_weights,
    const std::vector<BipartiteEdge>& edges);

}  // namespace lamb
