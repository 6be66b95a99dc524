#include "graph/bipartite_wvc.hpp"

#include "graph/dinic.hpp"

namespace lamb {

BipartiteCover min_weight_bipartite_cover(
    const std::vector<double>& left_weights,
    const std::vector<double>& right_weights,
    const std::vector<BipartiteEdge>& edges) {
  const int num_left = static_cast<int>(left_weights.size());
  const int num_right = static_cast<int>(right_weights.size());
  const int source = 0;
  const int sink = 1 + num_left + num_right;
  Dinic flow(sink + 1);
  for (int i = 0; i < num_left; ++i) {
    flow.add_edge(source, 1 + i, left_weights[static_cast<std::size_t>(i)]);
  }
  for (int j = 0; j < num_right; ++j) {
    flow.add_edge(1 + num_left + j, sink,
                  right_weights[static_cast<std::size_t>(j)]);
  }
  for (const BipartiteEdge& e : edges) {
    flow.add_edge(1 + e.left, 1 + num_left + e.right, Dinic::kInf);
  }
  flow.max_flow(source, sink);
  const std::vector<bool> s_side = flow.min_cut_side();

  BipartiteCover cover;
  // A left vertex is in the cover iff the source edge to it is cut (vertex
  // on the sink side); a right vertex iff its sink edge is cut (vertex on
  // the source side). Infinite edges guarantee every bipartite edge is
  // covered by one of the two.
  for (int i = 0; i < num_left; ++i) {
    if (!s_side[static_cast<std::size_t>(1 + i)]) {
      cover.left.push_back(i);
      cover.weight += left_weights[static_cast<std::size_t>(i)];
    }
  }
  for (int j = 0; j < num_right; ++j) {
    if (s_side[static_cast<std::size_t>(1 + num_left + j)]) {
      cover.right.push_back(j);
      cover.weight += right_weights[static_cast<std::size_t>(j)];
    }
  }
  return cover;
}

}  // namespace lamb
