#include "graph/dinic.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

namespace lamb {

Dinic::Dinic(int num_vertices)
    : arcs_(static_cast<std::size_t>(num_vertices)),
      level_(static_cast<std::size_t>(num_vertices)),
      iter_(static_cast<std::size_t>(num_vertices)) {}

int Dinic::add_edge(int u, int v, double capacity) {
  assert(capacity >= 0);
  const int id = static_cast<int>(edge_index_.size());
  auto& fu = arcs_[static_cast<std::size_t>(u)];
  auto& fv = arcs_[static_cast<std::size_t>(v)];
  fu.push_back(Arc{v, static_cast<int>(fv.size()), capacity});
  fv.push_back(Arc{u, static_cast<int>(fu.size()) - 1, 0.0});
  edge_index_.emplace_back(u, static_cast<int>(fu.size()) - 1);
  return id;
}

bool Dinic::bfs(int s, int t) {
  std::fill(level_.begin(), level_.end(), -1);
  std::queue<int> queue;
  level_[static_cast<std::size_t>(s)] = 0;
  queue.push(s);
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop();
    for (const Arc& a : arcs_[static_cast<std::size_t>(v)]) {
      if (a.cap > kEps && level_[static_cast<std::size_t>(a.to)] < 0) {
        level_[static_cast<std::size_t>(a.to)] =
            level_[static_cast<std::size_t>(v)] + 1;
        queue.push(a.to);
      }
    }
  }
  return level_[static_cast<std::size_t>(t)] >= 0;
}

double Dinic::dfs(int v, int t, double pushed) {
  if (v == t) return pushed;
  auto& it = iter_[static_cast<std::size_t>(v)];
  for (; it < static_cast<int>(arcs_[static_cast<std::size_t>(v)].size()); ++it) {
    Arc& a = arcs_[static_cast<std::size_t>(v)][static_cast<std::size_t>(it)];
    if (a.cap <= kEps ||
        level_[static_cast<std::size_t>(a.to)] !=
            level_[static_cast<std::size_t>(v)] + 1) {
      continue;
    }
    const double got = dfs(a.to, t, std::min(pushed, a.cap));
    if (got > kEps) {
      a.cap -= got;
      arcs_[static_cast<std::size_t>(a.to)][static_cast<std::size_t>(a.rev)].cap +=
          got;
      return got;
    }
  }
  return 0.0;
}

double Dinic::max_flow(int s, int t) {
  source_ = s;
  double flow = 0.0;
  while (bfs(s, t)) {
    std::fill(iter_.begin(), iter_.end(), 0);
    while (true) {
      const double pushed = dfs(s, t, kInf);
      if (pushed <= kEps) break;
      flow += pushed;
    }
  }
  return flow;
}

std::vector<bool> Dinic::min_cut_side() const {
  assert(source_ >= 0);
  std::vector<bool> side(arcs_.size(), false);
  std::queue<int> queue;
  side[static_cast<std::size_t>(source_)] = true;
  queue.push(source_);
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop();
    for (const Arc& a : arcs_[static_cast<std::size_t>(v)]) {
      if (a.cap > kEps && !side[static_cast<std::size_t>(a.to)]) {
        side[static_cast<std::size_t>(a.to)] = true;
        queue.push(a.to);
      }
    }
  }
  return side;
}

double Dinic::flow_on(int edge_id) const {
  // The reverse arc starts at 0 and mirrors every push exactly, so its
  // capacity IS the net flow, finite even on infinite-capacity edges.
  const auto [u, pos] = edge_index_[static_cast<std::size_t>(edge_id)];
  const Arc& a = arcs_[static_cast<std::size_t>(u)][static_cast<std::size_t>(pos)];
  return arcs_[static_cast<std::size_t>(a.to)][static_cast<std::size_t>(a.rev)]
      .cap;
}

}  // namespace lamb
