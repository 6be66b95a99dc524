#include "generic/generic_solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "core/bit_matrix.hpp"
#include "core/reach_matrices.hpp"
#include "reach/flood_oracle.hpp"

namespace lamb {

namespace {

constexpr std::int64_t kMaxNodes = std::int64_t{1} << 14;

std::uint64_t hash_words(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t w : words) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

// Groups good nodes whose key bitsets are identical. Returns per-node
// class index (-1 for non-good) and the list of classes (member lists).
struct Classes {
  std::vector<std::int32_t> of_node;
  std::vector<std::vector<NodeId>> members;
};

Classes group_by(const std::vector<char>& good, const std::vector<Bits>& keys) {
  const std::int64_t n = static_cast<std::int64_t>(keys.size());
  Classes out;
  out.of_node.assign(static_cast<std::size_t>(n), -1);
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> buckets;
  for (NodeId v = 0; v < n; ++v) {
    if (!good[static_cast<std::size_t>(v)]) continue;
    const Bits& key = keys[static_cast<std::size_t>(v)];
    auto& bucket = buckets[hash_words(key.words())];
    std::int32_t cls = -1;
    for (std::int32_t candidate : bucket) {
      const NodeId representative =
          out.members[static_cast<std::size_t>(candidate)].front();
      if (keys[static_cast<std::size_t>(representative)] == key) {
        cls = candidate;
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<std::int32_t>(out.members.size());
      out.members.emplace_back();
      bucket.push_back(cls);
    }
    out.of_node[static_cast<std::size_t>(v)] = cls;
    out.members[static_cast<std::size_t>(cls)].push_back(v);
  }
  return out;
}

// Column bitsets: col_keys[w] = { v : rows[v].test(w) }.
std::vector<Bits> transpose_rows(std::int64_t n, const std::vector<Bits>& rows) {
  std::vector<Bits> cols(static_cast<std::size_t>(n), Bits(n));
  for (NodeId v = 0; v < n; ++v) {
    rows[static_cast<std::size_t>(v)].for_each(
        [&](NodeId w) { cols[static_cast<std::size_t>(w)].set(v); });
  }
  return cols;
}

double class_weight(const std::vector<NodeId>& members,
                    const std::vector<double>* node_values) {
  if (node_values == nullptr) return static_cast<double>(members.size());
  double total = 0.0;
  for (NodeId v : members) total += (*node_values)[static_cast<std::size_t>(v)];
  return total;
}

}  // namespace

GenericLambResult generic_lamb_from_rows(
    std::int64_t num_nodes, const std::vector<char>& good,
    const std::vector<std::vector<Bits>>& round_rows,
    const std::vector<double>* node_values) {
  if (num_nodes > kMaxNodes) {
    throw std::invalid_argument("generic_lamb_from_rows: too many nodes");
  }
  if (round_rows.empty()) {
    throw std::invalid_argument("generic_lamb_from_rows: need >= 1 round");
  }
  const int k = static_cast<int>(round_rows.size());

  // Per round: SEC classes from rows, DEC classes from columns.
  std::vector<Classes> sec(static_cast<std::size_t>(k));
  std::vector<Classes> dec(static_cast<std::size_t>(k));
  for (int r = 0; r < k; ++r) {
    sec[static_cast<std::size_t>(r)] =
        group_by(good, round_rows[static_cast<std::size_t>(r)]);
    dec[static_cast<std::size_t>(r)] = group_by(
        good, transpose_rows(num_nodes, round_rows[static_cast<std::size_t>(r)]));
  }

  // Class-level one-round matrices and intersection matrices, chained.
  auto reach_matrix = [&](int r) {
    const Classes& s = sec[static_cast<std::size_t>(r)];
    const Classes& d = dec[static_cast<std::size_t>(r)];
    BitMatrix m(static_cast<std::int64_t>(s.members.size()),
                static_cast<std::int64_t>(d.members.size()));
    for (std::size_t i = 0; i < s.members.size(); ++i) {
      const Bits& row =
          round_rows[static_cast<std::size_t>(r)]
                    [static_cast<std::size_t>(s.members[i].front())];
      for (std::size_t j = 0; j < d.members.size(); ++j) {
        if (row.test(d.members[j].front())) {
          m.set(static_cast<std::int64_t>(i), static_cast<std::int64_t>(j));
        }
      }
    }
    return m;
  };

  std::vector<BitMatrix> reach(static_cast<std::size_t>(k));
  std::vector<BitMatrix> inters;
  std::vector<int> round_part(static_cast<std::size_t>(k));
  for (int r = 0; r < k; ++r) {
    reach[static_cast<std::size_t>(r)] = reach_matrix(r);
    round_part[static_cast<std::size_t>(r)] = r;
    if (r == 0) continue;
    const Classes& d_prev = dec[static_cast<std::size_t>(r - 1)];
    const Classes& s_next = sec[static_cast<std::size_t>(r)];
    BitMatrix inter(static_cast<std::int64_t>(d_prev.members.size()),
                    static_cast<std::int64_t>(s_next.members.size()));
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (!good[static_cast<std::size_t>(v)]) continue;
      inter.set(d_prev.of_node[static_cast<std::size_t>(v)],
                s_next.of_node[static_cast<std::size_t>(v)]);
    }
    inters.push_back(std::move(inter));
  }
  const BitMatrix acc = reach_chain(reach, inters, round_part);

  const Classes& first_sec = sec.front();
  const Classes& last_dec = dec.back();

  GenericLambResult result;
  result.num_sec = static_cast<std::int64_t>(first_sec.members.size());
  result.num_dec = static_cast<std::int64_t>(last_dec.members.size());

  const auto side = [&](const Classes& classes) {
    return CoverSide{
        [&](std::int64_t i) {
          return class_weight(classes.members[static_cast<std::size_t>(i)],
                              node_values);
        },
        [&](std::int64_t i, std::vector<NodeId>* out) {
          const auto& members = classes.members[static_cast<std::size_t>(i)];
          out->insert(out->end(), members.begin(), members.end());
        }};
  };
  ReachCover cover =
      min_weight_reach_cover(acc, side(first_sec), side(last_dec));
  result.cover_weight = cover.weight;
  result.lambs = std::move(cover.lambs);
  std::sort(result.lambs.begin(), result.lambs.end());
  result.lambs.erase(std::unique(result.lambs.begin(), result.lambs.end()),
                     result.lambs.end());
  return result;
}

GenericLambResult generic_lamb(const MeshShape& shape, const FaultSet& faults,
                               const MultiRoundOrder& orders,
                               const std::vector<double>* node_values) {
  const NodeId n = shape.size();
  std::vector<char> good(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    good[static_cast<std::size_t>(v)] = faults.node_good(v) ? 1 : 0;
  }
  const FloodOracle flood(shape, faults);
  std::vector<std::vector<Bits>> round_rows;
  round_rows.reserve(orders.size());
  for (const DimOrder& order : orders) {
    std::vector<Bits> rows(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      rows[static_cast<std::size_t>(v)] =
          faults.node_faulty(v) ? Bits(n)
                                : flood.reach1_from(shape.point(v), order);
    }
    round_rows.push_back(std::move(rows));
  }
  return generic_lamb_from_rows(n, good, round_rows, node_values);
}

}  // namespace lamb
