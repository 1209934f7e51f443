#include "topo/torus.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace pgasq::topo {

Torus5D::Torus5D(Coord5 dims) : dims_(dims) {
  num_nodes_ = 1;
  for (int d = kDims - 1; d >= 0; --d) {
    PGASQ_CHECK(dims_[d] >= 1, << "torus dim " << d << " = " << dims_[d]);
    strides_[d] = num_nodes_;
    num_nodes_ *= dims_[d];
  }
  // Lexicographic order with A slowest: count up in E first.
  coords_.resize(static_cast<std::size_t>(num_nodes_));
  Coord5 c{};
  for (auto& entry : coords_) {
    entry = c;
    for (int d = kDims - 1; d >= 0 && ++c[d] == dims_[d]; --d) c[d] = 0;
  }
}

const Coord5& Torus5D::coord_of(int node) const {
  PGASQ_CHECK(node >= 0 && node < num_nodes_, << "node " << node);
  return coords_[static_cast<std::size_t>(node)];
}

int Torus5D::node_of(const Coord5& c) const {
  int node = 0;
  for (int d = 0; d < kDims; ++d) {
    PGASQ_CHECK(c[d] >= 0 && c[d] < dims_[d], << "coord[" << d << "] = " << c[d]);
    node += c[d] * strides_[d];
  }
  return node;
}

namespace {
/// Signed offset along one torus dimension taking the shorter wrap
/// direction; ties resolve to the positive direction.
int wrap_delta(int from, int to, int size) {
  int fwd = to - from;
  if (fwd < 0) fwd += size;        // steps in +1 direction
  const int bwd = size - fwd;      // steps in -1 direction
  if (fwd == 0) return 0;
  return fwd <= bwd ? fwd : -bwd;
}
}  // namespace

int Torus5D::hop_distance(int a, int b) const {
  const Coord5& ca = coord_of(a);
  const Coord5& cb = coord_of(b);
  int hops = 0;
  for (int d = 0; d < kDims; ++d) {
    hops += std::abs(wrap_delta(ca[d], cb[d], dims_[d]));
  }
  return hops;
}

int Torus5D::diameter() const {
  int diam = 0;
  for (int d = 0; d < kDims; ++d) diam += dims_[d] / 2;
  return diam;
}

std::vector<Link> Torus5D::route(int src, int dst) const {
  return route_ordered(src, dst, {0, 1, 2, 3, 4});
}

std::vector<Link> Torus5D::route_ordered(
    int src, int dst, const std::array<int, kDims>& dim_order) const {
  std::vector<Link> links;
  links.reserve(static_cast<std::size_t>(hop_distance(src, dst)));
  route_ordered(src, dst, dim_order, links);
  return links;
}

void Torus5D::route_ordered(int src, int dst, const std::array<int, kDims>& dim_order,
                            std::vector<Link>& out) const {
  // Validate the permutation.
  int seen = 0;
  for (int d : dim_order) {
    PGASQ_CHECK(d >= 0 && d < kDims, << "dim " << d);
    seen |= 1 << d;
  }
  PGASQ_CHECK(seen == (1 << kDims) - 1, << "dim_order is not a permutation");
  const Coord5& cs = coord_of(src);
  const Coord5& cd = coord_of(dst);
  out.clear();
  int node = src;
  for (const int d : dim_order) {
    const int size = dims_[d];
    int c = cs[d];
    int delta = wrap_delta(c, cd[d], size);
    const int dir = delta >= 0 ? 1 : -1;
    for (; delta != 0; delta -= dir) {
      // One stride along d, or back across the ring at its ends.
      int step = dir * strides_[d];
      c += dir;
      if (c == size) {
        c = 0;
        step -= size * strides_[d];
      } else if (c < 0) {
        c = size - 1;
        step += size * strides_[d];
      }
      out.push_back(Link{node, node + step, d, dir});
      node += step;
    }
  }
}

std::vector<Link> Torus5D::route_avoiding(
    int src, int dst, const std::function<bool(const Link&)>& blocked) const {
  if (src == dst) return {};
  // Fast path: the deterministic dimension-order route, untouched.
  std::vector<Link> nominal = route(src, dst);
  const bool nominal_ok =
      std::none_of(nominal.begin(), nominal.end(),
                   [&](const Link& l) { return blocked(l); });
  if (nominal_ok) return nominal;
  // Route-around: BFS over nodes skipping blocked links. The queue is
  // FIFO and neighbours are enumerated in (dim, +1 then -1) order, so
  // the chosen shortest path is a deterministic function of the
  // blocked set — no RNG, no iteration-order dependence.
  std::vector<Link> via(static_cast<std::size_t>(num_nodes_),
                        Link{-1, -1, -1, 0});
  std::vector<int> frontier{src};
  via[static_cast<std::size_t>(src)] = Link{src, src, 0, 1};  // visited marker
  bool found = false;
  while (!frontier.empty() && !found) {
    std::vector<int> next_frontier;
    for (const int node : frontier) {
      const Coord5& c = coord_of(node);
      for (int d = 0; d < kDims && !found; ++d) {
        if (dims_[d] == 1) continue;
        for (const int dir : {1, -1}) {
          Coord5 nc = c;
          nc[d] = (c[d] + dir + dims_[d]) % dims_[d];
          const int neighbour = node_of(nc);
          if (via[static_cast<std::size_t>(neighbour)].from_node != -1) continue;
          const Link hop{node, neighbour, d, dir};
          if (blocked(hop)) continue;
          via[static_cast<std::size_t>(neighbour)] = hop;
          if (neighbour == dst) {
            found = true;
            break;
          }
          next_frontier.push_back(neighbour);
        }
      }
      if (found) break;
    }
    frontier = std::move(next_frontier);
  }
  PGASQ_CHECK(found, << "route_avoiding: no route from node " << src << " to node "
                     << dst << " — the blocked links partition the torus");
  std::vector<Link> path;
  for (int node = dst; node != src; node = via[static_cast<std::size_t>(node)].from_node) {
    path.push_back(via[static_cast<std::size_t>(node)]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

int Torus5D::link_index(const Link& link) const {
  PGASQ_CHECK(link.from_node >= 0 && link.from_node < num_nodes_);
  PGASQ_CHECK(link.dim >= 0 && link.dim < kDims);
  return link.from_node * (kDims * 2) + link.dim * 2 + (link.dir < 0 ? 1 : 0);
}

std::string Torus5D::to_string() const {
  std::ostringstream os;
  os << dims_[0] << 'x' << dims_[1] << 'x' << dims_[2] << 'x' << dims_[3] << 'x'
     << dims_[4] << " torus (" << num_nodes_ << " nodes)";
  return os.str();
}

namespace {
struct PartitionEntry {
  int nodes;
  Coord5 dims;
};

// Standard BG/Q partition shapes. The E dimension is fixed at 2 on
// real hardware (except trivially small partitions); 128 nodes matches
// the paper's Eq 10 decomposition 2(A)*2(B)*4(C)*4(D)*2(E); 512 nodes
// is one midplane.
constexpr PartitionEntry kPartitions[] = {
    {1, {1, 1, 1, 1, 1}},    {2, {2, 1, 1, 1, 1}},    {4, {2, 2, 1, 1, 1}},
    {8, {2, 2, 2, 1, 1}},    {16, {2, 2, 2, 2, 1}},   {32, {2, 2, 2, 2, 2}},
    {64, {2, 2, 4, 2, 2}},   {128, {2, 2, 4, 4, 2}},  {256, {4, 2, 4, 4, 2}},
    {512, {4, 4, 4, 4, 2}},  {1024, {4, 4, 4, 8, 2}}, {2048, {4, 4, 8, 8, 2}},
    {4096, {8, 4, 8, 8, 2}},
};
}  // namespace

bool has_bgq_partition(int nodes) {
  for (const auto& e : kPartitions) {
    if (e.nodes == nodes) return true;
  }
  return false;
}

Coord5 bgq_partition_dims(int nodes) {
  for (const auto& e : kPartitions) {
    if (e.nodes == nodes) return e.dims;
  }
  PGASQ_CHECK(false, << "no BG/Q partition shape for " << nodes
                     << " nodes; use balanced_dims()");
  return {};
}

Coord5 balanced_dims(int nodes) {
  PGASQ_CHECK(nodes >= 1);
  Coord5 dims{1, 1, 1, 1, 1};
  // Greedy: peel prime factors largest-first onto the currently
  // smallest dimension, keeping the shape as cubic as possible.
  int n = nodes;
  std::vector<int> factors;
  for (int f = 2; f * f <= n; ++f) {
    while (n % f == 0) {
      factors.push_back(f);
      n /= f;
    }
  }
  if (n > 1) factors.push_back(n);
  std::sort(factors.rbegin(), factors.rend());
  for (int f : factors) {
    auto smallest = std::min_element(dims.begin(), dims.end());
    *smallest *= f;
  }
  std::sort(dims.rbegin(), dims.rend());
  return dims;
}

RankMapping::RankMapping(const Torus5D& torus, int ranks_per_node)
    : torus_(torus), ranks_per_node_(ranks_per_node) {
  PGASQ_CHECK(ranks_per_node_ >= 1 && ranks_per_node_ <= 64,
              << "ranks per node " << ranks_per_node_
              << " (BG/Q has 16 compute cores x 4 SMT threads)");
  num_ranks_ = torus_.num_nodes() * ranks_per_node_;
}

int RankMapping::node_of_rank(int rank) const {
  PGASQ_CHECK(rank >= 0 && rank < num_ranks_, << "rank " << rank);
  return rank / ranks_per_node_;  // T digit varies fastest in ABCDET
}

int RankMapping::slot_of_rank(int rank) const {
  PGASQ_CHECK(rank >= 0 && rank < num_ranks_, << "rank " << rank);
  return rank % ranks_per_node_;
}

int RankMapping::rank_of(int node, int slot) const {
  PGASQ_CHECK(node >= 0 && node < torus_.num_nodes());
  PGASQ_CHECK(slot >= 0 && slot < ranks_per_node_);
  return node * ranks_per_node_ + slot;
}

}  // namespace pgasq::topo
