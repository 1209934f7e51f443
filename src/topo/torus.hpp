// Blue Gene/Q 5D torus geometry.
//
// BG/Q interconnects compute nodes in a 5-dimensional torus (dims
// named A, B, C, D, E; E is always 2 on real hardware) with ten
// bidirectional 2 GB/s links per node and deterministic dimension-order
// routing (the only mode exposed by software at the time of the paper,
// S II-A). This module provides coordinates, wraparound hop distances,
// route enumeration for the link-contention network model, and the
// ABCDET process-to-node mapping used throughout the paper's
// evaluation (S IV, Fig 7).
//
// Coordinates come from a per-node table built once, and routes are
// walked by per-dimension node strides, so neither a hop distance nor
// a route divides.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pgasq::topo {

/// Number of torus dimensions.
inline constexpr int kDims = 5;

/// Coordinate in (A, B, C, D, E) order.
using Coord5 = std::array<int, kDims>;

/// One directed link hop used by a route.
struct Link {
  int from_node;
  int to_node;
  int dim;  ///< 0..4 (A..E)
  int dir;  ///< +1 or -1
};

class Torus5D {
 public:
  explicit Torus5D(Coord5 dims);

  const Coord5& dims() const { return dims_; }
  int num_nodes() const { return num_nodes_; }

  /// Node index <-> coordinate, lexicographic with A slowest.
  const Coord5& coord_of(int node) const;
  int node_of(const Coord5& c) const;

  /// Minimal wraparound hop count between two nodes.
  int hop_distance(int a, int b) const;
  /// Largest hop distance in this torus (network diameter).
  int diameter() const;

  /// Deterministic dimension-order route (A first, then B..E), taking
  /// the shorter wrap direction; ties broken toward +1 so routes are
  /// reproducible. Empty when src == dst.
  std::vector<Link> route(int src, int dst) const;

  /// Minimal route traversing dimensions in the given order — used to
  /// model BG/Q's dynamic routing (hardware supports it; the software
  /// stack of the paper's era exposed deterministic only, S II-A).
  /// `dim_order` must be a permutation of {0..4}.
  std::vector<Link> route_ordered(int src, int dst,
                                  const std::array<int, kDims>& dim_order) const;
  /// The same route written into `out` (cleared first), which keeps
  /// its capacity: a caller that reuses one buffer walks routes
  /// without allocating once it holds diameter() links.
  void route_ordered(int src, int dst, const std::array<int, kDims>& dim_order,
                     std::vector<Link>& out) const;

  /// Fault-tolerant dimension-order route: takes the deterministic
  /// route when none of its links satisfy `blocked`; otherwise finds a
  /// shortest route around the blocked links (deterministic BFS whose
  /// neighbour enumeration follows dimension order, so healthy runs
  /// and degraded runs stay bit-reproducible). Throws pgasq::Error
  /// when the blocked links disconnect src from dst.
  std::vector<Link> route_avoiding(
      int src, int dst, const std::function<bool(const Link&)>& blocked) const;

  /// Dense id for a directed link: node * 10 + dim * 2 + (dir<0).
  int link_index(const Link& link) const;
  int num_links() const { return num_nodes_ * kDims * 2; }

  std::string to_string() const;

 private:
  Coord5 dims_;
  int num_nodes_;
  /// Node-index distance of one step along each dimension.
  Coord5 strides_;
  /// coords_[node] is coord_of(node).
  std::vector<Coord5> coords_;
};

/// Standard BG/Q partition shapes for power-of-two node counts
/// (1..4096). 128 nodes = 2*2*4*4*2 exactly as the paper derives in
/// Eq 10; 512 nodes is a midplane (4*4*4*4*2). Throws for sizes with
/// no table entry.
Coord5 bgq_partition_dims(int nodes);

/// True if `nodes` has a partition table entry.
bool has_bgq_partition(int nodes);

/// Balanced 5D factorization for arbitrary node counts (largest factor
/// first), used when no standard partition shape applies.
Coord5 balanced_dims(int nodes);

/// ABCDET mapping: ranks fill the T (process-per-node) dimension
/// fastest, then E, D, C, B, A — i.e. consecutive ranks pack each node
/// before moving to the torus neighbour.
class RankMapping {
 public:
  RankMapping(const Torus5D& torus, int ranks_per_node);

  int num_ranks() const { return num_ranks_; }
  int ranks_per_node() const { return ranks_per_node_; }
  int node_of_rank(int rank) const;
  /// Hardware-thread slot of the rank within its node (the "T" digit).
  int slot_of_rank(int rank) const;
  int rank_of(int node, int slot) const;

 private:
  const Torus5D& torus_;
  int ranks_per_node_;
  int num_ranks_;
};

}  // namespace pgasq::topo
