// Unit and property tests for the 5D torus geometry, BG/Q partition
// shapes, and the ABCDET rank mapping.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "topo/torus.hpp"
#include "util/error.hpp"

namespace pgasq::topo {
namespace {

TEST(Torus, CoordNodeBijection) {
  Torus5D torus({2, 3, 4, 2, 2});
  std::set<int> seen;
  for (int n = 0; n < torus.num_nodes(); ++n) {
    const Coord5 c = torus.coord_of(n);
    EXPECT_EQ(torus.node_of(c), n);
    seen.insert(n);
  }
  EXPECT_EQ(static_cast<int>(seen.size()), torus.num_nodes());
  EXPECT_EQ(torus.num_nodes(), 2 * 3 * 4 * 2 * 2);
}

TEST(Torus, HopDistanceProperties) {
  Torus5D torus({4, 4, 2, 2, 2});
  for (int a = 0; a < torus.num_nodes(); a += 7) {
    EXPECT_EQ(torus.hop_distance(a, a), 0);
    for (int b = 0; b < torus.num_nodes(); b += 5) {
      EXPECT_EQ(torus.hop_distance(a, b), torus.hop_distance(b, a));
      EXPECT_LE(torus.hop_distance(a, b), torus.diameter());
      EXPECT_GE(torus.hop_distance(a, b), a == b ? 0 : 1);
    }
  }
}

TEST(Torus, WraparoundShortens) {
  Torus5D torus({8, 1, 1, 1, 1});
  // 0 -> 7 is one hop backwards around the ring, not 7 forward.
  EXPECT_EQ(torus.hop_distance(0, 7), 1);
  EXPECT_EQ(torus.hop_distance(0, 4), 4);
  EXPECT_EQ(torus.hop_distance(0, 5), 3);
}

TEST(Torus, RouteFollowsLinksAndMatchesDistance) {
  Torus5D torus({3, 4, 2, 2, 2});
  for (int a = 0; a < torus.num_nodes(); a += 11) {
    for (int b = 0; b < torus.num_nodes(); b += 13) {
      const auto route = torus.route(a, b);
      EXPECT_EQ(static_cast<int>(route.size()), torus.hop_distance(a, b));
      int cur = a;
      int last_dim = -1;
      for (const auto& link : route) {
        EXPECT_EQ(link.from_node, cur);
        // Dimension-order: dims never decrease along the route.
        EXPECT_GE(link.dim, last_dim);
        last_dim = link.dim;
        // from/to really differ by one step in `dim` with wraparound.
        const Coord5 cf = torus.coord_of(link.from_node);
        const Coord5 ct = torus.coord_of(link.to_node);
        for (int d = 0; d < kDims; ++d) {
          if (d == link.dim) {
            EXPECT_EQ((cf[d] + link.dir + torus.dims()[d]) % torus.dims()[d], ct[d]);
          } else {
            EXPECT_EQ(cf[d], ct[d]);
          }
        }
        cur = link.to_node;
      }
      EXPECT_EQ(cur, b);
    }
  }
}

TEST(Torus, OrderedRoutesAreMinimalForAnyPermutation) {
  Torus5D torus({3, 2, 4, 2, 2});
  const std::array<int, kDims> orders[] = {
      {0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}};
  for (int a = 0; a < torus.num_nodes(); a += 9) {
    for (int b = 0; b < torus.num_nodes(); b += 7) {
      for (const auto& order : orders) {
        const auto route = torus.route_ordered(a, b, order);
        EXPECT_EQ(static_cast<int>(route.size()), torus.hop_distance(a, b));
        int cur = a;
        for (const auto& link : route) {
          EXPECT_EQ(link.from_node, cur);
          cur = link.to_node;
        }
        EXPECT_EQ(cur, b);
      }
    }
  }
  EXPECT_THROW(torus.route_ordered(0, 1, {0, 1, 2, 3, 3}), Error);
}

// The stride walk against a walk over coordinates decoded by division:
// every pair, every rotation of the dimension order (as the contention
// model's dynamic routing uses), on shapes with dims of 1 and 2. One
// buffer serves every walk.
TEST(Torus, RouteWalkMatchesCoordinateReference) {
  const Coord5 shapes[] = {{1, 1, 1, 1, 1}, {2, 1, 3, 1, 2}, {4, 2, 1, 3, 2},
                           {5, 1, 2, 4, 1}, {2, 2, 2, 2, 2}};
  std::vector<Link> walked;
  for (const Coord5& dims : shapes) {
    const Torus5D torus(dims);
    const auto decode = [&](int node) {
      Coord5 c{};
      for (int d = kDims - 1; d >= 0; --d) {
        c[d] = node % dims[d];
        node /= dims[d];
      }
      return c;
    };
    const auto encode = [&](const Coord5& c) {
      int node = 0;
      for (int d = 0; d < kDims; ++d) node = node * dims[d] + c[d];
      return node;
    };
    for (int shift = 0; shift < kDims; ++shift) {
      std::array<int, kDims> order{};
      for (int i = 0; i < kDims; ++i) order[static_cast<std::size_t>(i)] = (i + shift) % kDims;
      for (int a = 0; a < torus.num_nodes(); ++a) {
        for (int b = 0; b < torus.num_nodes(); ++b) {
          std::vector<Link> want;
          Coord5 cur = decode(a);
          const Coord5 to = decode(b);
          for (const int d : order) {
            const int fwd = (to[d] - cur[d] + dims[d]) % dims[d];
            const int dir = fwd <= dims[d] - fwd ? 1 : -1;
            for (int n = dir > 0 ? fwd : dims[d] - fwd; n > 0; --n) {
              Coord5 next = cur;
              next[d] = (cur[d] + dir + dims[d]) % dims[d];
              want.push_back(Link{encode(cur), encode(next), d, dir});
              cur = next;
            }
          }
          torus.route_ordered(a, b, order, walked);
          ASSERT_EQ(walked.size(), want.size()) << torus.to_string() << ' ' << a << "->" << b;
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(walked[i].from_node, want[i].from_node);
            EXPECT_EQ(walked[i].to_node, want[i].to_node);
            EXPECT_EQ(walked[i].dim, want[i].dim);
            EXPECT_EQ(walked[i].dir, want[i].dir);
          }
          EXPECT_EQ(static_cast<int>(want.size()), torus.hop_distance(a, b));
          EXPECT_EQ(torus.coord_of(a), decode(a));
          EXPECT_EQ(torus.node_of(decode(a)), a);
        }
      }
    }
  }
}

TEST(Torus, LinkIndexUniqueInBounds) {
  Torus5D torus({2, 2, 2, 2, 2});
  std::set<int> indices;
  for (int n = 0; n < torus.num_nodes(); ++n) {
    for (int d = 0; d < kDims; ++d) {
      for (int dir : {+1, -1}) {
        const int idx = torus.link_index(Link{n, 0, d, dir});
        EXPECT_GE(idx, 0);
        EXPECT_LT(idx, torus.num_links());
        EXPECT_TRUE(indices.insert(idx).second) << "duplicate link index " << idx;
      }
    }
  }
}

TEST(Partition, PaperShapeFor128Nodes) {
  // Eq 10 of the paper: 128 = 2(A)*2(B)*4(C)*4(D)*2(E).
  const Coord5 dims = bgq_partition_dims(128);
  EXPECT_EQ(dims, (Coord5{2, 2, 4, 4, 2}));
  Torus5D torus(dims);
  // With wraparound the maximum distance is (2+2+4+4+2)/2 = 7.
  EXPECT_EQ(torus.diameter(), 7);
}

TEST(Partition, TableCoversPowersOfTwoAndThrowsOtherwise) {
  for (int n = 1; n <= 4096; n *= 2) {
    EXPECT_TRUE(has_bgq_partition(n)) << n;
    const Coord5 dims = bgq_partition_dims(n);
    int prod = 1;
    for (int d : dims) prod *= d;
    EXPECT_EQ(prod, n);
  }
  EXPECT_FALSE(has_bgq_partition(48));
  EXPECT_THROW(bgq_partition_dims(48), Error);
}

TEST(Partition, BalancedDimsFactorsAnything) {
  for (int n : {1, 6, 48, 100, 97, 360}) {
    const Coord5 dims = balanced_dims(n);
    int prod = 1;
    for (int d : dims) prod *= d;
    EXPECT_EQ(prod, n) << "n=" << n;
  }
  // 97 is prime: one fat dimension.
  const Coord5 p = balanced_dims(97);
  EXPECT_EQ(p[0], 97);
}

class MappingTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MappingTest, AbcdetBijectionAndNodePacking) {
  const auto [nodes, c] = GetParam();
  Torus5D torus(has_bgq_partition(nodes) ? bgq_partition_dims(nodes)
                                         : balanced_dims(nodes));
  RankMapping mapping(torus, c);
  EXPECT_EQ(mapping.num_ranks(), nodes * c);
  std::set<std::pair<int, int>> seen;
  for (int r = 0; r < mapping.num_ranks(); ++r) {
    const int node = mapping.node_of_rank(r);
    const int slot = mapping.slot_of_rank(r);
    EXPECT_GE(node, 0);
    EXPECT_LT(node, nodes);
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, c);
    EXPECT_EQ(mapping.rank_of(node, slot), r);
    EXPECT_TRUE(seen.insert({node, slot}).second);
  }
  // ABCDET: consecutive ranks fill a node before moving on (T fastest).
  for (int r = 0; r + 1 < mapping.num_ranks(); ++r) {
    if (mapping.slot_of_rank(r) < c - 1) {
      EXPECT_EQ(mapping.node_of_rank(r), mapping.node_of_rank(r + 1));
    } else {
      EXPECT_EQ(mapping.node_of_rank(r) + 1, mapping.node_of_rank(r + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MappingTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 16},
                                           std::pair{32, 4}, std::pair{128, 16},
                                           std::pair{6, 3}));

TEST(Mapping, RejectsBadRanksPerNode) {
  Torus5D torus({2, 1, 1, 1, 1});
  EXPECT_THROW(RankMapping(torus, 0), Error);
  EXPECT_THROW(RankMapping(torus, 65), Error);
}

}  // namespace
}  // namespace pgasq::topo
