// Process groups (src/grp): split/create membership and translation at
// awkward (prime) world sizes, nested splits, non-member rejection,
// group-collective correctness — including byte-identity under a lossy
// fabric — the node/leaders canonical groups, the hierarchical
// two-level schedules built on them, the pipelined segmented
// broadcast, and group consistency across a fail-stop shrink.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "coll/coll.hpp"
#include "core/report.hpp"
#include "core/world.hpp"
#include "fault/fault.hpp"
#include "ft/liveness.hpp"
#include "ft/recovery.hpp"
#include "ga/collectives.hpp"
#include "grp/group.hpp"

namespace pgasq::grp {
namespace {

using CollOpts = std::vector<std::pair<std::string, std::string>>;

armci::WorldConfig make_cfg(int ranks, int per_node = 1, CollOpts coll = {}) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = ranks;
  cfg.machine.ranks_per_node = per_node;
  cfg.armci.coll = std::move(coll);
  return cfg;
}

// ---------------------------------------------------------------------------
// Split membership, rank translation, and scoped collectives at prime
// world sizes (no power-of-two shortcuts can hide indexing bugs).

class GroupSplitPrime : public ::testing::TestWithParam<int> {};

TEST_P(GroupSplitPrime, ColorsPartitionAndTranslateBothWays) {
  const int p = GetParam();
  armci::World world(make_cfg(p));
  world.spmd([p](armci::Comm& comm) {
    auto& reg = GroupRegistry::of(comm);
    const int me = comm.rank();
    const int color = me % 3;
    // Reverse key ordering inside each color: members must be sorted
    // by key, so group rank order inverts world rank order.
    auto g = reg.split(color, -me);
    ASSERT_TRUE(g->is_member());
    std::vector<int> expect;
    for (int r = p - 1; r >= 0; --r) {
      if (r % 3 == color) expect.push_back(r);
    }
    EXPECT_EQ(g->members(), expect);
    EXPECT_EQ(g->size(), static_cast<int>(expect.size()));
    for (int gr = 0; gr < g->size(); ++gr) {
      EXPECT_EQ(g->world_rank(gr), expect[static_cast<std::size_t>(gr)]);
      EXPECT_EQ(g->group_rank_of(expect[static_cast<std::size_t>(gr)]), gr);
    }
    const int other_color = color == 0 ? 1 : 0;  // rank `other_color` itself
    EXPECT_EQ(g->group_rank_of(other_color), -1)
        << "a different color must not translate";
    EXPECT_EQ(g->world_rank(g->rank()), me);

    // The group allreduce sums ONLY the members' contributions.
    double x = me + 1.0;
    g->allreduce_sum(&x, 1);
    double want = 0.0;
    for (const int r : expect) want += r + 1.0;
    EXPECT_DOUBLE_EQ(x, want);

    // And a group broadcast from the last group rank.
    std::vector<std::byte> buf(513, std::byte{0});
    const int root = g->size() - 1;
    if (g->rank() == root) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::byte>(i * 3 + 1);
      }
    }
    g->broadcast(buf.data(), buf.size(), root);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      ASSERT_EQ(buf[i], static_cast<std::byte>(i * 3 + 1)) << "byte " << i;
    }
    comm.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(PrimeWorlds, GroupSplitPrime, ::testing::Values(7, 13));

TEST(GroupSplit, ColorlessRanksGetNonMemberHandles) {
  armci::World world(make_cfg(7));
  world.spmd([](armci::Comm& comm) {
    auto& reg = GroupRegistry::of(comm);
    const int me = comm.rank();
    // Odd ranks opt out entirely.
    auto g = reg.split(me % 2 == 0 ? 0 : -1, me);
    if (me % 2 == 0) {
      ASSERT_TRUE(g->is_member());
      EXPECT_EQ(g->size(), 4);
      double x = 1.0;
      g->allreduce_sum(&x, 1);
      EXPECT_DOUBLE_EQ(x, 4.0);
    } else {
      EXPECT_FALSE(g->is_member());
      EXPECT_EQ(g->rank(), -1);
      EXPECT_EQ(g->size(), 0);
    }
    comm.barrier();
  });
}

// ---------------------------------------------------------------------------
// Nested splits: quarter the world by splitting each half again. Group
// ids are agreed collectively, so mismatched call sites must abort.

TEST(GroupSplit, NestedSplitsQuarterTheWorld) {
  const int p = 13;
  armci::World world(make_cfg(p));
  world.spmd([p](armci::Comm& comm) {
    auto& reg = GroupRegistry::of(comm);
    const int me = comm.rank();
    auto half = reg.split(me % 2, me);
    auto quarter = half->split(me % 4 < 2 ? 0 : 1, me);
    ASSERT_TRUE(quarter->is_member());
    std::vector<int> expect;
    for (int r = 0; r < p; ++r) {
      if (r % 2 == me % 2 && (r % 4 < 2) == (me % 4 < 2)) expect.push_back(r);
    }
    EXPECT_EQ(quarter->members(), expect);
    // Sum of group ranks over the quarter, via the ga wrapper.
    double x = quarter->rank();
    ga::gop_sum(comm, &x, 1, quarter.get());
    const int n = quarter->size();
    EXPECT_DOUBLE_EQ(x, n * (n - 1) / 2.0);
    comm.barrier();
  });
}

TEST(GroupSplit, DivergedCallSitesAbortLoudly) {
  armci::World world(make_cfg(4));
  EXPECT_THROW(world.spmd([](armci::Comm& comm) {
                 auto& reg = GroupRegistry::of(comm);
                 // Rank 0 passes a different member list: the paired
                 // agreement allgather sees diverged digests and every
                 // rank aborts instead of building skewed groups.
                 if (comm.rank() == 0) {
                   reg.create({0, 1}, "skew");
                 } else {
                   reg.create({0, 2}, "skew");
                 }
                 comm.barrier();
               }),
               Error);
}

// ---------------------------------------------------------------------------
// Non-member collective calls are rejected with a descriptive error.

TEST(GroupErrors, NonMemberCollectiveIsRejected) {
  armci::World world(make_cfg(5));
  world.spmd([](armci::Comm& comm) {
    auto& reg = GroupRegistry::of(comm);
    const int me = comm.rank();
    auto g = reg.create({0, 2}, "pair");
    if (me != 0 && me != 2) {
      try {
        g->barrier();
        FAIL() << "non-member barrier did not throw";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("not a member"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("pair"), std::string::npos)
            << e.what();
      }
      // Translation still works on a non-member handle.
      EXPECT_EQ(g->world_rank(1), 2);
      EXPECT_EQ(g->group_rank_of(2), 1);
      EXPECT_EQ(g->group_rank_of(1), -1);
    } else {
      EXPECT_EQ(g->label(), "pair");
      g->barrier();
    }
    comm.barrier();
  });
}

TEST(GroupErrors, CreateValidatesMembers) {
  armci::World world(make_cfg(3));
  EXPECT_THROW(world.spmd([](armci::Comm& comm) {
                 GroupRegistry::of(comm).create({0, 0, 1}, "dup");
               }),
               Error);
  armci::World world2(make_cfg(3));
  EXPECT_THROW(world2.spmd([](armci::Comm& comm) {
                 GroupRegistry::of(comm).create({0, 7}, "ghost");
               }),
               Error);
}

// ---------------------------------------------------------------------------
// Canonical node / leaders groups from the ABCDET mapping.

TEST(GroupCanonical, NodeAndLeaderGroupsMatchTheMapping) {
  // 16 ranks, 4 per node -> 4 nodes.
  armci::World world(make_cfg(16, 4));
  world.spmd([](armci::Comm& comm) {
    auto& reg = GroupRegistry::of(comm);
    const int me = comm.rank();
    const int my_node = me / 4;

    auto node = reg.node_group();
    ASSERT_TRUE(node->is_member());
    EXPECT_EQ(node->label(), "node");
    std::vector<int> expect_node{my_node * 4, my_node * 4 + 1, my_node * 4 + 2,
                                 my_node * 4 + 3};
    EXPECT_EQ(node->members(), expect_node);
    EXPECT_EQ(node->rank(), me % 4);

    auto leaders = reg.leaders_group();
    EXPECT_EQ(leaders->label(), "leaders");
    EXPECT_EQ(leaders->members(), (std::vector<int>{0, 4, 8, 12}));
    EXPECT_EQ(leaders->is_member(), me % 4 == 0);
    if (leaders->is_member()) EXPECT_EQ(leaders->rank(), my_node);

    // Cached: asking again returns the same group.
    EXPECT_EQ(reg.node_group().get(), node.get());

    // A node-scoped reduction sums exactly the node's ranks.
    double x = me;
    node->allreduce_sum(&x, 1);
    EXPECT_DOUBLE_EQ(x, 4.0 * (my_node * 4) + 6.0);
    comm.barrier();
  });
}

// ---------------------------------------------------------------------------
// Hierarchical two-level schedules: correctness of every op carried by
// Algo::kHier, on a multi-node multi-slot machine.

TEST(GroupHier, HierSchedulesProduceCorrectValues) {
  CollOpts force;
  for (const char* op : {"barrier", "broadcast", "reduce", "allreduce",
                         "allgather"}) {
    force.emplace_back(std::string("algo.") + op, "hier");
  }
  // 16 ranks, 8 per node -> 2 nodes; root on a non-leader slot.
  armci::World world(make_cfg(16, 8, force));
  world.spmd([](armci::Comm& comm) {
    auto& engine = coll::CollEngine::of(comm);
    const int me = comm.rank();
    const int p = comm.nprocs();
    const int root = 3;

    engine.barrier();

    std::vector<std::byte> b(100000, std::byte{0});
    if (me == root) {
      for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = static_cast<std::byte>(i * 7 + 3);
      }
    }
    engine.broadcast(b.data(), b.size(), root);
    for (std::size_t i = 0; i < b.size(); ++i) {
      ASSERT_EQ(b[i], static_cast<std::byte>(i * 7 + 3)) << "byte " << i;
    }

    std::vector<double> r(33);
    for (std::size_t i = 0; i < r.size(); ++i) {
      r[i] = 0.25 * (me + 1) + static_cast<double>(i);
    }
    engine.reduce_sum(r.data(), r.size(), root);
    if (me == root) {
      for (std::size_t i = 0; i < r.size(); ++i) {
        EXPECT_NEAR(r[i], 0.25 * p * (p + 1) / 2.0 + static_cast<double>(i) * p,
                    1e-9)
            << "element " << i;
      }
    }

    std::vector<double> a(19);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = (me + 1) * (static_cast<double>(i) + 0.5);
    }
    engine.allreduce_sum(a.data(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], p * (p + 1) / 2.0 * (static_cast<double>(i) + 0.5),
                  1e-9)
          << "element " << i;
    }

    constexpr std::size_t kBlk = 48;
    std::vector<std::byte> gin(kBlk), gout(kBlk * 16);
    for (std::size_t i = 0; i < kBlk; ++i) {
      gin[i] = static_cast<std::byte>(me * 31 + static_cast<int>(i));
    }
    engine.allgather(gin.data(), kBlk, gout.data());
    for (int src = 0; src < p; ++src) {
      for (std::size_t i = 0; i < kBlk; ++i) {
        ASSERT_EQ(gout[static_cast<std::size_t>(src) * kBlk + i],
                  static_cast<std::byte>(src * 31 + static_cast<int>(i)))
            << "block " << src << " byte " << i;
      }
    }

    engine.barrier();
  });
  // The hierarchy's internal groups show up in the per-group stats.
  const std::string report = armci::render_report(world);
  EXPECT_NE(report.find("hier-node"), std::string::npos);
  EXPECT_NE(report.find("hier-leaders"), std::string::npos);
}

TEST(GroupHier, SelectionPrefersHierOnWideNodes) {
  // hw off, 8 ranks per node: the two-level schedules win the software
  // path for the combine/replicate ops; alltoall never goes hier.
  armci::World world(make_cfg(16, 8, {{"hw", "0"}}));
  world.spmd([](armci::Comm& comm) {
    auto& engine = coll::CollEngine::of(comm);
    EXPECT_EQ(engine.algo_for(coll::Op::kBroadcast, 1 << 16), coll::Algo::kHier);
    EXPECT_EQ(engine.algo_for(coll::Op::kAllreduce, 1 << 16), coll::Algo::kHier);
    EXPECT_EQ(engine.algo_for(coll::Op::kAllgather, 1 << 10), coll::Algo::kHier);
    EXPECT_NE(engine.algo_for(coll::Op::kAlltoall, 1 << 10), coll::Algo::kHier);
    engine.barrier();
  });
}

TEST(GroupHier, NarrowNodesKeepFlatSchedules) {
  // ppn = 2 < hier_min_ppn default (8): flat software schedules stay.
  armci::World world(make_cfg(8, 2, {{"hw", "0"}}));
  world.spmd([](armci::Comm& comm) {
    auto& engine = coll::CollEngine::of(comm);
    EXPECT_NE(engine.algo_for(coll::Op::kAllreduce, 1 << 16), coll::Algo::kHier);
    engine.barrier();
  });
  // ...unless the threshold is lowered.
  armci::World world2(make_cfg(8, 2, {{"hw", "0"}, {"hier_min_ppn", "2"}}));
  world2.spmd([](armci::Comm& comm) {
    auto& engine = coll::CollEngine::of(comm);
    EXPECT_EQ(engine.algo_for(coll::Op::kAllreduce, 1 << 16), coll::Algo::kHier);
    engine.barrier();
  });
}

// ---------------------------------------------------------------------------
// Pipelined segmented broadcast (coll.bcast_segment_bytes): the ring
// schedule must deliver identical bytes with any segment size.

TEST(GroupPipeline, SegmentedRingBroadcastDeliversIdenticalBytes) {
  for (const char* seg : {"0", "1024", "4096", "1000000"}) {
    armci::World world(make_cfg(8, 1,
                                {{"algo.broadcast", "torus-ring"},
                                 {"bcast_segment_bytes", seg}}));
    world.spmd([](armci::Comm& comm) {
      auto& engine = coll::CollEngine::of(comm);
      std::vector<std::byte> buf(50000, std::byte{0});
      if (comm.rank() == 2) {
        for (std::size_t i = 0; i < buf.size(); ++i) {
          buf[i] = static_cast<std::byte>(i * 13 + 7);
        }
      }
      engine.broadcast(buf.data(), buf.size(), 2);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        ASSERT_EQ(buf[i], static_cast<std::byte>(i * 13 + 7)) << "byte " << i;
      }
      engine.barrier();
    });
  }
}

// ---------------------------------------------------------------------------
// Byte-identity of group collectives under a lossy fabric: the
// retransmit protocol must make group schedules fault-transparent.

std::vector<std::uint64_t> group_allreduce_bits(fault::FaultPlan plan) {
  armci::WorldConfig cfg = make_cfg(8, 2);
  cfg.machine.fault = plan;
  armci::World world(cfg);
  std::vector<std::uint64_t> bits(8, 0);
  world.spmd([&](armci::Comm& comm) {
    auto& reg = GroupRegistry::of(comm);
    auto g = reg.split(comm.rank() % 2, comm.rank());
    double x = 0.1 * (comm.rank() + 1) + 1e-13 / (comm.rank() + 1);
    g->allreduce_sum(&x, 1);
    std::memcpy(&bits[static_cast<std::size_t>(comm.rank())], &x, sizeof(x));
    comm.barrier();
  });
  return bits;
}

TEST(GroupFaults, LossyFabricLeavesGroupResultsByteIdentical) {
  fault::FaultPlan plan;
  plan.seed = 9;
  plan.drop_prob = 0.01;
  ASSERT_TRUE(plan.enabled());
  const auto clean = group_allreduce_bits({});
  const auto lossy = group_allreduce_bits(plan);
  EXPECT_EQ(clean, lossy);
}

// A group's arena wraps through the control block's alternating
// rendezvous halves and grows by re-exchanging member bases there;
// loss skews the members, so a fast member's next rendezvous races a
// slow one's.
TEST(GroupArena, WrapsAndGrowthUnderLossKeepResultsExact) {
  armci::WorldConfig cfg = make_cfg(7, 1, {{"hw", "0"}});
  cfg.machine.fault.seed = 4;
  cfg.machine.fault.drop_prob = 0.02;
  armci::World world(cfg);
  std::uint64_t wraps = 0;
  world.spmd([&](armci::Comm& comm) {
    const int me = comm.rank();
    auto g = GroupRegistry::of(comm).split(me % 2, me);
    for (int round = 0; round < 40; ++round) {
      std::vector<double> x(static_cast<std::size_t>(8 + 16 * round), me + round);
      g->allreduce_sum(x.data(), x.size());
      double want = 0.0;
      for (const int r : g->members()) want += r + round;
      for (const double v : x) ASSERT_EQ(v, want) << "round " << round;
      g->barrier();
    }
    if (me == 0) wraps = g->engine().blocking_wraps();
    comm.barrier();
  });
  EXPECT_GT(wraps, 5u);
}

// ---------------------------------------------------------------------------
// Fail-stop shrink: the canonical groups are rebuilt over the
// survivors, user groups turn stale and reject collectives.

TEST(GroupShrink, RebuildKeepsNodeAndLeaderGroupsConsistent) {
  armci::WorldConfig cfg = make_cfg(8, 2);  // 4 nodes x 2 slots
  // Late enough that group setup (collective allocations) completes.
  cfg.machine.fault.node_fails.push_back({/*node=*/1, from_us(10000)});
  armci::World world(cfg);
  world.spmd([](armci::Comm& comm) {
    auto& reg = GroupRegistry::of(comm);
    auto node0 = reg.node_group();
    auto lead0 = reg.leaders_group();
    auto user = reg.split(comm.rank() % 2, comm.rank());
    ft::Runtime rt(comm, ft::RuntimeConfig{}, std::vector<ga::GlobalArray*>{});
    ASSERT_TRUE(rt.enabled());

    bool recovered = false;
    for (int iter = 0; iter < 500 && !recovered; ++iter) {
      try {
        comm.compute(from_us(100));
        double x = 1.0;
        coll::CollEngine::of(comm).allreduce_sum(&x, 1);
      } catch (const ft::PeerDeadError&) {
        if (!rt.recover()) return;  // this rank's node died
        recovered = true;
      }
    }
    ASSERT_TRUE(recovered) << "death was never detected";

    // Old handles are stale and reject ops with a clear error.
    EXPECT_TRUE(node0->stale());
    EXPECT_TRUE(lead0->stale());
    EXPECT_TRUE(user->stale());
    try {
      user->barrier();
      FAIL() << "stale group op did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("stale"), std::string::npos)
          << e.what();
    }

    // The canonical groups were rebuilt over the survivors (node 1 ==
    // ranks 2,3 is gone).
    const std::vector<int> live = reg.live();
    EXPECT_EQ(live, (std::vector<int>{0, 1, 4, 5, 6, 7}));
    auto node1 = reg.node_group();
    auto lead1 = reg.leaders_group();
    EXPECT_NE(node1.get(), node0.get());
    EXPECT_FALSE(node1->stale());
    const int my_node = comm.rank() / 2;
    EXPECT_EQ(node1->members(),
              (std::vector<int>{my_node * 2, my_node * 2 + 1}));
    EXPECT_EQ(lead1->members(), (std::vector<int>{0, 4, 6}));
    EXPECT_EQ(lead1->is_member(), comm.rank() % 2 == 0);

    // And they work: a node-scoped sum over the survivor clique.
    double x = comm.rank();
    node1->allreduce_sum(&x, 1);
    EXPECT_DOUBLE_EQ(x, my_node * 2 + my_node * 2 + 1.0);

    // Survivors can recreate user groups collectively.
    auto user2 = reg.split(comm.rank() % 2, comm.rank());
    ASSERT_TRUE(user2->is_member());
    double y = 1.0;
    user2->allreduce_sum(&y, 1);
    EXPECT_DOUBLE_EQ(y, static_cast<double>(user2->size()));
    comm.barrier();
  });
}

}  // namespace
}  // namespace pgasq::grp
