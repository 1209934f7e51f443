// The coll engine: every collective x every algorithm across
// power-of-two, composite non-power-of-two, and prime rank counts;
// bitwise determinism of the floating-point reductions; byte-identical
// results under a lossy fault plan (the PR 1 retransmit protocol must
// make tree and ring schedules fault-transparent); the selection
// table and its coll.* overrides; and the report's collective table.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "coll/coll.hpp"
#include "core/report.hpp"
#include "core/world.hpp"
#include "ga/collectives.hpp"

namespace pgasq::coll {
namespace {

using CollOpts = std::vector<std::pair<std::string, std::string>>;

armci::WorldConfig make_cfg(int ranks, std::uint64_t seed = 42,
                            CollOpts coll = {}) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = ranks;
  cfg.machine.seed = seed;
  cfg.armci.coll = std::move(coll);
  return cfg;
}

/// Forces every collective through `algo` (selection normalizes combos
/// the algorithm cannot serve, e.g. hw alltoall -> torus-ring).
CollOpts force_all(const std::string& algo) {
  CollOpts opts;
  for (const char* op : armci::kCollOpNames) {
    opts.emplace_back(std::string("algo.") + op, algo);
  }
  return opts;
}

// ---------------------------------------------------------------------------
// Full matrix: 6 collectives x 4 algorithms x {pow2, composite, prime,
// larger pow2} rank counts, with value checks for every operation.

class CollMatrix
    : public ::testing::TestWithParam<std::tuple<int, const char*>> {};

TEST_P(CollMatrix, AllSixOpsProduceCorrectValues) {
  const int p = std::get<0>(GetParam());
  const std::string algo = std::get<1>(GetParam());
  armci::World world(make_cfg(p, 42, force_all(algo)));
  world.spmd([p](armci::Comm& comm) {
    auto& engine = CollEngine::of(comm);
    const int me = comm.rank();
    const int root = p > 1 ? 1 : 0;

    engine.barrier();

    // Broadcast: odd byte count exercises slot padding.
    std::vector<std::byte> b(777, std::byte{0});
    if (me == root) {
      for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = static_cast<std::byte>(i * 7 + 3);
      }
    }
    engine.broadcast(b.data(), b.size(), root);
    for (std::size_t i = 0; i < b.size(); ++i) {
      ASSERT_EQ(b[i], static_cast<std::byte>(i * 7 + 3)) << "byte " << i;
    }

    // Reduce to root.
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

    // Allreduce: every rank must end with the sum.
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

    // Allgather.
    constexpr std::size_t kBlk = 48;
    std::vector<std::byte> gin(kBlk), gout(kBlk * static_cast<std::size_t>(p));
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

    // Alltoall: out[s..] must hold what rank s addressed to me.
    constexpr std::size_t kMsg = 40;
    std::vector<std::byte> tin(kMsg * static_cast<std::size_t>(p));
    std::vector<std::byte> tout(tin.size());
    for (int dst = 0; dst < p; ++dst) {
      for (std::size_t i = 0; i < kMsg; ++i) {
        tin[static_cast<std::size_t>(dst) * kMsg + i] =
            static_cast<std::byte>(me * 13 + dst * 5 + static_cast<int>(i));
      }
    }
    engine.alltoall(tin.data(), kMsg, tout.data());
    for (int src = 0; src < p; ++src) {
      for (std::size_t i = 0; i < kMsg; ++i) {
        ASSERT_EQ(tout[static_cast<std::size_t>(src) * kMsg + i],
                  static_cast<std::byte>(src * 13 + me * 5 + static_cast<int>(i)))
            << "from " << src << " byte " << i;
      }
    }

    engine.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(
    RanksByAlgo, CollMatrix,
    ::testing::Combine(::testing::Values(4, 6, 7, 16),
                       ::testing::Values("binomial", "recdbl", "torus-ring",
                                         "hw", "rab")),
    [](const auto& info) {
      return "np" + std::to_string(std::get<0>(info.param)) + "_" +
             [](std::string s) {
               for (char& c : s) {
                 if (c == '-') c = '_';
               }
               return s;
             }(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Floating-point determinism. Each algorithm fixes its own association
// order, so within one algorithm the result must be bitwise identical
// on every rank and across machine seeds; across *algorithms* only
// numerical closeness is guaranteed.

std::vector<std::uint64_t> allreduce_bits(int p, std::uint64_t seed,
                                          const std::string& algo,
                                          fault::FaultPlan plan = {}) {
  armci::WorldConfig cfg = make_cfg(p, seed, {{"algo.allreduce", algo}});
  cfg.machine.fault = plan;
  armci::World world(cfg);
  std::vector<std::uint64_t> bits(static_cast<std::size_t>(p), 0);
  world.spmd([&](armci::Comm& comm) {
    auto& engine = CollEngine::of(comm);
    // Values whose sum is association-sensitive in the last ulps.
    double x = 0.1 * (comm.rank() + 1) + 1e-13 / (comm.rank() + 1);
    engine.allreduce_sum(&x, 1);
    std::memcpy(&bits[static_cast<std::size_t>(comm.rank())], &x, sizeof(x));
    engine.barrier();
  });
  return bits;
}

TEST(CollDeterminism, BitwiseIdenticalAcrossRanksAndSeeds) {
  for (const char* algo : {"binomial", "recdbl", "torus-ring", "hw", "rab"}) {
    const auto run1 = allreduce_bits(6, 42, algo);
    const auto run2 = allreduce_bits(6, 1337, algo);
    for (std::size_t r = 1; r < run1.size(); ++r) {
      EXPECT_EQ(run1[r], run1[0]) << algo << ": rank " << r << " diverged";
    }
    EXPECT_EQ(run1, run2) << algo << ": result depends on the machine seed";
  }
}

TEST(CollDeterminism, AlgorithmsAgreeNumerically) {
  const auto as_double = [](std::uint64_t bits) {
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  };
  const double recdbl = as_double(allreduce_bits(6, 42, "recdbl")[0]);
  for (const char* algo : {"binomial", "torus-ring", "hw", "rab"}) {
    EXPECT_NEAR(as_double(allreduce_bits(6, 42, algo)[0]), recdbl, 1e-12)
        << algo;
  }
}

// ---------------------------------------------------------------------------
// Fault transparency: with a 1% packet-drop plan the retransmit
// protocol recovers every schedule message, so tree and ring schedules
// must deliver byte-identical results — only timings may move.

TEST(CollFaults, LossyFabricLeavesResultsByteIdentical) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.drop_prob = 0.01;
  ASSERT_TRUE(plan.enabled());
  for (const char* algo : {"binomial", "recdbl", "torus-ring", "rab"}) {
    const auto clean = allreduce_bits(8, 42, algo);
    const auto lossy = allreduce_bits(8, 42, algo, plan);
    EXPECT_EQ(clean, lossy) << algo << ": faults changed the payload";
  }
}

TEST(CollFaults, BroadcastSurvivesLossyFabric) {
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.drop_prob = 0.01;
  for (const char* algo : {"binomial", "torus-ring"}) {
    armci::WorldConfig cfg = make_cfg(8, 42, {{"algo.broadcast", algo}});
    cfg.machine.fault = plan;
    armci::World world(cfg);
    world.spmd([](armci::Comm& comm) {
      auto& engine = CollEngine::of(comm);
      std::vector<std::byte> buf(4096, std::byte{0});
      if (comm.rank() == 0) {
        for (std::size_t i = 0; i < buf.size(); ++i) {
          buf[i] = static_cast<std::byte>(i * 11 + 5);
        }
      }
      engine.broadcast(buf.data(), buf.size(), 0);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        ASSERT_EQ(buf[i], static_cast<std::byte>(i * 11 + 5)) << "byte " << i;
      }
      engine.barrier();
    });
  }
}

// ---------------------------------------------------------------------------
// ga::gop_sum now routes through the engine: the old gather-to-root
// serialization at non-power-of-two counts is gone. Regression over
// the counts that used to hit that fallback.

class GopNonPow2 : public ::testing::TestWithParam<int> {};

TEST_P(GopNonPow2, SumLandsOnEveryRank) {
  const int p = GetParam();
  armci::World world(make_cfg(p));
  world.spmd([p](armci::Comm& comm) {
    std::vector<double> x(5);
    for (int i = 0; i < 5; ++i) {
      x[static_cast<std::size_t>(i)] = comm.rank() + 10.0 * i;
    }
    ga::gop_sum(comm, x.data(), x.size());
    const double rank_sum = p * (p - 1) / 2.0;
    for (int i = 0; i < 5; ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)], rank_sum + 10.0 * i * p, 1e-9)
          << "element " << i << " on rank " << comm.rank();
    }
    comm.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(Counts, GopNonPow2, ::testing::Values(3, 5, 6, 12));

// ---------------------------------------------------------------------------
// Pinned software collectives: the slot waits of Comm::poll_until park
// their ranks between landings, which must leave virtual time and the
// advance counters exactly where the stepped loop leaves them. The run
// is made twice: with observability off, and with a timeline, which
// observes every fiber switch and so steps every pass on the fiber.
// Both must give the same figures; only the first may skip fiber
// switches and the engine events of idle passes.

struct PinnedCost {
  std::uint64_t fiber_switches;
  std::uint64_t events;
};

/// Runs the pinned alltoall, broadcast, allreduce and barrier, checks
/// their results and figures, and returns the engine's host-side work.
PinnedCost run_pinned_software_schedule(bool timeline) {
  constexpr int p = 32;
  constexpr std::size_t kA2aBytes = 4096;
  constexpr std::size_t kA2aWords = kA2aBytes / 8;
  armci::WorldConfig cfg =
      make_cfg(p, 42, {{"hw", "0"}, {"algo.allreduce", "recdbl"},
                       {"algo.broadcast", "binomial"}, {"algo.barrier", "recdbl"}});
  cfg.machine.ranks_per_node = 1;
  cfg.machine.network_model = "contention";
  cfg.machine.obs.timeline = timeline;
  armci::World world(cfg);
  world.spmd([](armci::Comm& comm) {
    auto& engine = CollEngine::of(comm);
    const int me = comm.rank();
    const auto word = [](int from, int to, std::size_t k) {
      return static_cast<std::uint64_t>(from) * 1000003u + static_cast<std::uint64_t>(to) * 1009u + k;
    };
    std::vector<std::uint64_t> in(static_cast<std::size_t>(p) * kA2aWords);
    std::vector<std::uint64_t> out(in.size(), 0);
    for (int to = 0; to < p; ++to) {
      for (std::size_t k = 0; k < kA2aWords; ++k) {
        in[static_cast<std::size_t>(to) * kA2aWords + k] = word(me, to, k);
      }
    }
    engine.alltoall(in.data(), kA2aBytes, out.data());
    for (int from = 0; from < p; ++from) {
      for (std::size_t k = 0; k < kA2aWords; ++k) {
        ASSERT_EQ(out[static_cast<std::size_t>(from) * kA2aWords + k], word(from, me, k))
            << "alltoall word " << k << " from rank " << from;
      }
    }

    std::vector<std::byte> b(1000, std::byte{0});
    if (me == 3) {
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::byte>(i * 13 + 1);
    }
    engine.broadcast(b.data(), b.size(), 3);
    for (std::size_t i = 0; i < b.size(); ++i) {
      ASSERT_EQ(b[i], static_cast<std::byte>(i * 13 + 1)) << "broadcast byte " << i;
    }

    std::vector<double> x(64);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = me + 0.5 * static_cast<double>(i);
    engine.allreduce_sum(x.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], p * (p - 1) / 2.0 + p * 0.5 * static_cast<double>(i)) << "element " << i;
    }

    engine.barrier();
  });
  std::uint64_t advances = 0;
  std::uint64_t empty = 0;
  for (int r = 0; r < p; ++r) {
    pami::Process& proc = world.machine().process(r);
    for (int c = 0; c < proc.num_contexts(); ++c) {
      advances += proc.context(c).stats().advance_calls;
      empty += proc.context(c).stats().empty_advances;
    }
  }
  EXPECT_EQ(world.elapsed(), Time{5739804917});
  EXPECT_EQ(advances, 28276u);
  EXPECT_EQ(empty, 25542u);
  const sim::Engine& engine = world.machine().engine();
  return {engine.fiber_switches(), engine.events_processed()};
}

TEST(CollPinned, SoftwareScheduleTimingAndAdvanceCounts) {
  PinnedCost cost[2] = {};
  for (const bool timeline : {false, true}) {
    SCOPED_TRACE(timeline ? "obs.timeline=1" : "obs off");
    cost[timeline] = run_pinned_software_schedule(timeline);
  }
  EXPECT_LT(cost[0].fiber_switches, cost[1].fiber_switches);
  // Parked, an idle pass schedules no event: only landings do.
  EXPECT_EQ(cost[0].events, 14018u);
  EXPECT_LT(cost[0].events * 4, cost[1].events);
}

// ---------------------------------------------------------------------------
// Selection table and overrides.

TEST(Selection, DefaultsMatchTheTable) {
  armci::World world(make_cfg(16));
  world.spmd([](armci::Comm& comm) {
    auto& engine = CollEngine::of(comm);
    // With the collective logic available it carries every combine/
    // replicate collective, as on real BG/Q (S II-A).
    EXPECT_EQ(engine.algo_for(Op::kBarrier, 0), Algo::kHw);
    EXPECT_EQ(engine.algo_for(Op::kBroadcast, 256), Algo::kHw);
    EXPECT_EQ(engine.algo_for(Op::kAllreduce, 256), Algo::kHw);
    EXPECT_EQ(engine.algo_for(Op::kAllreduce, 1 << 20), Algo::kHw);
    // Personalized / concatenation collectives have no hw combine.
    EXPECT_EQ(engine.algo_for(Op::kAllgather, 64), Algo::kRecdbl);
    EXPECT_EQ(engine.algo_for(Op::kAlltoall, 4096), Algo::kTorusRing);
    engine.barrier();
  });
}

TEST(Selection, DisablingHwFallsBackToSoftware) {
  armci::World world(make_cfg(16, 42, {{"hw", "0"}}));
  world.spmd([](armci::Comm& comm) {
    auto& engine = CollEngine::of(comm);
    EXPECT_FALSE(engine.config().hw_enabled);
    // The size/geometry table now picks among software schedules.
    EXPECT_EQ(engine.algo_for(Op::kBarrier, 0), Algo::kRecdbl);
    EXPECT_EQ(engine.algo_for(Op::kBroadcast, 256), Algo::kBinomial);
    EXPECT_EQ(engine.algo_for(Op::kAllreduce, 256), Algo::kRecdbl);
    EXPECT_EQ(engine.algo_for(Op::kAllreduce, 1 << 20), Algo::kTorusRing);
    engine.barrier();
  });
}

TEST(Selection, ForcedAlgorithmsAreNormalized) {
  armci::World world(make_cfg(6, 42,
                              {{"algo.alltoall", "hw"},
                               {"algo.broadcast", "recdbl"},
                               {"algo.allgather", "recdbl"}}));
  world.spmd([](armci::Comm& comm) {
    auto& engine = CollEngine::of(comm);
    // hw has no personalized exchange; recdbl bcast does not exist;
    // recdbl allgather needs a power of two (p = 6 here).
    EXPECT_EQ(engine.algo_for(Op::kAlltoall, 1024), Algo::kTorusRing);
    EXPECT_EQ(engine.algo_for(Op::kBroadcast, 1024), Algo::kBinomial);
    EXPECT_EQ(engine.algo_for(Op::kAllgather, 1024), Algo::kTorusRing);
    engine.barrier();
  });
}

TEST(Selection, RejectsUnknownOptions) {
  armci::World world(make_cfg(2, 42, {{"bogus", "1"}}));
  EXPECT_THROW(world.spmd([](armci::Comm& comm) { CollEngine::of(comm); }),
               Error);
}

TEST(Selection, LinkFaultPlanDeselectsHardware) {
  armci::WorldConfig cfg = make_cfg(8);
  fault::LinkFaultSpec link;
  link.node = 0;
  link.dim = 0;
  link.dir = +1;
  cfg.machine.fault.link_faults.push_back(link);
  armci::World world(cfg);
  world.spmd([](armci::Comm& comm) {
    auto& engine = CollEngine::of(comm);
    EXPECT_TRUE(engine.geometry().link_faults);
    EXPECT_NE(engine.algo_for(Op::kBarrier, 0), Algo::kHw);
    EXPECT_NE(engine.algo_for(Op::kAllreduce, 1 << 20), Algo::kHw);
    engine.barrier();
  });
}

// ---------------------------------------------------------------------------
// The communication report gains a per-(op, algorithm) table.

TEST(CollReport, ReportListsCollectiveUsage) {
  armci::World world(make_cfg(4));
  world.spmd([](armci::Comm& comm) {
    auto& engine = CollEngine::of(comm);
    std::vector<double> x(64, 1.0);
    engine.allreduce_sum(x.data(), x.size());
    engine.barrier();
  });
  const std::string report = armci::render_report(world);
  EXPECT_NE(report.find("collective"), std::string::npos);
  EXPECT_NE(report.find("allreduce"), std::string::npos);
  EXPECT_NE(report.find("barrier"), std::string::npos);
}

}  // namespace
}  // namespace pgasq::coll
