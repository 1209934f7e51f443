// Fault-injection subsystem: data must survive packet loss, CRC
// corruption and hard link failure byte-for-byte, recovery must be
// deterministic per seed, retry-budget exhaustion must escalate to a
// typed FaultError instead of hanging, and a stalled async-progress
// fiber must not cost liveness.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/comm.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "util/config.hpp"

namespace pgasq::armci {
namespace {

// 4 nodes on a 4x1x1x1x1 torus: dimension 0 has size 4, so failing a
// directed link forces a genuine 3-hop route-around (on size-2 dims
// the reverse link reaches the same neighbour for free).
WorldConfig ring4() {
  WorldConfig cfg;
  cfg.machine.num_ranks = 4;
  cfg.machine.ranks_per_node = 1;
  cfg.machine.dims = topo::Coord5{4, 1, 1, 1, 1};
  return cfg;
}

fault::FaultPlan lossy_plan(std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.01;
  plan.corrupt_prob = 0.002;
  plan.link_faults.push_back(
      fault::LinkFaultSpec{/*node=*/0, /*dim=*/0, /*dir=*/+1,
                           /*capacity=*/0.0, /*begin=*/0, fault::kForever});
  return plan;
}

/// The fault-scenario workload: contiguous put/get/acc, a strided
/// round-trip, and a notify handshake, all crossing the faulted links.
/// Returns every byte the ranks read back, concatenated per rank.
std::vector<std::vector<std::byte>> run_workload(const WorldConfig& cfg,
                                                 CommStats* stats_out) {
  constexpr std::size_t kBytes = 2048;
  std::vector<std::vector<std::byte>> read_back(
      static_cast<std::size_t>(cfg.machine.num_ranks));
  World world(cfg);
  world.spmd([&](Comm& comm) {
    const int r = comm.rank();
    const int n = comm.nprocs();
    const int right = (r + 1) % n;
    auto& mem = comm.malloc_collective(kBytes);
    auto& acc_mem = comm.malloc_collective(sizeof(double) * 32);
    auto& grid = comm.malloc_collective(64 * 64);
    auto& flag = comm.malloc_collective(8);
    std::vector<std::byte>& out = read_back[static_cast<std::size_t>(r)];

    // Contiguous put to the right neighbour, then read our own slab
    // back (written by the left neighbour) over the wire. Several
    // rounds so a percent-level drop rate is certain to bite.
    for (std::size_t round = 0; round < 32; ++round) {
      std::vector<std::byte> buf(kBytes);
      for (std::size_t i = 0; i < kBytes; ++i) {
        buf[i] = static_cast<std::byte>(
            (i * 31 + static_cast<std::size_t>(r) * 7 + round) & 0xFF);
      }
      comm.put(buf.data(), mem.at(right), kBytes);
      comm.fence(right);
      comm.barrier();
      std::vector<std::byte> back(kBytes);
      comm.get(mem.at(r), back.data(), kBytes);
      out.insert(out.end(), back.begin(), back.end());
      comm.barrier();
    }

    // Accumulate from every rank into rank 0, then fan the sums out.
    if (r == 0) {
      auto* d = reinterpret_cast<double*>(acc_mem.local(0));
      for (int i = 0; i < 32; ++i) d[i] = 1.0;
    }
    comm.barrier();
    std::vector<double> contrib(32);
    for (int i = 0; i < 32; ++i) contrib[static_cast<std::size_t>(i)] = i + r;
    comm.acc(2.0, contrib.data(), acc_mem.at(0), 32);
    comm.fence(0);
    comm.barrier();
    std::vector<double> sums(32);
    comm.get(acc_mem.at(0), sums.data(), sizeof(double) * 32);
    const auto* sum_bytes = reinterpret_cast<const std::byte*>(sums.data());
    out.insert(out.end(), sum_bytes, sum_bytes + sizeof(double) * 32);

    // Strided 2-D patch to the right neighbour and back.
    const StridedSpec spec = StridedSpec::rect2d(/*rows=*/16, /*row_bytes=*/48,
                                                 /*src_pitch=*/64, /*dst_pitch=*/64);
    std::vector<std::byte> patch(64 * 16);
    for (std::size_t i = 0; i < patch.size(); ++i) {
      patch[i] = static_cast<std::byte>((i + static_cast<std::size_t>(r) * 13) & 0xFF);
    }
    comm.put_strided(patch.data(), grid.at(right), spec);
    comm.fence(right);
    comm.barrier();
    std::vector<std::byte> patch_back(64 * 16, std::byte{0});
    comm.get_strided(grid.at(r), patch_back.data(), spec);
    out.insert(out.end(), patch_back.begin(), patch_back.end());

    // Notify handshake: producer r writes then notifies r+1.
    const std::int64_t token = 1000 + r;
    comm.put(&token, flag.at(right), sizeof token);
    comm.notify(right);
    const int left = (r + n - 1) % n;
    comm.wait_notify(left);
    std::int64_t got = 0;
    std::memcpy(&got, flag.local(r), sizeof got);
    const auto* tok_bytes = reinterpret_cast<const std::byte*>(&got);
    out.insert(out.end(), tok_bytes, tok_bytes + sizeof got);
    comm.barrier();
  });
  if (stats_out != nullptr) *stats_out = world.total_stats();
  return read_back;
}

TEST(FaultInjection, RecoveryIsByteIdenticalToFaultFreeRun) {
  CommStats clean_stats;
  const auto clean = run_workload(ring4(), &clean_stats);
  EXPECT_EQ(clean_stats.retransmits, 0u);

  for (const std::uint64_t seed : {7ull, 1234ull}) {
    WorldConfig faulty = ring4();
    faulty.machine.fault = lossy_plan(seed);
    CommStats stats;
    const auto recovered = run_workload(faulty, &stats);
    ASSERT_EQ(recovered.size(), clean.size());
    for (std::size_t r = 0; r < clean.size(); ++r) {
      EXPECT_EQ(recovered[r], clean[r])
          << "rank " << r << " read different data under faults, seed " << seed;
    }
    // The plan guarantees losses on this much traffic; recovery must
    // actually have happened, not been dodged.
    EXPECT_GT(stats.retransmits, 0u) << "seed " << seed;
    EXPECT_GT(stats.retransmit_backoff, 0) << "seed " << seed;
  }
}

// The full fault menu at once — percent-level drops, CRC corruption, a
// hard link failure, and a progress stall — at prime rank counts, where
// no power-of-two schedule shortcut can hide a hole in recovery. Every
// byte read back must match the fault-free run, for two plan seeds.
TEST(FaultInjection, CombinedFaultsRecoverAtPrimeRankCounts) {
  for (const int n : {7, 13}) {
    WorldConfig base;
    base.machine.num_ranks = n;
    base.machine.ranks_per_node = 1;
    base.machine.dims = topo::Coord5{n, 1, 1, 1, 1};
    const auto clean = run_workload(base, nullptr);

    for (const std::uint64_t seed : {5ull, 11ull}) {
      WorldConfig faulty = base;
      faulty.machine.fault.seed = seed;
      faulty.machine.fault.drop_prob = 0.01;
      faulty.machine.fault.corrupt_prob = 0.002;
      faulty.machine.fault.link_faults.push_back(
          fault::LinkFaultSpec{/*node=*/0, /*dim=*/0, /*dir=*/+1,
                               /*capacity=*/0.0, /*begin=*/0, fault::kForever});
      faulty.machine.fault.stalls.push_back(
          fault::StallSpec{/*rank=*/1, /*begin=*/from_us(100), from_ms(5)});
      CommStats stats;
      const auto recovered = run_workload(faulty, &stats);
      ASSERT_EQ(recovered.size(), clean.size());
      for (std::size_t r = 0; r < clean.size(); ++r) {
        EXPECT_EQ(recovered[r], clean[r])
            << "rank " << r << " of " << n << ", seed " << seed;
      }
      EXPECT_GT(stats.retransmits, 0u) << n << " ranks, seed " << seed;
    }
  }
}

TEST(FaultInjection, ReroutesAroundHardLinkFailure) {
  WorldConfig cfg = ring4();
  cfg.machine.fault.link_faults.push_back(
      fault::LinkFaultSpec{0, 0, +1, 0.0, 0, fault::kForever});
  World world(cfg);
  world.spmd([](Comm& comm) {
    std::int64_t x = 7;
    auto& mem = comm.malloc_collective(8);
    if (comm.rank() == 0) {
      comm.put(&x, mem.at(1), sizeof x);  // node 0 -> 1 must route around
      comm.fence(1);
      std::int64_t back = 0;
      comm.get(mem.at(1), &back, sizeof back);
      EXPECT_EQ(back, 7);
    }
    comm.barrier();
  });
  const fault::Injector* inj = world.machine().injector();
  ASSERT_NE(inj, nullptr);
  EXPECT_GT(inj->stats().reroutes, 0u);
  EXPECT_GT(inj->stats().rerouted_extra_hops, 0u);
}

TEST(FaultInjection, SameSeedSameRecovery) {
  WorldConfig cfg = ring4();
  cfg.machine.fault = lossy_plan(/*seed=*/99);
  CommStats a, b;
  run_workload(cfg, &a);
  run_workload(cfg, &b);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.retransmit_backoff, b.retransmit_backoff);
}

TEST(FaultInjection, RetryBudgetExhaustionEscalatesToFaultError) {
  WorldConfig cfg = ring4();
  cfg.machine.fault.drop_prob = 1.0;  // the fabric eats every packet
  cfg.machine.fault.retry_budget = 5;
  World world(cfg);
  try {
    world.spmd([](Comm& comm) {
      std::int64_t v = 1;
      auto& mem = comm.malloc_collective(8);
      if (comm.rank() == 0) {
        comm.put(&v, mem.at(1), sizeof v);
        comm.fence(1);
      }
      comm.barrier();
    });
    FAIL() << "expected FaultError, but the run completed";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.retries(), 5u);
    EXPECT_FALSE(e.operation().empty());
    EXPECT_NE(e.src_node(), e.dst_node());
    EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos);
  }
}

TEST(FaultInjection, ProgressStallDelaysButDoesNotKillService) {
  // Rank 1 never touches the runtime after the first barrier; its
  // async progress fiber alone can service rank 0's rmw — but that
  // fiber is stalled by the plan for the run's first 50ms (PAMI object
  // creation alone costs ~9ms of virtual time, so the window comfortably
  // covers the rmw's arrival). Liveness: advance_until on rank 0 rides
  // out the stall and the rmw completes promptly once it lifts, instead
  // of deadlocking or waiting on rank 1's main thread.
  WorldConfig cfg;
  cfg.machine.num_ranks = 2;
  cfg.machine.ranks_per_node = 1;
  cfg.armci.progress = ProgressMode::kAsyncThread;
  cfg.armci.contexts_per_rank = 2;
  const Time stall_end = from_ms(50);
  cfg.machine.fault.stalls.push_back(
      fault::StallSpec{/*rank=*/1, /*begin=*/0, stall_end});
  World world(cfg);
  Time reply_at = 0;
  world.spmd([&](Comm& comm) {
    auto& mem = comm.malloc_collective(8);
    if (comm.rank() == 1) {
      *reinterpret_cast<std::int64_t*>(mem.local(1)) = 40;
      comm.barrier();
      comm.compute(from_us(500));
    } else {
      comm.barrier();
      EXPECT_EQ(comm.fetch_add(mem.at(1), 2), 40);
      reply_at = comm.process().now();
    }
    comm.barrier();
  });
  EXPECT_GE(reply_at, stall_end) << "rmw serviced during the stall window";
  EXPECT_LT(reply_at, stall_end + from_ms(1))
      << "service did not resume promptly after the stall";
  EXPECT_GE(world.total_stats().progress_stalls, 1u);
  EXPECT_GT(world.total_stats().progress_stall_time, 0);
  ASSERT_NE(world.machine().injector(), nullptr);
  EXPECT_GE(world.machine().injector()->stats().progress_stalls, 1u);
}

TEST(FaultInjection, DisabledPlanBuildsNoInjector) {
  World world(ring4());
  world.spmd([](Comm& comm) { comm.barrier(); });
  EXPECT_EQ(world.machine().injector(), nullptr);
}

TEST(FaultInjection, ReportRendersFaultTable) {
  WorldConfig cfg = ring4();
  cfg.machine.fault = lossy_plan(/*seed=*/3);
  CommStats stats;
  run_workload(cfg, &stats);
  World world(cfg);
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(1024);
    std::vector<std::byte> buf(1024, std::byte{5});
    if (comm.rank() == 0) {
      for (int i = 0; i < 32; ++i) comm.put(buf.data(), mem.at(1), buf.size());
      comm.fence(1);
    }
    comm.barrier();
  });
  const std::string report = render_report(world);
  EXPECT_NE(report.find("fault injection & recovery"), std::string::npos);
  EXPECT_NE(report.find("retransmits"), std::string::npos);
}

TEST(FaultPlanConfig, ParsesAllKnobs) {
  Config cfg;
  cfg.set("fault.seed", "17");
  cfg.set("fault.drop_prob", "0.01");
  cfg.set("fault.corrupt_prob", "0.001");
  cfg.set("fault.link_fail", "3:2:+,5:0:*:10:20");
  cfg.set("fault.link_degrade", "1:1:-:0.25");
  cfg.set("fault.stall", "2:100:300");
  cfg.set("fault.node_fail", "3:500,6:2500");
  cfg.set("fault.ack_timeout_us", "5");
  cfg.set("fault.backoff_factor", "3");
  cfg.set("fault.max_backoff_us", "80");
  cfg.set("fault.retry_budget", "12");
  const fault::FaultPlan plan = fault::FaultPlan::from_config(cfg);
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.seed, 17u);
  EXPECT_DOUBLE_EQ(plan.drop_prob, 0.01);
  EXPECT_DOUBLE_EQ(plan.corrupt_prob, 0.001);
  ASSERT_EQ(plan.link_faults.size(), 3u);  // hard x2 + degraded
  EXPECT_EQ(plan.link_faults[0].node, 3);
  EXPECT_EQ(plan.link_faults[0].dim, 2);
  EXPECT_EQ(plan.link_faults[0].dir, +1);
  EXPECT_EQ(plan.link_faults[1].node, 5);
  EXPECT_EQ(plan.link_faults[1].dir, 0);
  EXPECT_EQ(plan.link_faults[1].begin, from_us(10));
  EXPECT_EQ(plan.link_faults[1].end, from_us(20));
  EXPECT_DOUBLE_EQ(plan.link_faults[2].capacity, 0.25);
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].rank, 2);
  EXPECT_EQ(plan.stalls[0].begin, from_us(100));
  EXPECT_EQ(plan.stalls[0].end, from_us(300));
  ASSERT_EQ(plan.node_fails.size(), 2u);
  EXPECT_EQ(plan.node_fails[0].node, 3);
  EXPECT_EQ(plan.node_fails[0].at, from_us(500));
  EXPECT_EQ(plan.node_fails[1].node, 6);
  EXPECT_EQ(plan.node_fails[1].at, from_us(2500));
  EXPECT_EQ(plan.ack_timeout, from_us(5));
  EXPECT_DOUBLE_EQ(plan.backoff_factor, 3.0);
  EXPECT_EQ(plan.max_backoff, from_us(80));
  EXPECT_EQ(plan.retry_budget, 12u);

  EXPECT_FALSE(fault::FaultPlan{}.enabled());
}

TEST(FaultPlanConfig, RejectsUnknownKeyWithSuggestion) {
  Config cfg;
  cfg.set("fault.drop_probb", "0.01");
  fault::FaultPlan::from_config(cfg);
  EXPECT_EQ(cfg.unknown_options(),
            std::vector<std::string>{"unknown option fault.drop_probb "
                                     "(did you mean fault.drop_prob?)"});
}

}  // namespace
}  // namespace pgasq::armci
