// End-to-end smoke tests over the full stack: sim engine -> torus ->
// network -> PAMI -> ARMCI -> GA. Fast configurations; deeper
// per-module coverage lives in the sibling test files.
#include <gtest/gtest.h>

#include "apps/counter_kernel.hpp"
#include "apps/scf.hpp"
#include "core/comm.hpp"
#include "ga/global_array.hpp"

namespace pgasq {
namespace {

using armci::Comm;
using armci::World;
using armci::WorldConfig;

WorldConfig small_world(int ranks, armci::ProgressMode mode,
                        int contexts = 1) {
  WorldConfig cfg;
  cfg.machine.num_ranks = ranks;
  cfg.machine.ranks_per_node = 1;
  cfg.armci.progress = mode;
  cfg.armci.contexts_per_rank = contexts;
  return cfg;
}

TEST(Smoke, PutGetRoundTrip) {
  World world(small_world(2, armci::ProgressMode::kDefault));
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(1024);
    if (comm.rank() == 0) {
      std::vector<double> src(16);
      for (int i = 0; i < 16; ++i) src[static_cast<std::size_t>(i)] = i * 1.5;
      comm.put(src.data(), mem.at(1), sizeof(double) * 16);
      comm.fence(1);
      std::vector<double> back(16, 0.0);
      comm.get(mem.at(1), back.data(), sizeof(double) * 16);
      for (int i = 0; i < 16; ++i) {
        EXPECT_DOUBLE_EQ(back[static_cast<std::size_t>(i)], i * 1.5);
      }
    }
    comm.barrier();
  });
  EXPECT_GT(world.elapsed(), 0);
}

TEST(Smoke, FetchAddSerializes) {
  World world(small_world(4, armci::ProgressMode::kDefault));
  world.spmd([](Comm& comm) {
    ga::SharedCounter counter(comm);
    comm.barrier();
    std::int64_t got = 0;
    for (int i = 0; i < 5; ++i) got = counter.next();
    (void)got;
    comm.barrier();
    EXPECT_EQ(counter.read(), 4 * 5);
    comm.barrier();
  });
}

TEST(Smoke, AsyncThreadWorldRuns) {
  WorldConfig cfg = small_world(4, armci::ProgressMode::kAsyncThread, 2);
  World world(cfg);
  world.spmd([](Comm& comm) {
    ga::SharedCounter counter(comm);
    comm.barrier();
    for (int i = 0; i < 3; ++i) counter.next();
    comm.barrier();
    EXPECT_EQ(counter.read(), 4 * 3);
    comm.barrier();
  });
}

TEST(Smoke, GlobalArrayPatchRoundTrip) {
  World world(small_world(4, armci::ProgressMode::kDefault));
  world.spmd([](Comm& comm) {
    ga::GlobalArray a(comm, 32, 32);
    a.fill_local([](std::int64_t i, std::int64_t j) {
      return static_cast<double>(i * 100 + j);
    });
    a.sync();
    // Every rank reads a patch spanning block boundaries.
    std::vector<double> buf(10 * 10, -1.0);
    a.get(11, 21, 11, 21, buf.data(), 10);
    for (int r = 0; r < 10; ++r) {
      for (int c = 0; c < 10; ++c) {
        EXPECT_DOUBLE_EQ(buf[static_cast<std::size_t>(r * 10 + c)],
                         (11 + r) * 100 + (11 + c));
      }
    }
    comm.barrier();
  });
}

TEST(Smoke, CounterKernelRuns) {
  apps::CounterKernelConfig kcfg;
  kcfg.ops_per_rank = 4;
  World world(small_world(4, armci::ProgressMode::kDefault));
  const auto result = apps::run_counter_kernel(world, kcfg);
  EXPECT_EQ(result.total_ops, 3u * 4u);
  EXPECT_EQ(result.final_value, 3 * 4);
  EXPECT_GT(result.avg_latency_us, 0.0);
}

TEST(Smoke, TinyScfChecksumMatchesAcrossModes) {
  apps::ScfConfig scf;
  scf.nbf = 24;
  scf.block = 4;
  scf.iterations = 1;
  scf.mean_task_compute = from_us(50);

  World d_world(small_world(4, armci::ProgressMode::kDefault));
  const auto d = apps::run_scf(d_world, scf);

  World at_world(small_world(4, armci::ProgressMode::kAsyncThread, 2));
  const auto at = apps::run_scf(at_world, scf);

  EXPECT_EQ(d.tasks_executed, at.tasks_executed);
  EXPECT_NEAR(d.fock_checksum, at.fock_checksum, 1e-9);
  EXPECT_GT(d.fock_checksum, 0.0);

  // The overlapped and distributed-guess drivers run the same Fock
  // build as the blocking one. With the blocking energy reduction
  // pinned to recursive doubling, both match it bit for bit.
  scf.iterations = 2;
  auto run_pinned = [](const apps::ScfConfig& config) {
    WorldConfig cfg = small_world(4, armci::ProgressMode::kDefault);
    cfg.armci.coll.emplace_back("algo.allreduce", "recdbl");
    World world(cfg);
    return apps::run_scf(world, config);
  };
  const auto blocking = run_pinned(scf);
  apps::ScfConfig overlap_cfg = scf;
  overlap_cfg.overlap = true;
  const auto overlapped = run_pinned(overlap_cfg);
  apps::ScfConfig guess_cfg = scf;
  guess_cfg.distributed_guess = true;
  const auto distributed = run_pinned(guess_cfg);

  for (const auto* r : {&overlapped, &distributed}) {
    EXPECT_EQ(r->fock_checksum, blocking.fock_checksum);
    EXPECT_EQ(r->final_energy, blocking.final_energy);
    EXPECT_EQ(r->tasks_executed, blocking.tasks_executed);
  }
  EXPECT_GT(overlapped.prefetch_hits + overlapped.prefetch_misses, 0u);
  EXPECT_EQ(blocking.prefetch_hits + blocking.prefetch_misses, 0u);
}

}  // namespace
}  // namespace pgasq
