// Location consistency & conflict tracking (S III-E): the tracker unit
// behaviour, forced-fence semantics, and the naive-vs-per-region false
// positive difference the paper's dgemm example motivates.
#include <gtest/gtest.h>

#include <string>

#include "core/comm.hpp"
#include "core/consistency.hpp"

namespace pgasq::armci {
namespace {

TEST(ConflictTracker, PerTargetCountsAndAcks) {
  ConflictTracker t(ConsistencyMode::kPerTarget, 4);
  EXPECT_FALSE(t.read_requires_fence(1, 7));
  const auto k1 = t.on_write_initiated(1, 7);
  const auto k2 = t.on_write_initiated(1, 9);
  EXPECT_EQ(t.outstanding_to(1), 2u);
  EXPECT_EQ(t.outstanding_total(), 2u);
  // Naive mode: ANY region on target 1 conflicts.
  EXPECT_TRUE(t.read_requires_fence(1, 7));
  EXPECT_TRUE(t.read_requires_fence(1, 12345));
  EXPECT_FALSE(t.read_requires_fence(2, 7));
  t.on_write_acked(k1);
  EXPECT_TRUE(t.read_requires_fence(1, 7));
  t.on_write_acked(k2);
  EXPECT_FALSE(t.read_requires_fence(1, 7));
  EXPECT_EQ(t.outstanding_total(), 0u);
}

TEST(ConflictTracker, PerRegionDiscriminates) {
  ConflictTracker t(ConsistencyMode::kPerRegion, 4);
  const auto k = t.on_write_initiated(1, 7);
  EXPECT_TRUE(t.read_requires_fence(1, 7));
  EXPECT_FALSE(t.read_requires_fence(1, 8)) << "different region must not conflict";
  EXPECT_FALSE(t.read_requires_fence(2, 7));
  EXPECT_EQ(t.outstanding_to_region(1, 7), 1u);
  EXPECT_EQ(t.outstanding_to_region(1, 8), 0u);
  EXPECT_EQ(t.status(1, 7) & StatusBits::kWrite, StatusBits::kWrite);
  EXPECT_EQ(t.status(1, 8), 0);
  t.on_write_acked(k);
  EXPECT_FALSE(t.read_requires_fence(1, 7));
}

TEST(ConflictTracker, UnknownRegionZeroAliasesEverything) {
  ConflictTracker t(ConsistencyMode::kPerRegion, 2);
  const auto k = t.on_write_initiated(1, 0);  // unknown-region write
  EXPECT_TRUE(t.read_requires_fence(1, 7)) << "unknown write aliases all";
  EXPECT_TRUE(t.read_requires_fence(1, 0));
  t.on_write_acked(k);
  const auto k2 = t.on_write_initiated(1, 7);
  EXPECT_TRUE(t.read_requires_fence(1, 0)) << "unknown read aliases all";
  t.on_write_acked(k2);
}

TEST(ConflictTracker, AckUnderflowRejected) {
  ConflictTracker t(ConsistencyMode::kPerRegion, 2);
  const auto k = t.on_write_initiated(1, 3);
  t.on_write_acked(k);
  EXPECT_THROW(t.on_write_acked(k), Error);
}

// A clique far larger than the peers touched: untouched targets read
// as idle, acked targets drop back to idle, and range checks stay loud.
constexpr int kLargeClique = 1 << 20;

class LargeClique : public ::testing::TestWithParam<ConsistencyMode> {};

TEST_P(LargeClique, UntouchedTargetsReadIdle) {
  ConflictTracker t(GetParam(), kLargeClique);
  const auto k1 = t.on_write_initiated(3, 7);
  const auto k2 = t.on_write_initiated(70000, 7);
  const auto k3 = t.on_write_initiated(kLargeClique - 1, 9);
  EXPECT_EQ(t.outstanding_total(), 3u);
  for (const RankId idle : {0, 4, 69999, kLargeClique - 2}) {
    EXPECT_EQ(t.outstanding_to(idle), 0u) << idle;
    EXPECT_EQ(t.outstanding_to_region(idle, 7), 0u) << idle;
    EXPECT_FALSE(t.read_requires_fence(idle, 7)) << idle;
    EXPECT_FALSE(t.read_requires_fence(idle, 0)) << idle;
    EXPECT_EQ(t.status(idle, 7), 0) << idle;
  }
  EXPECT_EQ(t.outstanding_to(70000), 1u);
  EXPECT_TRUE(t.read_requires_fence(70000, 7));
  t.on_write_acked(k2);
  EXPECT_EQ(t.outstanding_to(70000), 0u);
  EXPECT_FALSE(t.read_requires_fence(70000, 7));
  t.on_write_acked(k1);
  t.on_write_acked(k3);
  EXPECT_EQ(t.outstanding_to(3), 0u);
  EXPECT_EQ(t.outstanding_to(kLargeClique - 1), 0u);
  EXPECT_EQ(t.outstanding_total(), 0u);
}

TEST_P(LargeClique, ResetForgetsEverythingAndIgnoresStaleAcks) {
  ConflictTracker t(GetParam(), kLargeClique);
  const auto stale = t.on_write_initiated(5, 7);
  t.on_write_initiated(600000, 0);
  t.on_write_initiated(600000, 8);
  t.reset_outstanding();
  EXPECT_EQ(t.outstanding_total(), 0u);
  EXPECT_EQ(t.outstanding_to(5), 0u);
  EXPECT_EQ(t.outstanding_to(600000), 0u);
  EXPECT_FALSE(t.read_requires_fence(600000, 8));
  // A write initiated after the reset is not debited by a pre-reset ack.
  const auto fresh = t.on_write_initiated(5, 7);
  t.on_write_acked(stale);
  EXPECT_EQ(t.outstanding_to(5), 1u);
  EXPECT_EQ(t.outstanding_total(), 1u);
  t.on_write_acked(fresh);
  EXPECT_EQ(t.outstanding_total(), 0u);
}

TEST_P(LargeClique, AckForNeverWrittenTargetUnderflows) {
  ConflictTracker t(GetParam(), kLargeClique);
  t.on_write_initiated(1, 7);
  try {
    t.on_write_acked(ConflictTracker::Key{424242, 7});
    FAIL() << "ack for a target with no write in flight was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("write ack underflow"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(t.outstanding_to(1), 1u);
}

TEST_P(LargeClique, TargetOutsideCliqueThrows) {
  ConflictTracker t(GetParam(), kLargeClique);
  for (const RankId bad : {-1, kLargeClique}) {
    EXPECT_THROW(t.on_write_initiated(bad, 7), Error) << bad;
    EXPECT_THROW(t.on_write_acked(ConflictTracker::Key{bad, 7}), Error) << bad;
    EXPECT_THROW(t.outstanding_to(bad), Error) << bad;
    EXPECT_THROW(t.outstanding_to_region(bad, 7), Error) << bad;
    EXPECT_THROW(t.read_requires_fence(bad, 7), Error) << bad;
  }
  EXPECT_EQ(t.outstanding_total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, LargeClique,
                         ::testing::Values(ConsistencyMode::kPerTarget,
                                           ConsistencyMode::kPerRegion));

namespace {
WorldConfig cfg_with(ConsistencyMode mode) {
  WorldConfig cfg;
  cfg.machine.num_ranks = 2;
  cfg.armci.consistency = mode;
  return cfg;
}
}  // namespace

TEST(Consistency, DgemmPatternNaiveForcesFencesPerRegionDoesNot) {
  // Accumulates to structure C interleaved with gets from structure A
  // on the SAME target. Naive: every get fences. Per-region: none.
  for (const auto mode :
       {ConsistencyMode::kPerTarget, ConsistencyMode::kPerRegion}) {
    World world(cfg_with(mode));
    std::uint64_t forced = 0;
    world.spmd([&](Comm& comm) {
      auto& a = comm.malloc_collective(sizeof(double) * 64);
      auto& c = comm.malloc_collective(sizeof(double) * 64);
      std::vector<double> buf(64, 1.0);
      if (comm.rank() == 0) {
        for (int i = 0; i < 10; ++i) {
          comm.acc(1.0, buf.data(), c.at(1), 64);  // write C
          comm.get(a.at(1), buf.data(), sizeof(double) * 64);  // read A
        }
        comm.fence_all();
        forced = comm.stats().forced_fences;
      }
      comm.barrier();
    });
    if (mode == ConsistencyMode::kPerTarget) {
      EXPECT_GE(forced, 9u) << "naive tracking must fence A-gets behind C-accs";
    } else {
      EXPECT_EQ(forced, 0u) << "per-region tracking must not false-positive";
    }
  }
}

TEST(Consistency, GetAfterAccSameRegionSeesValueBothModes) {
  for (const auto mode :
       {ConsistencyMode::kPerTarget, ConsistencyMode::kPerRegion}) {
    World world(cfg_with(mode));
    world.spmd([&](Comm& comm) {
      auto& mem = comm.malloc_collective(sizeof(double) * 8);
      if (comm.rank() == 0) {
        std::vector<double> ones(8, 1.0);
        // Non-blocking: initiation never advances the progress engine,
        // so all five writes are still unacknowledged at the get.
        Handle h;
        for (int i = 0; i < 5; ++i) comm.nb_acc(1.0, ones.data(), mem.at(1), 8, h);
        double back[8] = {};
        comm.get(mem.at(1), back, sizeof back);
        EXPECT_DOUBLE_EQ(back[3], 5.0) << "get must observe all prior accs";
        EXPECT_GE(comm.stats().forced_fences, 1u);
        comm.wait(h);
      }
      comm.barrier();
    });
  }
}

TEST(Consistency, FenceWaitsForRemoteCompletion) {
  World world(cfg_with(ConsistencyMode::kPerRegion));
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(1 << 20);
    auto* buf = comm.malloc_local(1 << 20);
    if (comm.rank() == 0) {
      Handle h;
      comm.nb_put(buf, mem.at(1), 1 << 20, h);
      EXPECT_GT(comm.conflict_tracker().outstanding_to(1), 0u);
      comm.fence(1);
      EXPECT_EQ(comm.conflict_tracker().outstanding_to(1), 0u);
      comm.wait(h);
    }
    comm.barrier();
  });
}

TEST(Consistency, FenceAllCoversManyTargets) {
  WorldConfig cfg;
  cfg.machine.num_ranks = 8;
  World world(cfg);
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(4096);
    std::vector<double> v(16, 2.0);
    if (comm.rank() == 0) {
      Handle h;
      for (int t = 1; t < comm.nprocs(); ++t) {
        comm.nb_acc(1.0, v.data(), mem.at(t), 16, h);
      }
      // Acks for the earliest accs may already have landed (they are
      // wire-level events); the most recent writes must still be open.
      EXPECT_GT(comm.conflict_tracker().outstanding_total(), 0u);
      comm.fence_all();
      EXPECT_EQ(comm.conflict_tracker().outstanding_total(), 0u);
    }
    comm.barrier();
  });
}

TEST(Consistency, RmwOnCounterRegionDoesNotFenceOtherAccs) {
  // Per-region: a fetch-and-add on the counter structure must not wait
  // for outstanding Fock-matrix accumulates (the SCF-critical case).
  World world(cfg_with(ConsistencyMode::kPerRegion));
  world.spmd([](Comm& comm) {
    auto& fock = comm.malloc_collective(sizeof(double) * 1024);
    auto& counter = comm.malloc_collective(8);
    if (comm.rank() == 0) {
      std::vector<double> v(1024, 1.0);
      comm.acc(1.0, v.data(), fock.at(1), 1024);
      const auto fences_before = comm.stats().forced_fences;
      comm.fetch_add(counter.at(1), 1);
      EXPECT_EQ(comm.stats().forced_fences, fences_before)
          << "counter rmw must not fence Fock accs";
      comm.fence_all();
    }
    comm.barrier();
  });
}

}  // namespace
}  // namespace pgasq::armci
