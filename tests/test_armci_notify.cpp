// Pairwise notify/wait synchronization (armci_notify semantics): the
// notification is ordered after the producer's writes, so the consumer
// reads produced data without any other fence.
#include <gtest/gtest.h>

#include "core/comm.hpp"

namespace pgasq::armci {
namespace {

WorldConfig make_cfg(int ranks, ProgressMode mode = ProgressMode::kDefault) {
  WorldConfig cfg;
  cfg.machine.num_ranks = ranks;
  cfg.armci.progress = mode;
  if (mode == ProgressMode::kAsyncThread) cfg.armci.contexts_per_rank = 2;
  return cfg;
}

class NotifyModes : public ::testing::TestWithParam<ProgressMode> {};

TEST_P(NotifyModes, ProducerConsumerHandshake) {
  World world(make_cfg(2, GetParam()));
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(sizeof(double) * 16);
    if (comm.rank() == 0) {
      std::vector<double> data(16);
      for (int i = 0; i < 16; ++i) data[static_cast<std::size_t>(i)] = 7.0 + i;
      comm.put(data.data(), mem.at(1), sizeof(double) * 16);
      comm.notify(1);  // fences the put, then signals
    } else {
      comm.wait_notify(0);
      // No fence needed on the consumer side: the data must be there.
      const auto* d = reinterpret_cast<const double*>(mem.local(1));
      for (int i = 0; i < 16; ++i) {
        EXPECT_DOUBLE_EQ(d[i], 7.0 + i);
      }
      EXPECT_EQ(comm.notifications_from(0), 1u);
    }
    comm.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, NotifyModes,
                         ::testing::Values(ProgressMode::kDefault,
                                           ProgressMode::kAsyncThread));

TEST(Notify, CountsAccumulateAcrossRounds) {
  World world(make_cfg(2));
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(sizeof(std::int64_t));
    if (comm.rank() == 0) {
      for (int round = 1; round <= 3; ++round) {
        std::int64_t v = round;
        comm.put(&v, mem.at(1), sizeof v);
        comm.notify(1);
      }
    } else {
      comm.wait_notify(0, 2);  // skip ahead: wait for the second signal
      EXPECT_GE(*reinterpret_cast<std::int64_t*>(mem.local(1)), 2);
      comm.wait_notify(0, 3);
      EXPECT_EQ(*reinterpret_cast<std::int64_t*>(mem.local(1)), 3);
    }
    comm.barrier();
  });
}

TEST(Notify, SilentProducerReadsZeroAndBadProducerThrows) {
  World world(make_cfg(3));
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(sizeof(std::int64_t));
    if (comm.rank() == 0) {
      std::int64_t v = 1;
      comm.put(&v, mem.at(2), sizeof v);
      comm.notify(2);
    } else if (comm.rank() == 2) {
      comm.wait_notify(0);
      EXPECT_EQ(comm.notifications_from(0), 1u);
      EXPECT_EQ(comm.notifications_from(1), 0u);  // rank 1 never notifies
      EXPECT_EQ(comm.notifications_from(2), 0u);
      comm.wait_notify(1, 0);  // nothing owed: returns at once
    }
    for (const RankId bad : {-1, 3}) {
      EXPECT_THROW(comm.notifications_from(bad), Error) << bad;
      EXPECT_THROW(comm.wait_notify(bad), Error) << bad;
    }
    comm.barrier();
  });
}

TEST(Notify, RingPipeline) {
  // Each rank produces for its right neighbour in sequence: a ring of
  // pairwise synchronizations with no global barrier inside the loop.
  World world(make_cfg(5));
  world.spmd([](Comm& comm) {
    const int p = comm.nprocs();
    const int me = comm.rank();
    const int right = (me + 1) % p;
    const int left = (me + p - 1) % p;
    auto& mem = comm.malloc_collective(sizeof(std::int64_t));
    if (me == 0) {
      std::int64_t token = 100;
      comm.put(&token, mem.at(right), sizeof token);
      comm.notify(right);
      comm.wait_notify(left);  // token came all the way around
      EXPECT_EQ(*reinterpret_cast<std::int64_t*>(mem.local(me)), 100 + p - 1);
    } else {
      comm.wait_notify(left);
      std::int64_t token = *reinterpret_cast<std::int64_t*>(mem.local(me)) + 1;
      comm.put(&token, mem.at(right), sizeof token);
      comm.notify(right);
    }
    comm.barrier();
  });
}

}  // namespace
}  // namespace pgasq::armci
