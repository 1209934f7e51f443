// The async completion runtime (src/async) and the non-blocking
// collectives (coll::CollEngine): then-chaining determinism
// across seeds, when_all/when_any aggregation (futures and handle
// sets), non-blocking collectives matching their blocking counterparts
// bitwise at awkward (prime) rank counts, fault transparency under
// loss + corruption, revocable-get cancellation, the
// abandoned-continuation abort, and async.* option validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "async/async.hpp"
#include "coll/coll.hpp"
#include "core/world.hpp"
#include "fault/fault.hpp"
#include "util/error.hpp"

namespace pgasq {
namespace {

armci::WorldConfig make_cfg(int ranks, std::uint64_t seed = 42) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = ranks;
  cfg.machine.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// then() chaining: continuations run FIFO from the progress engine,
// never inline at fulfillment, and the observed order is a pure
// function of the program — identical across machine seeds.

/// Runs a chain mixing value-returning, void, and future-returning
/// continuations over real communication; returns rank 0's event log.
std::string then_chain_log(std::uint64_t seed) {
  armci::World world(make_cfg(4, seed));
  std::string log;
  world.spmd([&log](armci::Comm& comm) {
    async::Runtime& rt = async::Runtime::of(comm);
    auto& mem = comm.malloc_collective(64);
    auto* slot = reinterpret_cast<double*>(mem.local(comm.rank()));
    slot[0] = 100.0 + comm.rank();
    comm.barrier();

    const int peer = (comm.rank() + 1) % comm.nprocs();
    double got = 0.0;
    std::string local;
    // Value chain: get -> tag -> transform -> flattened inner get.
    fut::Future<double> chain =
        rt.get(mem.at(peer), &got, sizeof(double))
            .then([&](const fut::Unit&) {
              local += "A";
              return got;
            })
            .then([&](const double& v) {
              local += "B";
              return v * 2.0;
            })
            .then([&](const double& v) {
              local += "C";
              // Future-returning continuation: then() must flatten.
              return rt.get(mem.at(peer), &got, sizeof(double))
                  .then([&local, v](const fut::Unit&) {
                    local += "D";
                    return v + 1.0;
                  });
            });
    // A second independent chain attached later must drain after the
    // continuations already queued at each step (FIFO).
    fut::Future<fut::Unit> side =
        rt.get(mem.at(peer), &got, sizeof(double)).then([&](const fut::Unit&) {
          local += "s";
        });
    rt.wait(chain);
    rt.wait(side);
    EXPECT_DOUBLE_EQ(chain.value(), (100.0 + peer) * 2.0 + 1.0);
    if (comm.rank() == 0) log = local;
    comm.barrier();
  });
  return log;
}

TEST(Fut, ThenChainingIsDeterministicAcrossSeeds) {
  const std::string a = then_chain_log(42);
  const std::string b = then_chain_log(1337);
  EXPECT_EQ(a, b) << "continuation order depends on the machine seed";
  // Every stage ran exactly once, and stage order within a chain is
  // program order.
  for (char c : {'A', 'B', 'C', 'D', 's'}) {
    EXPECT_EQ(std::count(a.begin(), a.end(), c), 1) << "stage " << c;
  }
  EXPECT_LT(a.find('A'), a.find('B'));
  EXPECT_LT(a.find('B'), a.find('C'));
  EXPECT_LT(a.find('C'), a.find('D'));
}

TEST(Fut, ContinuationsNeverRunInline) {
  armci::World world(make_cfg(2));
  world.spmd([](armci::Comm& comm) {
    async::Runtime& rt = async::Runtime::of(comm);
    bool ran = false;
    // Attaching to an already-ready future still routes the
    // continuation through the queue — nothing runs inline here.
    fut::Future<fut::Unit> f =
        fut::make_ready(rt, fut::Unit{}).then([&ran](const fut::Unit&) {
          ran = true;
        });
    EXPECT_FALSE(ran) << "continuation ran inline at attach";
    rt.wait(f);
    EXPECT_TRUE(ran);
    comm.barrier();
  });
}

// ---------------------------------------------------------------------------
// Aggregation: when_all / when_any over futures, the same through
// handle sets, and the n-ary Comm wait primitives underneath.

TEST(Fut, WhenAllCollectsEveryValueInOrder) {
  armci::World world(make_cfg(3));
  world.spmd([](armci::Comm& comm) {
    async::Runtime& rt = async::Runtime::of(comm);
    std::vector<fut::Promise<int>> ps;
    std::vector<fut::Future<int>> fs;
    for (int i = 0; i < 4; ++i) {
      ps.emplace_back(rt);
      fs.push_back(ps.back().future());
    }
    fut::Future<std::vector<int>> all = fut::when_all(rt, std::move(fs));
    // Fulfill out of order: values must still land at their indices.
    ps[2].fulfill(20);
    ps[0].fulfill(0);
    ps[3].fulfill(30);
    ps[1].fulfill(10);
    rt.wait(all);
    EXPECT_EQ(all.value(), (std::vector<int>{0, 10, 20, 30}));
    comm.barrier();
  });
}

TEST(Fut, WhenAnyYieldsTheFirstFulfilledIndex) {
  armci::World world(make_cfg(2));
  world.spmd([](armci::Comm& comm) {
    async::Runtime& rt = async::Runtime::of(comm);
    fut::Promise<int> a(rt), b(rt), c(rt);
    fut::Future<std::size_t> any =
        fut::when_any(rt, std::vector<fut::Future<int>>{a.future(), b.future(),
                                                        c.future()});
    b.fulfill(7);
    rt.wait(any);
    EXPECT_EQ(any.value(), 1u);
    // Late fulfillments are fine; the winner does not change.
    a.fulfill(1);
    c.fulfill(3);
    EXPECT_EQ(any.value(), 1u);
    comm.barrier();
  });
}

TEST(Fut, HandleAggregationAndNaryWaits) {
  armci::World world(make_cfg(4));
  world.spmd([](armci::Comm& comm) {
    async::Runtime& rt = async::Runtime::of(comm);
    constexpr std::size_t kWords = 32;
    auto& mem = comm.malloc_collective(kWords * sizeof(double));
    auto* slot = reinterpret_cast<double*>(mem.local(comm.rank()));
    for (std::size_t i = 0; i < kWords; ++i) slot[i] = comm.rank() * 1000.0 + i;
    comm.barrier();

    // when_all through handles: one get per peer.
    std::vector<std::vector<double>> in(
        static_cast<std::size_t>(comm.nprocs()));
    std::vector<armci::Handle> hs(static_cast<std::size_t>(comm.nprocs()));
    std::vector<armci::Handle*> hps;
    for (int r = 0; r < comm.nprocs(); ++r) {
      auto& buf = in[static_cast<std::size_t>(r)];
      buf.assign(kWords, 0.0);
      comm.nb_get(mem.at(r), buf.data(), kWords * sizeof(double),
                  hs[static_cast<std::size_t>(r)]);
      hps.push_back(&hs[static_cast<std::size_t>(r)]);
    }
    rt.wait(rt.when_all(hps));
    EXPECT_TRUE(comm.test_all(hps));
    for (int r = 0; r < comm.nprocs(); ++r) {
      for (std::size_t i = 0; i < kWords; ++i) {
        ASSERT_DOUBLE_EQ(in[static_cast<std::size_t>(r)][i], r * 1000.0 + i);
      }
    }
    comm.barrier();

    // when_any + wait_some: some subset completes first; draining
    // wait_some until every handle is done must visit each exactly
    // once.
    std::vector<armci::Handle> h2(3);
    std::vector<double> b2(3 * kWords, 0.0);
    std::vector<armci::Handle*> hp2;
    for (int i = 0; i < 3; ++i) {
      const int peer = (comm.rank() + 1 + i) % comm.nprocs();
      comm.nb_get(mem.at(peer), &b2[static_cast<std::size_t>(i) * kWords],
                  kWords * sizeof(double), h2[static_cast<std::size_t>(i)]);
      hp2.push_back(&h2[static_cast<std::size_t>(i)]);
    }
    fut::Future<std::size_t> any = rt.when_any(hp2);
    rt.wait(any);
    EXPECT_LT(any.value(), 3u);
    std::vector<int> seen(3, 0);
    std::size_t done = 0;
    while (done < 3) {
      for (std::size_t idx : comm.wait_some(hp2)) {
        ASSERT_LT(idx, 3u);
        ++seen[idx];
        ++done;
      }
    }
    EXPECT_EQ(seen, (std::vector<int>{1, 1, 1}));
    EXPECT_TRUE(comm.test_all(hp2));
    comm.barrier();
  });
}

// ---------------------------------------------------------------------------
// Non-blocking collectives. The iallreduce pins its schedule to
// recursive doubling, so against a blocking engine forced to recdbl
// the result must be BITWISE identical — same association order, same
// pre/post-fold at non-power-of-two counts. Prime rank counts exercise
// the whole remainder machinery.

std::vector<std::uint64_t> allreduce_bits_nbc(int p, std::uint64_t seed,
                                              bool nonblocking,
                                              fault::FaultPlan plan = {}) {
  armci::WorldConfig cfg = make_cfg(p, seed);
  cfg.armci.coll.emplace_back("algo.allreduce", "recdbl");
  cfg.machine.fault = plan;
  armci::World world(cfg);
  std::vector<std::uint64_t> bits(static_cast<std::size_t>(p), 0);
  world.spmd([&](armci::Comm& comm) {
    // Association-sensitive values: the last ulps depend on fold order.
    double x = 0.1 * (comm.rank() + 1) + 1e-13 / (comm.rank() + 1);
    if (nonblocking) {
      async::Runtime& rt = async::Runtime::of(comm);
      fut::Future<fut::Unit> f =
          coll::CollEngine::of(comm).iallreduce_sum(&x, 1);
      rt.wait(f);
    } else {
      coll::CollEngine::of(comm).allreduce_sum(&x, 1);
    }
    std::memcpy(&bits[static_cast<std::size_t>(comm.rank())], &x, sizeof(x));
    comm.barrier();
  });
  return bits;
}

TEST(Nbc, IallreduceMatchesBlockingBitwiseAtPrimeRanks) {
  for (int p : {7, 13}) {
    const auto blocking = allreduce_bits_nbc(p, 42, false);
    const auto nbc = allreduce_bits_nbc(p, 42, true);
    EXPECT_EQ(blocking, nbc) << p << " ranks: iallreduce diverged bitwise";
    // And seed-independence of the nonblocking path itself.
    EXPECT_EQ(nbc, allreduce_bits_nbc(p, 1337, true))
        << p << " ranks: iallreduce result depends on the machine seed";
  }
}

TEST(Nbc, IbcastDeliversPayloadAtPrimeRanks) {
  for (int p : {7, 13}) {
    armci::World world(make_cfg(p));
    world.spmd([](armci::Comm& comm) {
      async::Runtime& rt = async::Runtime::of(comm);
      const int root = comm.nprocs() > 2 ? 2 : 0;
      std::vector<std::byte> buf(777, std::byte{0});
      if (comm.rank() == root) {
        for (std::size_t i = 0; i < buf.size(); ++i) {
          buf[i] = static_cast<std::byte>(i * 7 + 3);
        }
      }
      fut::Future<fut::Unit> f =
          coll::CollEngine::of(comm).ibcast(buf.data(), buf.size(), root);
      rt.wait(f);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        ASSERT_EQ(buf[i], static_cast<std::byte>(i * 7 + 3)) << "byte " << i;
      }
      comm.barrier();
    });
  }
}

TEST(Nbc, IbarrierCompletes) {
  armci::World world(make_cfg(4));
  world.spmd([](armci::Comm& comm) {
    async::Runtime& rt = async::Runtime::of(comm);
    coll::CollEngine& nbc = coll::CollEngine::of(comm);
    fut::Future<fut::Unit> f = nbc.ibarrier();
    rt.wait(f);
    EXPECT_TRUE(f.ready());
    EXPECT_EQ(nbc.open_ops(), 0u);
  });
}

TEST(Nbc, OpsOverlapWithOneSidedTraffic) {
  armci::World world(make_cfg(7));
  world.spmd([](armci::Comm& comm) {
    async::Runtime& rt = async::Runtime::of(comm);
    coll::CollEngine& nbc = coll::CollEngine::of(comm);
    auto& mem = comm.malloc_collective(256);
    auto* slot = reinterpret_cast<double*>(mem.local(comm.rank()));
    slot[0] = 1.0 + comm.rank();
    comm.barrier();

    // Two collectives in flight at once, with puts/gets interleaved
    // between initiation and completion.
    double x = 0.5 * (comm.rank() + 1);
    fut::Future<fut::Unit> red = nbc.iallreduce_sum(&x, 1);
    fut::Future<fut::Unit> bar = nbc.ibarrier();
    EXPECT_EQ(nbc.open_ops(), 2u);

    const int peer = (comm.rank() + 3) % comm.nprocs();
    double got = 0.0;
    comm.get(mem.at(peer), &got, sizeof(double));
    EXPECT_DOUBLE_EQ(got, 1.0 + peer);

    rt.wait(red);
    rt.wait(bar);
    const int p = comm.nprocs();
    EXPECT_NEAR(x, 0.5 * p * (p + 1) / 2.0, 1e-9);
    EXPECT_EQ(nbc.open_ops(), 0u);
    comm.barrier();
  });
}

// ---------------------------------------------------------------------------
// Fault transparency: packet loss triggers the retransmit protocol and
// silent corruption trips the integrity layer's slot checksums — the
// non-blocking schedule must re-fetch and deliver byte-identical
// results; only timings may move.

TEST(NbcFaults, LossAndCorruptionAreTransparent) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.drop_prob = 0.01;
  plan.corrupt_prob = 0.005;
  ASSERT_TRUE(plan.enabled());
  for (int p : {7, 8}) {
    const auto clean = allreduce_bits_nbc(p, 42, true);
    const auto faulty = allreduce_bits_nbc(p, 42, true, plan);
    EXPECT_EQ(clean, faulty) << p << " ranks: faults changed the payload";
  }
}

// ---------------------------------------------------------------------------
// Blocking and non-blocking collectives share one slot-arena transport
// with two arenas. Interleaved under loss and landed corruption (slot
// checksums re-fetch from the sender's retained stage), both arenas
// wrap many times and every result stays bitwise exact.

TEST(NbcArena, InterleavedOpsWrapBothArenasUnderFaults) {
  constexpr int p = 7;
  constexpr std::size_t n = 256;
  constexpr int kRounds = 24;
  armci::WorldConfig cfg = make_cfg(p);
  cfg.armci.coll.emplace_back("algo.allreduce", "recdbl");
  cfg.machine.fault.seed = 9;
  cfg.machine.fault.drop_prob = 0.01;
  cfg.machine.fault.corrupt_prob = 0.02;
  cfg.machine.integrity.configured = true;
  cfg.machine.integrity.verify = false;  // let flips land in the slots
  armci::World world(cfg);
  std::uint64_t wraps[2] = {};
  world.spmd([&](armci::Comm& comm) {
    async::Runtime& rt = async::Runtime::of(comm);
    coll::CollEngine& engine = coll::CollEngine::of(comm);
    const int me = comm.rank();
    // Integer-valued doubles: every sum is exact, so each result has
    // one right bit pattern whatever the fold order.
    const auto fill = [me](std::vector<double>& x, int round, int salt) {
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = 3.0 * me + static_cast<double>(i) + 100.0 * round + salt;
      }
    };
    const auto expect_sum = [](const std::vector<double>& x, int round, int salt,
                               const char* what) {
      for (std::size_t i = 0; i < n; ++i) {
        const double want = 3.0 * p * (p - 1) / 2 +
                            p * (static_cast<double>(i) + 100.0 * round + salt);
        ASSERT_EQ(x[i], want) << what << " element " << i << " round " << round;
      }
    };
    std::vector<double> a(n), b(n), c(n);
    for (int round = 0; round < kRounds; ++round) {
      fill(a, round, 1);
      fill(b, round, 2);
      fill(c, round, 3);
      // An i-op open across a blocking op and across the next i-op's
      // initiation (which may wrap the non-blocking arena).
      fut::Future<fut::Unit> fa = engine.iallreduce_sum(a.data(), n);
      engine.allreduce_sum(b.data(), n);
      fut::Future<fut::Unit> fc = engine.iallreduce_sum(c.data(), n);
      rt.wait(fa);
      rt.wait(fc);
      expect_sum(a, round, 1, "iallreduce a");
      expect_sum(b, round, 2, "allreduce b");
      expect_sum(c, round, 3, "iallreduce c");
    }
    if (me == 0) {
      wraps[0] = engine.blocking_wraps();
      wraps[1] = engine.nbc_wraps();
    }
    comm.barrier();
  });
  EXPECT_GT(wraps[0], 2u) << "the blocking arena never wrapped";
  EXPECT_GT(wraps[1], 2u) << "the non-blocking arena never wrapped";
  const fault::IntegrityStats& is = world.machine().integrity()->stats();
  EXPECT_GT(is.coll_slot_refetches, 0u) << "no slot payload was re-fetched";
}

// Ranks that start different op sequences must abort with the
// divergence diagnostic instead of mixing payloads or hanging.

void expect_divergence(armci::WorldConfig cfg,
                       const std::function<void(armci::Comm&)>& body) {
  try {
    armci::World world(cfg);
    world.spmd(body);
    FAIL() << "expected the divergence abort";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("(divergence)"), std::string::npos)
        << e.what();
  }
}

TEST(NbcArena, OppositeInitiationOrdersAbort) {
  expect_divergence(make_cfg(3), [](armci::Comm& comm) {
    async::Runtime& rt = async::Runtime::of(comm);
    coll::CollEngine& engine = coll::CollEngine::of(comm);
    double x = 1.0;
    double y = 2.0;
    fut::Future<fut::Unit> f1, f2;
    if (comm.rank() == 0) {
      f1 = engine.ibcast(&x, sizeof x, 1);
      f2 = engine.iallreduce_sum(&y, 1);
    } else {
      f1 = engine.iallreduce_sum(&y, 1);
      f2 = engine.ibcast(&x, sizeof x, 1);
    }
    rt.wait(f1);
    rt.wait(f2);
  });
}

TEST(NbcArena, MismatchedBlockingOpsAbort) {
  armci::WorldConfig cfg = make_cfg(3);
  cfg.armci.coll = {{"hw", "0"}, {"algo.allreduce", "recdbl"},
                    {"algo.broadcast", "binomial"}};
  expect_divergence(cfg, [](armci::Comm& comm) {
    coll::CollEngine& engine = coll::CollEngine::of(comm);
    double x = 1.0;
    if (comm.rank() == 0) {
      engine.allreduce_sum(&x, 1);
    } else {
      engine.broadcast(&x, sizeof x, 1);
    }
    comm.barrier();
  });
}

// Blocking collectives never create the async runtime: only the first
// non-blocking op (or an explicit Runtime::of) does.
TEST(NbcArena, FirstNonBlockingOpCreatesTheRuntime) {
  armci::World world(make_cfg(4));
  world.spmd([](armci::Comm& comm) {
    coll::CollEngine& engine = coll::CollEngine::of(comm);
    double x = comm.rank();
    engine.allreduce_sum(&x, 1);
    engine.barrier();
    EXPECT_EQ(comm.async_slot(), nullptr);
    async::Runtime::of(comm).wait(engine.iallreduce_sum(&x, 1));
    EXPECT_NE(comm.async_slot(), nullptr);
    EXPECT_EQ(x, 4 * 6.0);
    comm.barrier();
  });
}

// ---------------------------------------------------------------------------
// Revocable gets: revoke before the wire leg cancels outright (no
// traffic, counter ticks); the future still completes so chained work
// is never stranded.

TEST(Fut, RevokedGetCancelsBeforeInjection) {
  armci::World world(make_cfg(2));
  world.spmd([](armci::Comm& comm) {
    async::Runtime& rt = async::Runtime::of(comm);
    auto& mem = comm.malloc_collective(64);
    reinterpret_cast<double*>(mem.local(comm.rank()))[0] = 5.0 + comm.rank();
    comm.barrier();

    const auto gets_before = comm.stats().bytes_got;
    double sentinel = -1.0;
    async::RevocableGet g =
        rt.get_revocable(mem.at((comm.rank() + 1) % comm.nprocs()), &sentinel,
                         sizeof(double));
    // No progress pass has run since issue: the op is still queued
    // locally and must cancel outright.
    EXPECT_TRUE(rt.revoke(g));
    EXPECT_EQ(rt.gets_revoked(), 1u);
    rt.wait(g.future);
    EXPECT_TRUE(g.handle.done());
    EXPECT_DOUBLE_EQ(sentinel, -1.0) << "revoked get wrote its destination";
    EXPECT_EQ(comm.stats().bytes_got, gets_before)
        << "revoked get generated wire traffic";

    // A second revoke of the same op reports failure, not a double
    // completion.
    EXPECT_FALSE(comm.revoke_get(g.op));
    comm.barrier();
  });
}

// ---------------------------------------------------------------------------
// Misuse must abort loudly.

TEST(Fut, AbandonedContinuationAbortsAtFinalize) {
  try {
    armci::World world(make_cfg(2));
    world.spmd([](armci::Comm& comm) {
      async::Runtime& rt = async::Runtime::of(comm);
      // A continuation chained on a promise nobody ever fulfills:
      // finalize must refuse to drop it silently.
      auto p = std::make_shared<fut::Promise<int>>(rt);
      p->future().then([](const int&) {});
      comm.barrier();
    });
    FAIL() << "expected the abandoned-continuation abort";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("abandoned continuations"),
              std::string::npos)
        << e.what();
  }
}

TEST(Fut, MisspelledAsyncOptionIsRejected) {
  armci::WorldConfig cfg = make_cfg(2);
  cfg.armci.async.emplace_back("scf_overlp", "1");  // typo
  try {
    armci::World world(cfg);
    world.spmd([](armci::Comm& comm) { async::Runtime::of(comm); });
    FAIL() << "expected the unknown-option abort";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("async.scf_overlp"), std::string::npos) << what;
    EXPECT_NE(what.find("scf_overlap"), std::string::npos)
        << "the error should name the known keys";
  }
}

}  // namespace
}  // namespace pgasq
