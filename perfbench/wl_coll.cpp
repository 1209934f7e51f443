// coll: 128 ranks at one per node on the link-contention network, with
// the collective-logic hardware model off (coll.hw=0) so the software
// schedules run, and allreduce pinned to recursive doubling (the
// schedule iallreduce mirrors bit for bit). A round: two barriers, a
// 128 KiB broadcast, allreduce at 2 KiB and at 64 KiB, a 4 KiB
// all-to-all, and an iallreduce + ibarrier phase overlapped with seeded
// compute slices; every blocking call is entered after a seeded arrival
// skew. Payloads are seeded integer-valued doubles, so every reduction
// has one exact answer whatever the summation order.
//
// Blocked ranks poll in 200 ns virtual slices, so host cost grows with
// ranks x virtual time: one round of this mix at 512 ranks costs about
// 20 s of host time, which is why the workload runs at 128.
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "async/async.hpp"
#include "coll/coll.hpp"
#include "coll/nbc.hpp"
#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace coll = pgasq::coll;
namespace fut = pgasq::fut;

namespace {

constexpr int kRanks = 128;
constexpr int kRounds = 1;
constexpr std::size_t kBcastBytes = 128 * 1024;
constexpr std::size_t kSmallDoubles = 2 * 1024 / sizeof(double);
constexpr std::size_t kLargeDoubles = 64 * 1024 / sizeof(double);
/// All-to-all block per rank pair.
constexpr std::size_t kA2aBytes = 4096;
constexpr int kSlices = 8;

/// Deterministic integer-valued draw in [0, bound) from (seed, a, b, c).
std::uint64_t draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                   std::uint64_t c, std::uint64_t bound) {
  std::uint64_t s = seed ^ (a << 42) ^ (b << 21) ^ c;
  return pgasq::splitmix64(s) % bound;
}

/// Rank r's contribution to element i of the small (tag 1) or large
/// (tag 2) reduction.
double contribution(std::uint64_t seed, int tag, int r, std::size_t i) {
  return static_cast<double>(
      draw(seed, static_cast<std::uint64_t>(tag), static_cast<std::uint64_t>(r), i, 1024));
}

/// Word k of the all-to-all block rank `from` sends to rank `to`.
double a2a_word(int from, int to, std::size_t k) {
  return static_cast<double>((static_cast<std::uint64_t>(from) << 20) ^
                             (static_cast<std::uint64_t>(to) << 6) ^ k);
}

}  // namespace

void run_coll(std::uint64_t seed, Spans& spans, Result& res) {
  const int p = kRanks;

  // Closed-form expectations and the broadcast pattern: benchmark
  // inputs, built before the World exists.
  std::vector<double> want_small(kSmallDoubles, 0.0), want_large(kLargeDoubles, 0.0);
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < kSmallDoubles; ++i) {
      want_small[i] += contribution(seed, 1, r, i);
    }
    for (std::size_t i = 0; i < kLargeDoubles; ++i) {
      want_large[i] += contribution(seed, 2, r, i);
    }
  }
  std::vector<double> pattern(kBcastBytes / sizeof(double));
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<double>(draw(seed, 3, 0, i, 1u << 20));
  }
  const int blocking_per_round = 6;  // 2 barriers, bcast, 2 allreduce, alltoall
  const int nbc_per_round = 2;
  // Per rank: the rounds plus one closing barrier.
  const std::uint64_t ops_planned =
      static_cast<std::uint64_t>(p) *
      static_cast<std::uint64_t>(kRounds * (blocking_per_round + nbc_per_round) + 1);
  res.ops += ops_planned;
  res.op_lat.reserve(res.ops);

  armci::WorldConfig cfg;
  cfg.machine.num_ranks = p;
  cfg.machine.ranks_per_node = 1;
  cfg.machine.network_model = "contention";
  cfg.armci.coll = {{"hw", "0"}, {"algo.allreduce", "recdbl"}};

  Region region(p, res.armci);
  const HostMark construct = host_mark();
  armci::World world(cfg);
  spans.bind(world.machine().engine(), 0);
  Time t_start = 0, t_end = 0;
  Time compute = 0;
  std::uint64_t nbc_ops = 0, nbc_hops = 0;
  Time nbc_virt = 0;
  std::uint64_t bad = 0;
  std::vector<std::string> why;
  auto check = [&](bool ok, const char* what, int me, int round) {
    if (ok) return;
    ++bad;
    if (why.size() < 8) {
      why.push_back(std::string("coll: ") + what + " wrong on rank " + std::to_string(me) +
                    " round " + std::to_string(round));
    }
  };

  try {
    world.spmd([&](armci::Comm& comm) {
      const int me = comm.rank();
      coll::CollEngine& engine = coll::CollEngine::of(comm);
      pgasq::async::Runtime& rt = pgasq::async::Runtime::of(comm);
      coll::NbcEngine& nbc = coll::NbcEngine::of(comm);

      std::vector<double> in_small(kSmallDoubles), in_large(kLargeDoubles);
      for (std::size_t i = 0; i < kSmallDoubles; ++i) {
        in_small[i] = contribution(seed, 1, me, i);
      }
      for (std::size_t i = 0; i < kLargeDoubles; ++i) {
        in_large[i] = contribution(seed, 2, me, i);
      }
      std::vector<double> small(kSmallDoubles), large(kLargeDoubles), nb(kSmallDoubles);
      std::vector<double> bcast(pattern.size());
      const std::size_t a2a_words = kA2aBytes / sizeof(double);
      std::vector<double> a2a_in(a2a_words * static_cast<std::size_t>(p));
      std::vector<double> a2a_out(a2a_in.size());
      for (int to = 0; to < p; ++to) {
        for (std::size_t k = 0; k < a2a_words; ++k) {
          a2a_in[static_cast<std::size_t>(to) * a2a_words + k] = a2a_word(me, to, k);
        }
      }

      // The warm-up round runs untimed and unseen; the timed rounds
      // record spans, virtual latencies and modelled compute.
      bool timing = false;
      auto span = [&](const char* name) {
        return timing ? spans.open(me, name) : Spans::Scope(nullptr, 0);
      };
      auto compute_for = [&](Time t) {
        if (timing) compute += t;
        auto s = span("armci.compute");
        comm.compute(t);
      };
      // Blocking collective, entered after a seeded arrival skew of
      // 0-2 us (load imbalance) in the timed rounds.
      std::uint64_t call_seq = 0;
      auto blocking = [&](const char* name, auto&& call) {
        if (timing) {
          compute_for(pgasq::from_us(
              static_cast<double>(
                  draw(seed, 4, call_seq++, static_cast<std::uint64_t>(me), 2000)) /
              1000.0));
        }
        auto s = span(name);
        const Time t0 = comm.now();
        call();
        if (timing) res.op_lat.push_back(comm.now() - t0);
      };
      auto round_body = [&](int round) {
        blocking("coll.barrier", [&] { engine.barrier(); });
        blocking("coll.barrier", [&] { engine.barrier(); });

        const int root = 0;
        if (me == root) {
          std::memcpy(bcast.data(), pattern.data(), kBcastBytes);
        } else {
          std::memset(bcast.data(), 0, kBcastBytes);
        }
        blocking("coll.broadcast", [&] { engine.broadcast(bcast.data(), kBcastBytes, root); });
        check(std::memcmp(bcast.data(), pattern.data(), kBcastBytes) == 0, "broadcast", me,
              round);

        small = in_small;
        blocking("coll.allreduce", [&] { engine.allreduce_sum(small.data(), small.size()); });
        check(small == want_small, "allreduce 2 KiB", me, round);
        large = in_large;
        blocking("coll.allreduce", [&] { engine.allreduce_sum(large.data(), large.size()); });
        check(large == want_large, "allreduce 64 KiB", me, round);

        blocking("coll.alltoall",
                 [&] { engine.alltoall(a2a_in.data(), kA2aBytes, a2a_out.data()); });
        bool a2a_ok = true;
        for (int from = 0; from < p && a2a_ok; ++from) {
          for (std::size_t k = 0; k < a2a_words; ++k) {
            if (a2a_out[static_cast<std::size_t>(from) * a2a_words + k] !=
                a2a_word(from, me, k)) {
              a2a_ok = false;
              break;
            }
          }
        }
        check(a2a_ok, "alltoall", me, round);

        // Non-blocking phase: both ops open while the rank computes in
        // slices, stepping them from one progress pass per slice.
        nb = in_small;
        const Time t0 = comm.now();
        fut::Future<fut::Unit> fa, fb;
        {
          auto s = span("nbc.iallreduce");
          fa = nbc.iallreduce_sum(nb.data(), nb.size());
        }
        {
          auto s = span("nbc.ibarrier");
          fb = nbc.ibarrier();
        }
        Time done_a = 0, done_b = 0;
        auto observe = [&] {
          if (done_a == 0 && fa.ready()) done_a = comm.now();
          if (done_b == 0 && fb.ready()) done_b = comm.now();
        };
        for (int k = 0; k < kSlices; ++k) {
          compute_for(pgasq::from_us(
              2.0 + static_cast<double>(draw(seed, 6, static_cast<std::uint64_t>(round),
                                             static_cast<std::uint64_t>(me * kSlices + k),
                                             2000)) /
                        1000.0));
          comm.progress();
          observe();
        }
        {
          auto s = span("nbc.wait");
          rt.wait(fa);
          observe();
          rt.wait(fb);
          observe();
        }
        if (timing) nbc_virt += (done_a - t0) + (done_b - t0);
        check(std::memcmp(nb.data(), small.data(), kSmallDoubles * sizeof(double)) == 0,
              "iallreduce vs allreduce", me, round);
      };

      // Warm-up round: sizes every arena and staging buffer in set-up.
      round_body(-1);
      engine.barrier();

      const std::uint64_t hops0 = nbc.hops_sent();
      const std::uint64_t done0 = nbc.ops_completed();
      region.enter(comm);
      if (me == 0) t_start = comm.now();
      timing = true;
      for (int round = 0; round < kRounds; ++round) round_body(round);
      blocking("coll.barrier", [&] { engine.barrier(); });
      if (me == 0) t_end = comm.now();
      region.leave(comm);
      nbc_ops += nbc.ops_completed() - done0;
      nbc_hops += nbc.hops_sent() - hops0;
    });
  } catch (const std::exception& e) {
    res.fail(std::string("coll threw: ") + e.what(), ops_planned);
    return;
  }
  res.add_region(region, construct, t_end - t_start);
  for (const std::string& w : why) res.failures.push_back(w);
  res.ops_failed += bad;
  res.exact["app.compute_virt_ms"] = pgasq::to_ms(compute);
  res.exact["nbc.ops"] = static_cast<double>(nbc_ops);
  res.exact["nbc.hops_sent"] = static_cast<double>(nbc_hops);
  res.exact["nbc.virt_us_per_op"] =
      nbc_ops > 0 ? pgasq::to_us(nbc_virt) / static_cast<double>(nbc_ops) : 0.0;
}

}  // namespace perfbench
