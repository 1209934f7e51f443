// End-to-end data integrity: silent bit flips injected by the fabric
// must be detected and repaired byte-identically by the CRC-verified
// transport (detected == injected, no silent escapes), collective slot
// checksums must catch flips that land when transport verification is
// off, checkpoint digests must reject corrupted buffers before
// rollback, exhaustion on a corrupted leg must escalate to a typed
// IntegrityError, and the whole subsystem must cost nothing when off.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "async/async.hpp"
#include "coll/coll.hpp"
#include "core/comm.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "fault/integrity.hpp"
#include "ft/recovery.hpp"
#include "ga/collectives.hpp"
#include "ga/global_array.hpp"
#include "util/config.hpp"

namespace pgasq::armci {
namespace {

WorldConfig line(int n) {
  WorldConfig cfg;
  cfg.machine.num_ranks = n;
  cfg.machine.ranks_per_node = 1;
  cfg.machine.dims = topo::Coord5{n, 1, 1, 1, 1};
  return cfg;
}

/// Everything a run leaves behind that the assertions below care
/// about, captured before the World is torn down.
struct RunResult {
  std::vector<std::vector<std::byte>> bytes;  // read-back, per rank
  CommStats stats;
  fault::FaultStats fstats;
  fault::IntegrityStats istats;
  bool has_integrity = false;
  Time elapsed = 0;
};

/// Corruption-stress workload: contiguous put/get rounds, an
/// accumulate fan-in, a strided round-trip (typed path), and a notify
/// handshake. Returns every byte the ranks read back, concatenated.
RunResult run_workload(const WorldConfig& cfg) {
  constexpr std::size_t kBytes = 2048;
  RunResult out;
  out.bytes.resize(static_cast<std::size_t>(cfg.machine.num_ranks));
  World world(cfg);
  world.spmd([&](Comm& comm) {
    const int r = comm.rank();
    const int n = comm.nprocs();
    const int right = (r + 1) % n;
    auto& mem = comm.malloc_collective(kBytes);
    auto& acc_mem = comm.malloc_collective(sizeof(double) * 32);
    auto& grid = comm.malloc_collective(64 * 64);
    auto& flag = comm.malloc_collective(8);
    std::vector<std::byte>& bytes = out.bytes[static_cast<std::size_t>(r)];

    for (std::size_t round = 0; round < 16; ++round) {
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
      bytes.insert(bytes.end(), back.begin(), back.end());
      comm.barrier();
    }

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
    bytes.insert(bytes.end(), sum_bytes, sum_bytes + sizeof(double) * 32);

    const StridedSpec spec = StridedSpec::rect2d(
        /*rows=*/16, /*row_bytes=*/48, /*src_pitch=*/64, /*dst_pitch=*/64);
    std::vector<std::byte> patch(64 * 16);
    for (std::size_t i = 0; i < patch.size(); ++i) {
      patch[i] =
          static_cast<std::byte>((i + static_cast<std::size_t>(r) * 13) & 0xFF);
    }
    comm.put_strided(patch.data(), grid.at(right), spec);
    comm.fence(right);
    comm.barrier();
    std::vector<std::byte> patch_back(64 * 16, std::byte{0});
    comm.get_strided(grid.at(r), patch_back.data(), spec);
    bytes.insert(bytes.end(), patch_back.begin(), patch_back.end());

    const std::int64_t token = 1000 + r;
    comm.put(&token, flag.at(right), sizeof token);
    comm.notify(right);
    const int left = (r + n - 1) % n;
    comm.wait_notify(left);
    std::int64_t got = 0;
    std::memcpy(&got, flag.local(r), sizeof got);
    const auto* tok = reinterpret_cast<const std::byte*>(&got);
    bytes.insert(bytes.end(), tok, tok + sizeof got);
    comm.barrier();
  });
  out.stats = world.total_stats();
  out.elapsed = world.elapsed();
  if (const fault::Injector* inj = world.machine().injector()) {
    out.fstats = inj->stats();
  }
  if (const fault::Integrity* ig = world.machine().integrity()) {
    out.has_integrity = true;
    out.istats = ig->stats();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Transport: CRC verification + NACK retransmit.

// A corruption-only plan at prime rank counts (no power-of-two
// shortcut can hide a hole), two seeds each: every flip the fabric
// injects must be detected (zero silent escapes), NACKed, and repaired
// so the data read back is byte-identical to the fault-free run.
TEST(Integrity, DetectsAndRepairsAtPrimeRankCounts) {
  for (const int n : {7, 13}) {
    const RunResult clean = run_workload(line(n));
    EXPECT_FALSE(clean.has_integrity);

    for (const std::uint64_t seed : {5ull, 11ull}) {
      WorldConfig cfg = line(n);
      cfg.machine.fault.seed = seed;
      cfg.machine.fault.corrupt_prob = 0.05;
      const RunResult r = run_workload(cfg);
      ASSERT_EQ(r.bytes.size(), clean.bytes.size());
      for (std::size_t rank = 0; rank < clean.bytes.size(); ++rank) {
        EXPECT_EQ(r.bytes[rank], clean.bytes[rank])
            << "rank " << rank << " of " << n << " read corrupted data, seed "
            << seed;
      }
      ASSERT_TRUE(r.has_integrity) << "corruption plan must build the layer";
      EXPECT_GT(r.fstats.packets_corrupted, 0u) << n << " ranks, seed " << seed;
      // The zero-silent-escapes invariant: every injected flip was
      // caught by a transport CRC check and answered with a NACK.
      EXPECT_EQ(r.istats.corruptions_detected, r.fstats.packets_corrupted)
          << n << " ranks, seed " << seed;
      EXPECT_EQ(r.istats.nacks_sent, r.istats.corruptions_detected);
      EXPECT_GT(r.istats.nack_retransmits, 0u);
      EXPECT_GT(r.istats.crc_checks, r.istats.corruptions_detected);
      EXPECT_GT(r.istats.echo_crc_acks, 0u);
    }
  }
}

TEST(Integrity, SameSeedSameRepair) {
  WorldConfig cfg = line(4);
  cfg.machine.fault.seed = 99;
  cfg.machine.fault.corrupt_prob = 0.05;
  const RunResult a = run_workload(cfg);
  const RunResult b = run_workload(cfg);
  EXPECT_EQ(a.fstats.packets_corrupted, b.fstats.packets_corrupted);
  EXPECT_EQ(a.istats.corruptions_detected, b.istats.corruptions_detected);
  EXPECT_EQ(a.istats.nack_retransmits, b.istats.nack_retransmits);
  EXPECT_EQ(a.stats.retransmits, b.stats.retransmits);
}

// Corruption windows gate injection in virtual time: a window that
// opens long after the run ends must inject nothing, even at a
// certain-fire probability — while verification stays armed.
TEST(Integrity, CorruptWindowInTheFutureInjectsNothing) {
  WorldConfig cfg = line(4);
  cfg.machine.fault.corrupt_prob = 0.5;
  cfg.machine.fault.corrupt_windows.push_back(
      fault::CorruptWindow{from_ms(1000000), fault::kForever});
  const RunResult r = run_workload(cfg);
  ASSERT_TRUE(r.has_integrity);
  EXPECT_EQ(r.fstats.packets_corrupted, 0u);
  EXPECT_EQ(r.istats.corruptions_detected, 0u);
  EXPECT_EQ(r.istats.nacks_sent, 0u);
  EXPECT_GT(r.istats.crc_checks, 0u);

  const RunResult clean = run_workload(line(4));
  for (std::size_t rank = 0; rank < clean.bytes.size(); ++rank) {
    EXPECT_EQ(r.bytes[rank], clean.bytes[rank]) << "rank " << rank;
  }
}

// A leg whose payload fails CRC on every attempt must burn the retry
// budget and escalate as IntegrityError (the typed corruption
// subclass), reporting the op, the ranks and the budget.
TEST(Integrity, RetryExhaustionOnCorruptionEscalatesToIntegrityError) {
  WorldConfig cfg = line(4);
  cfg.machine.fault.corrupt_prob = 0.9999;  // every attempt re-corrupts
  cfg.machine.fault.retry_budget = 4;
  World world(cfg);
  try {
    world.spmd([](Comm& comm) {
      std::vector<std::byte> buf(2048, std::byte{7});
      auto& mem = comm.malloc_collective(buf.size());
      if (comm.rank() == 0) {
        comm.put(buf.data(), mem.at(1), buf.size());
        comm.fence(1);
      }
      comm.barrier();
    });
    FAIL() << "expected IntegrityError, but the run completed";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.retries(), 4u);
    EXPECT_FALSE(e.operation().empty());
    EXPECT_NE(e.src_node(), e.dst_node());
    const std::string what = e.what();
    EXPECT_NE(what.find("integrity"), std::string::npos);
    EXPECT_NE(what.find("retry budget"), std::string::npos);
    EXPECT_NE(what.find("CRC"), std::string::npos);
    EXPECT_NE(what.find("rank"), std::string::npos)
        << "escalation should translate node ids to ranks";
  }
}

// ---------------------------------------------------------------------------
// Collectives: slot checksums catch flips that land.

// With transport verification off (integrity.verify=0) flipped bytes
// reach application memory — including collective slots. The slot
// checksum must detect the mid-tree corruption and re-request the slot
// from the sender's retained stage, so reductions and broadcasts still
// come out exact. Blocking and non-blocking collectives share the slot
// transport; each runs in its own World so its repair counters stand
// alone.
TEST(Integrity, SilentDeliveryCollSlotRepair) {
  constexpr int kRanks = 7;
  constexpr std::size_t kN = 512;
  constexpr std::size_t kBcastBytes = 4096;
  for (const bool nonblocking : {false, true}) {
    const char* engine = nonblocking ? "non-blocking" : "blocking";
    WorldConfig cfg = line(kRanks);
    cfg.machine.fault.seed = 21;
    cfg.machine.fault.corrupt_prob = 0.05;
    cfg.machine.integrity.configured = true;
    cfg.machine.integrity.verify = false;  // let the flips land
    World world(cfg);
    world.spmd([&](Comm& comm) {
      for (int round = 0; round < 10; ++round) {
        std::vector<double> x(kN);
        for (std::size_t i = 0; i < kN; ++i) {
          x[i] = comm.rank() + 10.0 * static_cast<double>(i);
        }
        if (nonblocking) {
          async::Runtime::of(comm).wait(
              coll::CollEngine::of(comm).iallreduce_sum(x.data(), x.size()));
        } else {
          coll::CollEngine::of(comm).allreduce_sum(x.data(), x.size());
        }
        // Exact integer arithmetic in doubles: any surviving bit flip
        // would show up as a wrong (or non-integral) element.
        const double rank_sum = kRanks * (kRanks - 1) / 2.0;
        for (std::size_t i = 0; i < kN; ++i) {
          ASSERT_DOUBLE_EQ(x[i], rank_sum + 10.0 * static_cast<double>(i) * kRanks)
              << engine << " element " << i << " round " << round << " on rank "
              << comm.rank();
        }
        if (!nonblocking) continue;
        const int root = round % kRanks;
        std::vector<std::byte> buf(kBcastBytes, std::byte{0});
        if (comm.rank() == root) {
          for (std::size_t i = 0; i < kBcastBytes; ++i) {
            buf[i] = static_cast<std::byte>(i * 7 + static_cast<std::size_t>(round));
          }
        }
        async::Runtime::of(comm).wait(
            coll::CollEngine::of(comm).ibcast(buf.data(), buf.size(), root));
        for (std::size_t i = 0; i < kBcastBytes; ++i) {
          ASSERT_EQ(buf[i], static_cast<std::byte>(i * 7 + static_cast<std::size_t>(round)))
              << "ibcast byte " << i << " round " << round << " on rank "
              << comm.rank();
        }
      }
      comm.barrier();
    });
    ASSERT_NE(world.machine().integrity(), nullptr);
    const fault::IntegrityStats& is = world.machine().integrity()->stats();
    EXPECT_GT(is.coll_slot_checks, 0u) << engine;
    EXPECT_GT(is.coll_slot_rejects, 0u) << engine << ": plan never corrupted a "
                                           "slot; raise rounds or corrupt_prob";
    EXPECT_GE(is.coll_slot_refetches, is.coll_slot_rejects) << engine;
  }
}

// A corruption plan must deselect the hardware collective-logic model:
// it moves no torus packets, so it can neither suffer nor detect the
// planned flips — corruption runs must exercise the CRC-checked
// software schedules.
TEST(Integrity, CorruptionPlanDeselectsHardwareCollectives) {
  WorldConfig cfg;
  cfg.machine.num_ranks = 16;
  cfg.machine.fault.corrupt_prob = 0.001;
  World world(cfg);
  world.spmd([](Comm& comm) {
    auto& engine = coll::CollEngine::of(comm);
    EXPECT_TRUE(engine.geometry().corruption);
    EXPECT_NE(engine.algo_for(coll::Op::kBarrier, 0), coll::Algo::kHw);
    EXPECT_NE(engine.algo_for(coll::Op::kAllreduce, 1 << 20), coll::Algo::kHw);
    engine.barrier();
  });
}

// ---------------------------------------------------------------------------
// Checkpoints: digests validated before rollback.

WorldConfig cube8() {
  WorldConfig cfg;
  cfg.machine.num_ranks = 8;
  cfg.machine.ranks_per_node = 1;
  cfg.machine.dims = topo::Coord5{2, 2, 2, 1, 1};
  return cfg;
}

/// Checkpoint-then-die harness: fills a 32x32 array with `iter`,
/// checkpoints at iters 1 and 2 (interval 1 => iter 1 in buffer 1,
/// iter 2 in buffer 0), poisons the buffers named in `poison`, then
/// spins until the scheduled death unwinds a barrier and recovery
/// runs. Returns the restart iteration and the restored element sum on
/// the lowest survivor.
void checkpoint_poison_run(const std::vector<int>& poison, int* restart_iter,
                           double* restored_sum) {
  WorldConfig cfg = cube8();
  cfg.machine.fault.node_fails.push_back({/*node=*/3, from_ms(60)});
  cfg.machine.integrity.configured = true;
  World world(cfg);
  world.spmd([&](Comm& comm) {
    ga::GlobalArray a(comm, 32, 32);
    auto fill = [&](double v) {
      const auto [rlo, rhi] = a.local_rows();
      const auto [clo, chi] = a.local_cols();
      double* d = a.local_data();
      const std::int64_t count = (rhi - rlo) * (chi - clo);
      for (std::int64_t i = 0; i < count; ++i) d[i] = v;
      comm.barrier();
    };
    coll::CollEngine::of(comm);
    ft::RuntimeConfig rc;
    rc.checkpoint_interval = 1;
    ft::Runtime rt(comm, rc, {&a});
    fill(1.0);
    rt.checkpoint(1, {&a});
    fill(2.0);
    rt.checkpoint(2, {&a});
    for (const int buf : poison) rt.poison_for_test(buf, 0);

    bool recovered = false;
    for (int i = 0; i < 40000 && !recovered; ++i) {
      try {
        comm.compute(from_us(10));
        comm.barrier();
      } catch (const ft::PeerDeadError&) {
        bool alive = true;
        while (true) {
          try {
            alive = rt.recover();
            break;
          } catch (const ft::PeerDeadError&) {
          }
        }
        if (!alive) return;  // this rank is the casualty
        recovered = true;
      }
    }
    ASSERT_TRUE(recovered) << "scheduled death never unwound the loop";

    ga::GlobalArray rebuilt(comm, 32, 32, rt.members());
    rt.restore({&rebuilt});
    const double sum = ga::element_sum(rebuilt);
    if (comm.rank() == rt.members().front()) {
      *restart_iter = rt.restart_iter();
      *restored_sum = sum;
    }
  });
  ASSERT_NE(world.machine().integrity(), nullptr);
  const fault::IntegrityStats& is = world.machine().integrity()->stats();
  EXPECT_GT(is.ckpt_digests_computed, 0u);
  EXPECT_GT(is.ckpt_digests_validated, 0u);
  EXPECT_GT(is.ckpt_digest_mismatches, 0u);
  if (poison.size() == 1) EXPECT_GE(is.ckpt_fallback_restores, 1u);
}

// Poisoning the newest checkpoint buffer must fail its digest
// validation and fall the recovery back to the older double-buffered
// copy — restoring iter 1's bits, not iter 2's garbage.
TEST(Integrity, CheckpointDigestMismatchFallsBackToOlderBuffer) {
  int restart_iter = -1;
  double restored_sum = 0.0;
  checkpoint_poison_run({/*newest buffer=*/0}, &restart_iter, &restored_sum);
  EXPECT_EQ(restart_iter, 1);
  EXPECT_DOUBLE_EQ(restored_sum, 32.0 * 32.0 * 1.0);
}

// When every committed buffer fails validation the run must abort
// loudly (IntegrityError) rather than roll back to garbage.
TEST(Integrity, AllCheckpointBuffersBadAbortsLoudly) {
  WorldConfig cfg = cube8();
  cfg.machine.fault.node_fails.push_back({/*node=*/3, from_ms(60)});
  cfg.machine.integrity.configured = true;
  World world(cfg);
  try {
    world.spmd([&](Comm& comm) {
      ga::GlobalArray a(comm, 32, 32);
      coll::CollEngine::of(comm);
      ft::RuntimeConfig rc;
      rc.checkpoint_interval = 1;
      ft::Runtime rt(comm, rc, {&a});
      rt.checkpoint(1, {&a});
      rt.checkpoint(2, {&a});
      rt.poison_for_test(0, 0);
      rt.poison_for_test(1, 0);
      for (int i = 0; i < 40000; ++i) {
        try {
          comm.compute(from_us(10));
          comm.barrier();
        } catch (const ft::PeerDeadError&) {
          while (true) {
            try {
              if (!rt.recover()) return;
              break;
            } catch (const ft::PeerDeadError&) {
            }
          }
          return;
        }
      }
    });
    FAIL() << "expected IntegrityError, but recovery restored something";
  } catch (const IntegrityError& e) {
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos);
    EXPECT_EQ(e.operation(), "checkpoint restore");
  }
}

// ---------------------------------------------------------------------------
// Zero-cost-off and reporting.

// No corruption planned and no integrity.* key set: the layer must not
// exist. An explicitly configured but fully disabled layer must leave
// the run byte-identical (data, counters, virtual time) to one without
// the layer at all.
TEST(Integrity, ZeroCostWhenOff) {
  World plain(line(4));
  plain.spmd([](Comm& comm) { comm.barrier(); });
  EXPECT_EQ(plain.machine().integrity(), nullptr);

  // Drop-only plans predate this subsystem and must not grow it.
  WorldConfig drops = line(4);
  drops.machine.fault.drop_prob = 0.01;
  World dropping(drops);
  dropping.spmd([](Comm& comm) { comm.barrier(); });
  EXPECT_EQ(dropping.machine().integrity(), nullptr);

  const RunResult off = run_workload(line(4));
  EXPECT_FALSE(off.has_integrity);

  WorldConfig disabled = line(4);
  disabled.machine.integrity.configured = true;
  disabled.machine.integrity.verify = false;
  disabled.machine.integrity.coll_check = false;
  disabled.machine.integrity.ckpt_digest = false;
  const RunResult idle = run_workload(disabled);
  EXPECT_TRUE(idle.has_integrity);
  // Not a single hook fired: no CRC passes, no slot checks, no digests.
  // (Virtual-time equality is not asserted here — Worlds sharing one
  // process carry a pre-existing allocator-layout timing jitter, see
  // test_ft_recovery.cpp — so the contract is checked on the data and
  // the deterministic protocol counters.)
  EXPECT_EQ(idle.istats.crc_checks, 0u);
  EXPECT_EQ(idle.istats.coll_slot_checks, 0u);
  EXPECT_EQ(idle.istats.ckpt_digests_computed, 0u);
  ASSERT_EQ(idle.bytes.size(), off.bytes.size());
  for (std::size_t rank = 0; rank < off.bytes.size(); ++rank) {
    EXPECT_EQ(idle.bytes[rank], off.bytes[rank]) << "rank " << rank;
  }
  EXPECT_EQ(idle.stats.retransmits, off.stats.retransmits);
}

TEST(Integrity, ReportRendersIntegrityTable) {
  WorldConfig cfg = line(4);
  cfg.machine.fault.corrupt_prob = 0.01;
  World world(cfg);
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(2048);
    std::vector<std::byte> buf(2048, std::byte{5});
    if (comm.rank() == 0) {
      for (int i = 0; i < 64; ++i) comm.put(buf.data(), mem.at(1), buf.size());
      comm.fence(1);
    }
    comm.barrier();
  });
  const std::string report = render_report(world);
  EXPECT_NE(report.find("end-to-end integrity"), std::string::npos);
  EXPECT_NE(report.find("transport CRC checks"), std::string::npos);
  EXPECT_NE(report.find("corruptions detected"), std::string::npos);
  EXPECT_NE(report.find("NACKs sent"), std::string::npos);
  EXPECT_NE(report.find("flips injected"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Configuration parsing.

TEST(IntegrityConfigTest, ParsesAllKnobs) {
  Config cfg;
  cfg.set("integrity.verify", "0");
  cfg.set("integrity.coll_check", "0");
  cfg.set("integrity.ckpt_digest", "0");
  cfg.set("integrity.crc_setup_ns", "5");
  cfg.set("integrity.crc_ns_per_byte", "0.01");
  const fault::IntegrityConfig ic = fault::IntegrityConfig::from_config(cfg);
  EXPECT_TRUE(ic.configured);
  EXPECT_FALSE(ic.verify);
  EXPECT_FALSE(ic.coll_check);
  EXPECT_FALSE(ic.ckpt_digest);
  EXPECT_DOUBLE_EQ(ic.crc_setup_ns, 5.0);
  EXPECT_DOUBLE_EQ(ic.crc_ns_per_byte, 0.01);

  const fault::IntegrityConfig defaults =
      fault::IntegrityConfig::from_config(Config{});
  EXPECT_FALSE(defaults.configured);
  EXPECT_TRUE(defaults.verify);
  EXPECT_TRUE(defaults.coll_check);
  EXPECT_TRUE(defaults.ckpt_digest);
}

TEST(IntegrityConfigTest, ParsesCorruptionKnobs) {
  Config cfg;
  cfg.set("fault.corrupt_prob", "0.001");
  cfg.set("fault.corrupt_bits", "3");
  cfg.set("fault.corrupt_window", "10:20,30:40");
  const fault::FaultPlan plan = fault::FaultPlan::from_config(cfg);
  EXPECT_TRUE(plan.enabled());
  EXPECT_DOUBLE_EQ(plan.corrupt_prob, 0.001);
  EXPECT_EQ(plan.corrupt_bits, 3);
  ASSERT_EQ(plan.corrupt_windows.size(), 2u);
  EXPECT_EQ(plan.corrupt_windows[0].begin, from_us(10));
  EXPECT_EQ(plan.corrupt_windows[0].end, from_us(20));
  EXPECT_EQ(plan.corrupt_windows[1].begin, from_us(30));
  EXPECT_EQ(plan.corrupt_windows[1].end, from_us(40));
}

TEST(IntegrityConfigTest, RejectsNearMissKeysWithSuggestion) {
  Config typo;
  typo.set("fault.corrupt_bitz", "2");
  fault::FaultPlan::from_config(typo);
  EXPECT_EQ(typo.unknown_options(),
            std::vector<std::string>{"unknown option fault.corrupt_bitz "
                                     "(did you mean fault.corrupt_bits?)"});

  Config typo2;
  typo2.set("integrity.verfy", "0");
  fault::IntegrityConfig::from_config(typo2);
  EXPECT_EQ(typo2.unknown_options(),
            std::vector<std::string>{"unknown option integrity.verfy "
                                     "(did you mean integrity.verify?)"});
}

}  // namespace
}  // namespace pgasq::armci
