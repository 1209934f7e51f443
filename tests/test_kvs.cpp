// Sharded key-value service (src/kvs): operation correctness at prime
// rank counts, CAS-version write serialization under contention,
// bitwise run-to-run determinism, transparency under packet loss and
// corruption, fail-stop durability (zero lost acked writes, faa
// exactly-once), report integration, and config typo rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/comm.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "kvs/kvs.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace pgasq::armci {
namespace {

WorldConfig world_of(int ranks) {
  WorldConfig cfg;
  cfg.machine.num_ranks = ranks;
  return cfg;
}

kvs::KvConfig small_mix() {
  kvs::KvConfig kc;
  kc.keys = 256;
  kc.requests = 24;
  kc.get_ratio = 0.5;
  kc.faa_ratio = 0.2;
  kc.zipf_theta = 0.99;
  return kc;
}

// Direct put/get/faa semantics at prime rank counts, where the
// hash-sharding never divides evenly: every rank writes one key, reads
// its neighbour's key back (version 2, the writer's stamp), misses on
// a never-written key, and the faa counters sum exactly once.
TEST(Kvs, PutGetFaaAcrossPrimeRanks) {
  for (const int n : {7, 13}) {
    World world(world_of(n));
    kvs::KvConfig kc;
    kc.keys = 64;
    std::vector<kvs::KvStats> st(static_cast<std::size_t>(n));
    std::vector<std::uint64_t> got_version(static_cast<std::size_t>(n), 0);
    std::vector<std::uint64_t> got_stamp(static_cast<std::size_t>(n), 0);
    std::vector<char> miss_ok(static_cast<std::size_t>(n), 0);
    std::vector<std::uint64_t> counters(static_cast<std::size_t>(n), 0);
    world.spmd([&](Comm& comm) {
      const auto me = static_cast<std::size_t>(comm.rank());
      kvs::KvStore store(comm, kc);
      const std::uint64_t stamp = (static_cast<std::uint64_t>(me + 1) << 32) | 7;
      EXPECT_EQ(store.put(static_cast<std::int64_t>(me), stamp, st[me]), 2u);
      store.faa(60, static_cast<std::int64_t>(me + 1), st[me]);
      comm.barrier();
      const auto peer = static_cast<std::size_t>((comm.rank() + 1) % n);
      std::uint64_t v = 0, s = 0;
      EXPECT_TRUE(store.get(static_cast<std::int64_t>(peer), &v, &s, st[me]));
      got_version[me] = v;
      got_stamp[me] = s;
      std::uint64_t mv = 0, ms = 0;
      miss_ok[me] = !store.get(63, &mv, &ms, st[me]) ? 1 : 0;
      comm.barrier();
      counters[me] = store.local_counter_sum();
    });
    std::uint64_t counter_total = 0;
    std::uint64_t torn = 0;
    for (int r = 0; r < n; ++r) {
      const auto i = static_cast<std::size_t>(r);
      const auto peer = static_cast<std::uint64_t>((r + 1) % n);
      EXPECT_EQ(got_version[i], 2u) << "rank " << r << " of " << n;
      EXPECT_EQ(got_stamp[i], (peer + 1) << 32 | 7) << "rank " << r;
      EXPECT_EQ(miss_ok[i], 1) << "rank " << r;
      counter_total += counters[i];
      torn += st[i].torn_reads;
    }
    // faa is exactly-once: sum of all deltas, wherever key 60 hashed.
    EXPECT_EQ(counter_total, static_cast<std::uint64_t>(n) * (n + 1) / 2);
    EXPECT_EQ(torn, 0u);
  }
}

// All ranks hammer puts on ONE key: the version CAS must serialize
// them — the final version is exactly 2x the number of acked puts
// (insert publishes 2, each update adds 2), and somebody must have
// lost a CAS race along the way.
TEST(Kvs, CasRaceSerializesWritersOnOneKey) {
  const int n = 7;
  const std::int64_t reps = 10;
  World world(world_of(n));
  kvs::KvConfig kc;
  kc.keys = 8;
  std::vector<kvs::KvStats> st(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> final_version(static_cast<std::size_t>(n), 0);
  world.spmd([&](Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    kvs::KvStore store(comm, kc);
    for (std::int64_t i = 0; i < reps; ++i) {
      const std::uint64_t stamp =
          (static_cast<std::uint64_t>(me + 1) << 32) |
          static_cast<std::uint64_t>(i + 1);
      store.put(0, stamp, st[me]);
    }
    comm.barrier();
    std::uint64_t v = 0, s = 0;
    ASSERT_TRUE(store.get(0, &v, &s, st[me]));
    final_version[me] = v;
  });
  std::uint64_t lost = 0, torn = 0;
  for (int r = 0; r < n; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(final_version[i], 2u * static_cast<std::uint64_t>(n) * reps);
    lost += st[i].cas_lost;
    torn += st[i].torn_reads;
  }
  EXPECT_GT(lost, 0u) << "7 writers on one key must race at least once";
  EXPECT_EQ(torn, 0u);
}

// The whole workload is a pure function of the seed: two identical
// runs must agree bit-for-bit — shard CRCs (slot versions, tags,
// counters, values), op counts, and virtual-time throughput.
TEST(Kvs, WorkloadIsBitwiseDeterministic) {
  const kvs::KvConfig kc = small_mix();
  auto run = [&] {
    World world(world_of(13));
    return kvs::run_workload(world, kc);
  };
  const kvs::KvResult a = run();
  const kvs::KvResult b = run();
  ASSERT_EQ(a.shard_crcs.size(), b.shard_crcs.size());
  EXPECT_EQ(a.shard_crcs, b.shard_crcs);
  EXPECT_EQ(a.acked_ops, b.acked_ops);
  EXPECT_EQ(a.total.cas_lost, b.total.cas_lost);
  EXPECT_EQ(a.total.probe_steps, b.total.probe_steps);
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
  EXPECT_EQ(a.total.get_lat.quantile(0.99), b.total.get_lat.quantile(0.99));
  EXPECT_EQ(a.lost_acked, 0u);
  EXPECT_EQ(a.torn_reads, 0u);
  EXPECT_GT(a.acked_ops, 0u);
}

// Packet loss + silent corruption underneath the store must be fully
// transparent: with conflict-free keys (single writer each) the final
// shard state is a pure function of the op stream, so the CRCs must
// match the fault-free run byte for byte, with zero torn reads and
// zero lost acked writes.
TEST(Kvs, LossAndCorruptionAreTransparent) {
  kvs::KvConfig kc = small_mix();
  kc.conflict_free = true;
  kc.keys = 256;  // >= ranks, full residue classes
  auto run = [&](bool faulty) {
    WorldConfig cfg = world_of(13);
    if (faulty) {
      cfg.machine.fault.drop_prob = 0.01;
      cfg.machine.fault.corrupt_prob = 0.01;
    }
    World world(cfg);
    return kvs::run_workload(world, kc);
  };
  const kvs::KvResult clean = run(false);
  const kvs::KvResult faulty = run(true);
  EXPECT_EQ(clean.shard_crcs, faulty.shard_crcs);
  EXPECT_EQ(clean.acked_ops, faulty.acked_ops);
  EXPECT_EQ(faulty.torn_reads, 0u);
  EXPECT_EQ(faulty.lost_acked, 0u);
  EXPECT_EQ(faulty.faa_applied, faulty.faa_expected);
}

// A node dies mid-traffic while shards checkpoint to buddies: the
// survivors shrink, roll back, replay their acked op logs, and the
// audit must find zero lost acked writes and exactly-once faa.
TEST(Kvs, FailStopLosesNoAckedWrites) {
  kvs::KvConfig kc;
  kc.keys = 512;
  kc.requests = 32;
  kc.get_ratio = 0.3;
  kc.faa_ratio = 0.2;
  kc.checkpoint_every = 8;
  // Keep the traffic window far past the ~200 us liveness detection
  // delay so the death is declared mid-traffic, not in the teardown.
  kc.think_us = 25.0;

  WorldConfig base;
  base.machine.num_ranks = 8;
  base.machine.ranks_per_node = 1;
  base.machine.dims = topo::Coord5{2, 2, 2, 1, 1};

  Time death_at = 0;
  {
    World world(base);
    const kvs::KvResult clean = kvs::run_workload(world, kc);
    ASSERT_GT(clean.traffic_end, clean.traffic_begin);
    death_at = clean.traffic_begin +
               (clean.traffic_end - clean.traffic_begin) * 55 / 100;
  }
  WorldConfig cfg = base;
  cfg.machine.fault.node_fails.push_back({3, death_at});
  World world(cfg);
  const kvs::KvResult r = kvs::run_workload(world, kc);
  EXPECT_EQ(r.survivors, 7);
  EXPECT_GE(r.recoveries, 1);
  EXPECT_GT(r.checkpoints, 0u);
  EXPECT_GT(r.total.replayed_ops, 0u);
  EXPECT_EQ(r.lost_acked, 0u);
  EXPECT_EQ(r.torn_reads, 0u);
  EXPECT_EQ(r.faa_expected, r.faa_applied)
      << "faa counters must land on the exactly-once expectation";
  ASSERT_FALSE(r.events.empty());
  EXPECT_EQ(r.events.front().dead_ranks, std::vector<int>{3});
}

// export_metrics lands in both report renderers: the text report's
// application-metrics section and the JSON metrics array.
TEST(Kvs, MetricsRenderInTextAndJsonReports) {
  kvs::KvConfig kc = small_mix();
  kc.requests = 8;
  World world(world_of(7));
  const kvs::KvResult r = kvs::run_workload(world, kc);
  kvs::export_metrics(world.app_metrics(), r, {{"mix", "zipfian"}});

  const std::string text = render_report(world);
  EXPECT_NE(text.find("kvs.acked_ops"), std::string::npos) << text;
  EXPECT_NE(text.find("kvs.throughput_mops"), std::string::npos);

  const std::string json = render_json_report(world).dump();
  EXPECT_NE(json.find("kvs.latency_ns"), std::string::npos);
  EXPECT_NE(json.find("\"mix\""), std::string::npos);
  EXPECT_NE(json.find("kvs.lost_acked_writes"), std::string::npos);
}

// A kvs.* key the parser never reads is an unknown option, with a
// typo suggestion from the names it did ask for.
TEST(Kvs, ConfigRejectsUnknownKeysWithSuggestion) {
  Config cfg;
  cfg.set("kvs.get_ration", "0.5");
  kvs::KvConfig::from_config(cfg);
  ASSERT_EQ(cfg.unknown_options(),
            std::vector<std::string>{
                "unknown option kvs.get_ration (did you mean kvs.get_ratio?)"});
  Config ok;
  ok.set("kvs.get_ratio", "0.25");
  EXPECT_DOUBLE_EQ(kvs::KvConfig::from_config(ok).get_ratio, 0.25);
}

}  // namespace
}  // namespace pgasq::armci
