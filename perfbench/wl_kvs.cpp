// kvs: the sharded key-value service on 512 ranks (one per node, link
// contention network). 8192 keys, all written once during set-up; then
// every rank runs a closed loop of zipfian (theta 0.99) requests, 50% get
// / 40% put / 10% faa on 32 B values with no think time. No GlobalArray
// is used, and no collective runs outside set-up and the closing barrier.
//
// A run is two independent service instances (Worlds), each with its own
// inputs. The latency tail is the CAS storm on the hottest keys, whose
// length varies a lot from one instance to the next; pooling two halves
// that seed-to-seed variation, where more requests per rank did not.
#include <exception>
#include <string>
#include <vector>

#include "coll/coll.hpp"
#include "common.hpp"
#include "kvs/kvs.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace kvs = pgasq::kvs;

namespace {

constexpr int kRanks = 512;
constexpr std::int64_t kKeys = 8192;
constexpr int kWorlds = 2;
constexpr std::int64_t kRequests = 48;
constexpr double kTheta = 0.99;
constexpr double kGetRatio = 0.5;
constexpr double kFaaRatio = 0.1;

}  // namespace

namespace {

/// What the Worlds of one run add up to: latencies per op type, the
/// timed client statistics and the audit's findings.
struct KvTotals {
  std::vector<Time> lat[3];  // get, put, faa
  kvs::KvStats timed;
  std::uint64_t torn = 0, bad_version = 0, bad_counter = 0;
};

/// One World: set-up (store, prefill), the timed closed loop, then the
/// audit at the quiescent end state.
void drive_kvs(std::uint64_t seed, int world_index, Spans& spans, Result& res,
               KvTotals& tot) {
  const int p = kRanks;
  kvs::KvConfig kc;
  kc.keys = kKeys;
  kc.zipf_theta = kTheta;
  kc.get_ratio = kGetRatio;
  kc.faa_ratio = kFaaRatio;
  kc.requests = kRequests;
  kc.value_bytes = 32;
  kc.seed = seed;
  const kvs::ZipfGenerator zipf(static_cast<std::uint64_t>(kKeys), kTheta);

  armci::WorldConfig cfg;
  cfg.machine.num_ranks = p;
  cfg.machine.ranks_per_node = 1;
  cfg.machine.network_model = "contention";

  // The audit book: acked puts (set-up included) and summed acked faa
  // deltas per key, over every client.
  std::vector<std::uint64_t> puts_acked(static_cast<std::size_t>(kKeys), 0);
  std::vector<std::uint64_t> faa_acked(static_cast<std::size_t>(kKeys), 0);

  Region region(p, res.armci);
  const HostMark construct = host_mark();
  armci::World world(cfg);
  spans.bind(world.machine().engine(), world_index);
  Time t_start = 0, t_end = 0;
  world.spmd([&](armci::Comm& comm) {
    const int me = comm.rank();
    pgasq::coll::CollEngine::of(comm);
    kvs::KvStore store(comm, kc);
    kvs::KvStats setup_st;
    std::uint64_t seq = 0;
    auto stamp = [&] { return (static_cast<std::uint64_t>(me + 1) << 32) | ++seq; };

    // Prefill: every key written once, round-robin over clients.
    comm.barrier();
    for (std::int64_t key = me; key < kKeys; key += p) {
      store.put(key, stamp(), setup_st);
      ++puts_acked[static_cast<std::size_t>(key)];
    }
    comm.barrier();

    pgasq::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(me) + 1);
    kvs::KvStats st;
    region.enter(comm);
    if (me == 0) t_start = comm.now();
    for (std::int64_t r = 0; r < kRequests; ++r) {
      const auto key = static_cast<std::int64_t>(zipf.next(rng));
      const double u = rng.next_double();
      const Time t0 = comm.now();
      if (u < kGetRatio) {
        auto s = spans.open(me, "kvs.get");
        std::uint64_t version = 0, value = 0;
        store.get(key, &version, &value, st);
        tot.lat[0].push_back(comm.now() - t0);
      } else if (u < kGetRatio + kFaaRatio) {
        const auto delta = static_cast<std::int64_t>(1 + rng.next_below(9));
        auto s = spans.open(me, "kvs.faa");
        store.faa(key, delta, st);
        tot.lat[2].push_back(comm.now() - t0);
        faa_acked[static_cast<std::size_t>(key)] += static_cast<std::uint64_t>(delta);
      } else {
        const std::uint64_t stm = stamp();
        auto s = spans.open(me, "kvs.put");
        store.put(key, stm, st);
        tot.lat[1].push_back(comm.now() - t0);
        ++puts_acked[static_cast<std::size_t>(key)];
      }
      res.op_lat.push_back(comm.now() - t0);
    }
    comm.barrier();
    if (me == 0) t_end = comm.now();
    region.leave(comm);
    tot.timed.merge(st);

    // Audit at the quiescent end state, each client its residue class
    // of keys: version == 2 x acked puts, counter == acked deltas.
    kvs::KvStats audit;
    for (std::int64_t key = me; key < kKeys; key += p) {
      const auto k = static_cast<std::size_t>(key);
      std::uint64_t version = 0, value = 0;
      if (!store.get(key, &version, &value, audit) || version != 2 * puts_acked[k]) {
        ++tot.bad_version;
      }
      if (static_cast<std::uint64_t>(store.faa(key, 0, audit)) != faa_acked[k]) {
        ++tot.bad_counter;
      }
    }
    tot.torn += st.torn_reads + audit.torn_reads;
    comm.barrier();
  });
  res.add_region(region, construct, t_end - t_start);
}

}  // namespace

void run_kvs(std::uint64_t seed, Spans& spans, Result& res) {
  const auto ops_per_world = static_cast<std::uint64_t>(kRanks * kRequests);
  KvTotals tot;
  for (auto& l : tot.lat) l.reserve(kWorlds * ops_per_world);
  res.op_lat.reserve(kWorlds * ops_per_world);
  for (int w = 0; w < kWorlds; ++w) {
    res.ops += ops_per_world;
    // Independent service instances, each drawing its own inputs.
    const std::uint64_t world_seed =
        seed + static_cast<std::uint64_t>(w) * 0x632be59bd9b4e019ULL;
    try {
      drive_kvs(world_seed, w, spans, res, tot);
    } catch (const std::exception& e) {
      res.fail(std::string("kvs threw: ") + e.what(), ops_per_world);
      return;
    }
  }

  if (tot.torn > 0) res.fail("kvs: " + std::to_string(tot.torn) + " torn reads", tot.torn);
  if (tot.bad_version > 0) {
    res.fail("kvs: " + std::to_string(tot.bad_version) +
                 " keys whose version != 2 x acked puts",
             tot.bad_version);
  }
  if (tot.bad_counter > 0) {
    res.fail("kvs: " + std::to_string(tot.bad_counter) + " faa counters != acked deltas",
             tot.bad_counter);
  }

  auto& e = res.exact;
  const kvs::KvStats& t = tot.timed;
  e["kvs.cas_lost"] = static_cast<double>(t.cas_lost);
  e["kvs.version_retries"] = static_cast<double>(t.version_retries);
  e["kvs.probe_steps"] = static_cast<double>(t.probe_steps);
  const auto acked = static_cast<double>(res.ops);
  e["kvs.useful_ratio"] =
      acked / (acked + static_cast<double>(t.cas_lost + t.version_retries));
  const char* names[3] = {"get", "put", "faa"};
  for (int i = 0; i < 3; ++i) {
    const std::string base = std::string("kvs.virt_us.") + names[i];
    e[base + ".p50"] = pgasq::to_us(percentile(tot.lat[i], 0.50));
    e[base + ".p99"] = pgasq::to_us(percentile(tot.lat[i], 0.99));
  }
}

}  // namespace perfbench
