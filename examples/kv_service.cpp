// Minimal sharded key-value service on the ARMCI runtime — the
// serving-tier counterpart to the dense examples. Keys hash to a home
// rank; every rank runs both a shard (a slice of one collective
// allocation) and a closed-loop client drawing zipfian keys. Gets are
// one slot fetch, puts take the CAS-version lock, faa lands on the
// hardware AMO path. Pass a fault plan plus kvs.checkpoint_every to
// watch a mid-run node death recover with zero lost acked writes.
//
//   ./examples/kv_service [--ranks=32] [--kvs.keys=2048]
//                         [--kvs.zipf_theta=0.99] [--kvs.get_ratio=0.8]
//                         [--kvs.requests=64] [--kvs.checkpoint_every=16]
#include <cstdio>

#include "apps/cli.hpp"
#include "core/comm.hpp"
#include "kvs/kvs.hpp"
#include "util/config.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  const kvs::KvConfig kc = kvs::KvConfig::from_config(cli);
  armci::World world(apps::make_world_config(cli, /*ranks=*/32));

  const kvs::KvResult r = kvs::run_workload(world, kc);

  std::printf("kv_service: %d clients, %lld keys, theta=%.2f\n",
              r.survivors, static_cast<long long>(kc.keys), kc.zipf_theta);
  std::printf("  acked_ops=%llu (%llu get / %llu put / %llu faa)  %.3f Mops/s\n",
              static_cast<unsigned long long>(r.acked_ops),
              static_cast<unsigned long long>(r.total.gets),
              static_cast<unsigned long long>(r.total.puts),
              static_cast<unsigned long long>(r.total.faas), r.mops);
  std::printf("  get p50/p99 = %.2f/%.2f us   put p50/p99 = %.2f/%.2f us\n",
              static_cast<double>(r.total.get_lat.quantile(0.5)) / 1e3,
              static_cast<double>(r.total.get_lat.quantile(0.99)) / 1e3,
              static_cast<double>(r.total.put_lat.quantile(0.5)) / 1e3,
              static_cast<double>(r.total.put_lat.quantile(0.99)) / 1e3);
  std::printf("  cas_lost=%llu  version_retries=%llu  torn_reads=%llu\n",
              static_cast<unsigned long long>(r.total.cas_lost),
              static_cast<unsigned long long>(r.total.version_retries),
              static_cast<unsigned long long>(r.total.torn_reads));
  if (r.recoveries > 0) {
    std::printf(
        "  fail-stop: recoveries=%d replayed_ops=%llu lost_acked_writes=%llu\n",
        r.recoveries, static_cast<unsigned long long>(r.total.replayed_ops),
        static_cast<unsigned long long>(r.lost_acked));
  }
  apps::emit_observability(cli, world);
  return r.lost_acked == 0 && r.torn_reads == 0 ? 0 : 1;
}
