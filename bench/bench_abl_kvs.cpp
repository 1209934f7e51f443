// Ablation: sharded key-value service on the PGAS runtime — the
// latency-bound, many-small-messages serving workload the dense paper
// kernels never exercise. Three questions, one run:
//
//  1. Tail latency under skew: closed-loop clients draw keys zipfian
//     (YCSB theta ~ 0.99, hot keys pile onto few shards) vs uniform;
//     the table reports Mops/s and p50/p99/p999 per op from the
//     log-bucketed histograms in src/util/histogram.hpp.
//  2. Mix sensitivity: read-heavy vs write-heavy (get_ratio sweep) —
//     writes pay the CAS-version lock protocol, reads one slot fetch.
//  3. Fail-stop durability: with ft.* armed, a node dies mid-run; the
//     shards roll back to the newest buddy checkpoint, surviving
//     clients replay their acked op logs, and the audited
//     lost-acked-write count must be ZERO.
//
// Every section exports kvs.* metrics (labelled mix=/get_ratio=) into
// one accumulated registry that lands in the final pgasq.report JSON
// (--report.json_path), so a single artifact carries the whole sweep.
//
// Knobs: ranks (default 512), requests, keys, value_bytes, thetas,
// get_ratios, failstop (0 disables section 3), failstop_ranks,
// failstop_frac, plus every kvs.* knob (kvs.seed, kvs.faa_ratio, ...).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "kvs/kvs.hpp"
#include "util/table.hpp"

using namespace pgasq;

namespace {

std::vector<double> parse_list(const std::string& csv) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    out.push_back(std::strtod(csv.substr(pos, comma - pos).c_str(), nullptr));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

double q_us(const util::Histogram& h, double q) {
  return static_cast<double>(h.quantile(q)) / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner(
      "bench_abl_kvs: sharded KV service — zipfian tails + fail-stop durability",
      "PGAS serving-tier ablation (beyond the paper's dense kernels)");

  kvs::KvConfig base = kvs::KvConfig::from_config(cli);
  base.keys = cli.get_int("keys", 8192);
  base.requests = cli.get_int("requests", 32);
  base.value_bytes = cli.get_int("value_bytes", base.value_bytes);

  const int ranks = static_cast<int>(cli.get_int("ranks", 512));
  const std::vector<double> thetas =
      parse_list(cli.get_string("thetas", "0.99,0"));
  const std::vector<double> get_ratios =
      parse_list(cli.get_string("get_ratios", "0.95,0.5"));

  obs::Registry acc;
  std::unique_ptr<armci::World> last_world;

  std::printf("closed-loop mix sweep: %d ranks, %lld keys, %lld req/rank\n\n",
              ranks, static_cast<long long>(base.keys),
              static_cast<long long>(base.requests));
  Table table({"mix", "get%", "Mops/s", "get_p50us", "get_p99us", "get_p999us",
               "put_p50us", "put_p99us", "put_p999us", "cas_lost", "probe+"});
  for (const double theta : thetas) {
    for (const double gr : get_ratios) {
      kvs::KvConfig kc = base;
      kc.zipf_theta = theta;
      kc.get_ratio = gr;
      const std::string mix = theta > 0.0 ? "zipfian" : "uniform";
      armci::WorldConfig cfg = apps::make_world_config(cli, ranks);
      auto world = std::make_unique<armci::World>(cfg);
      const kvs::KvResult r = kvs::run_workload(*world, kc);
      table.row()
          .add(mix)
          .add(100.0 * gr, 0)
          .add(r.mops, 3)
          .add(q_us(r.total.get_lat, 0.5), 2)
          .add(q_us(r.total.get_lat, 0.99), 2)
          .add(q_us(r.total.get_lat, 0.999), 2)
          .add(q_us(r.total.put_lat, 0.5), 2)
          .add(q_us(r.total.put_lat, 0.99), 2)
          .add(q_us(r.total.put_lat, 0.999), 2)
          .add(static_cast<std::int64_t>(r.total.cas_lost))
          .add(static_cast<std::int64_t>(r.total.probe_steps));
      char grbuf[16];
      std::snprintf(grbuf, sizeof grbuf, "%.2f", gr);
      kvs::export_metrics(acc, r, {{"mix", mix}, {"get_ratio", grbuf}});
      last_world = std::move(world);
    }
  }
  table.print();

  // Section 3: fail-stop durability. A node dies mid-run while the
  // shards checkpoint to buddies every `checkpoint_every` requests;
  // the audit (kvs.verify) recounts every surviving client's acked
  // puts against the live table, and the faa counters must land on the
  // exactly-once expectation.
  if (cli.get_bool("failstop", true)) {
    const int fs_ranks = static_cast<int>(
        cli.get_int("failstop_ranks", std::min(ranks, 64)));
    const double frac = cli.get_double("failstop_frac", 0.55);
    kvs::KvConfig kc = base;
    kc.requests = cli.get_int("failstop_requests", 48);
    kc.checkpoint_every =
        cli.get_int("kvs.checkpoint_every", 0) > 0 ? kc.checkpoint_every : 12;
    kc.faa_ratio = kc.faa_ratio > 0.0 ? kc.faa_ratio : 0.1;
    kc.get_ratio = 0.5;
    // A closed-loop think time keeps the traffic window well past the
    // ~200 us liveness detection delay, so the declaration lands
    // mid-traffic (not in the teardown).
    if (kc.think_us <= 0.0) kc.think_us = 25.0;

    // Clean pass measures the traffic window so the death can be aimed
    // into it.
    Time death_at = 0;
    {
      armci::WorldConfig cfg = apps::make_world_config(cli, fs_ranks);
      cfg.machine.num_ranks = fs_ranks;  // --ranks only sizes the sweep
      armci::World world(cfg);
      const kvs::KvResult clean = kvs::run_workload(world, kc);
      death_at = clean.traffic_begin +
                 static_cast<Time>(frac * static_cast<double>(
                                              clean.traffic_end -
                                              clean.traffic_begin));
    }
    armci::WorldConfig cfg = apps::make_world_config(cli, fs_ranks);
    cfg.machine.num_ranks = fs_ranks;
    const int dead_node =
        static_cast<int>(cli.get_int("dead_node", fs_ranks / 2 - 1));
    cfg.machine.fault.node_fails.push_back({dead_node, death_at});
    auto world = std::make_unique<armci::World>(cfg);
    const kvs::KvResult r = kvs::run_workload(*world, kc);
    std::printf(
        "\nfail-stop: %d ranks, node %d dies at %.0f%% of clean run\n"
        "  survivors=%d recoveries=%d checkpoints=%llu replayed_ops=%llu\n"
        "  acked_ops=%llu lost_acked_writes=%llu torn_reads=%llu\n"
        "  faa expected=%llu applied=%llu (%s)\n",
        fs_ranks, dead_node, 100.0 * frac, r.survivors, r.recoveries,
        static_cast<unsigned long long>(r.checkpoints),
        static_cast<unsigned long long>(r.total.replayed_ops),
        static_cast<unsigned long long>(r.acked_ops),
        static_cast<unsigned long long>(r.lost_acked),
        static_cast<unsigned long long>(r.torn_reads),
        static_cast<unsigned long long>(r.faa_expected),
        static_cast<unsigned long long>(r.faa_applied),
        r.faa_expected == r.faa_applied ? "exactly-once OK" : "MISMATCH");
    kvs::export_metrics(acc, r, {{"mix", "failstop"}});
    if (r.lost_acked != 0 || r.faa_expected != r.faa_applied) {
      std::printf("DURABILITY FAILURE\n");
      return 1;
    }
    last_world = std::move(world);
  }

  // One report carries the whole sweep: fold the accumulated kvs.*
  // series into the last world's application metrics before emitting.
  last_world->app_metrics().merge_from(acc);
  apps::emit_observability(cli, *last_world);
  return 0;
}
