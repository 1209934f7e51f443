// Ablation: overload control and graceful degradation (src/flow).
//
// An open-loop KVS client (seeded Poisson arrivals, kvs.arrival_rate)
// offers load independent of completions — the regime where a service
// either degrades gracefully or collapses. Three experiments:
//
//  1. Latency vs offered load: calibrate the closed-loop saturation
//     rate, then sweep 0.2x..3x with the flow controls off and on
//     (credits + deadlines + AIMD admission + retry budgets). Off, the
//     backlog grows without bound past 1x and goodput (ops finished
//     within the SLO of their *arrival*) collapses; on, shed load
//     keeps the goodput curve flat at the plateau.
//  2. Hedged gets: on a 3-node ring with rotating transient link
//     brownouts (outbound capacity collapses 50x for 40us bursts),
//     kvs.hedge_us arms a backup read of the buddy's checkpoint copy
//     after a tail-latency delay; the first reply wins (a same-home
//     re-read could never win — pairwise in-order delivery queues it
//     behind the stuck reply it is dodging). Hedging cuts get p99;
//     p90 and p999 honestly pay for it — the rescued clients keep
//     issuing reads into the browned NIC (no cancellation), so the
//     extra load deepens the rare worst case. Transient badness is
//     the only regime where hedging can win at all here: under a
//     SUSTAINED slow node every primary still books the slow NIC and
//     rescues just pile the backlog higher.
//  3. Metastability soak: at 1.5x with a mid-run service stall, the
//     post-stall backlog seeds a retry storm. Uncontrolled, goodput
//     never recovers (every op waits behind the standing queue);
//     controlled, admission sheds the burst and goodput returns to the
//     pre-stall plateau.
//
// Every section exports kvs.* metrics labelled {arm=, load=} plus
// overload.* summary gauges into the pgasq.report JSON
// (--report.json_path) — tools/check.sh's overload_gate asserts the
// plateau and the recovery there.
//
// Knobs: ranks (8), requests (192), keys, deadline_us (0 = auto from
// the calibrated closed-loop p99), credits, factors, hedge (0/1),
// soak (0/1), plus every kvs.* / flow.* / fault.* knob.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "fault/fault.hpp"
#include "topo/torus.hpp"
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

/// Good completions per second inside [begin, end) of virtual time.
double window_goodput(const std::vector<Time>& good_times, Time begin,
                      Time end) {
  if (end <= begin) return 0.0;
  const auto lo = std::lower_bound(good_times.begin(), good_times.end(), begin);
  const auto hi = std::lower_bound(good_times.begin(), good_times.end(), end);
  return static_cast<double>(hi - lo) / to_s(end - begin);
}

struct ArmSpec {
  const char* name;
  bool flow_on;
};

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner(
      "bench_abl_overload: open-loop KVS under overload — backpressure, "
      "deadlines, shedding",
      "robustness ablation (beyond the paper's closed-loop kernels)");

  kvs::KvConfig base = kvs::KvConfig::from_config(cli);
  base.keys = cli.get_int("keys", 512);
  base.requests = cli.get_int("requests", 192);
  base.get_ratio = cli.has("kvs.get_ratio") ? base.get_ratio : 0.9;
  base.zipf_theta = cli.has("kvs.zipf_theta") ? base.zipf_theta : 0.6;
  base.verify = false;  // audits re-read every key; off the overload path

  const int ranks = static_cast<int>(cli.get_int("ranks", 8));
  const int credits = static_cast<int>(cli.get_int("credits", 8));
  const std::vector<double> factors =
      parse_list(cli.get_string("factors", "0.2,0.5,1.0,1.5,2.0,3.0"));

  obs::Registry acc;
  std::unique_ptr<armci::World> last_world;

  // --- Calibration: closed-loop saturation rate -------------------------
  double sat_rate = 0.0;  // per-rank ops/s at closed-loop saturation
  double p50_get_us = 0.0, p99_get_us = 0.0;
  {
    kvs::KvConfig kc = base;
    kc.think_us = 0.0;
    armci::WorldConfig cfg = apps::make_world_config(cli, ranks);
    cfg.machine.flow = flow::FlowConfig{};  // calibration is always clean
    armci::World world(cfg);
    const kvs::KvResult r = kvs::run_workload(world, kc);
    sat_rate = r.mops * 1e6 / ranks;
    p50_get_us = q_us(r.total.get_lat, 0.5);
    p99_get_us = q_us(r.total.get_lat, 0.99);
  }
  double deadline_us = cli.get_double("deadline_us", 0.0);
  if (deadline_us <= 0.0) {
    deadline_us = std::max(50.0, 6.0 * p99_get_us);
  }
  std::printf(
      "calibration: %d ranks, sat=%.0f ops/s/rank, get p50=%.1fus "
      "p99=%.1fus, deadline/SLO=%.0fus\n\n",
      ranks, sat_rate, p50_get_us, p99_get_us, deadline_us);
  acc.set_gauge("overload.sat_rate_per_rank", sat_rate);
  acc.set_gauge("overload.deadline_us", deadline_us);

  // The controlled arm: every defense at once (that is the product
  // configuration; test_flow isolates them).
  flow::FlowConfig flow_on;
  flow_on.configured = true;
  flow_on.credits = credits;
  flow_on.deadline_us = deadline_us;
  flow_on.admit = true;
  flow_on.low_prio_frac = cli.get_double("low_prio_frac", 0.2);
  flow_on.retry_budget = static_cast<int>(cli.get_int("retry_budget", 12));
  flow_on.seed = static_cast<std::uint64_t>(cli.get_int("flow_seed", 7));

  auto run_arm = [&](const kvs::KvConfig& kc, bool on)
      -> std::pair<kvs::KvResult, std::unique_ptr<armci::World>> {
    armci::WorldConfig cfg = apps::make_world_config(cli, ranks);
    cfg.machine.flow = on ? flow_on : flow::FlowConfig{};
    auto world = std::make_unique<armci::World>(cfg);
    kvs::KvResult r = kvs::run_workload(*world, kc);
    return {std::move(r), std::move(world)};
  };

  // --- Sweep: goodput vs offered load, off vs on ------------------------
  const ArmSpec arms[] = {{"off", false}, {"on", true}};
  Table table({"load", "arm", "offered", "acked", "good", "goodput_Mops",
               "lat_p50us", "lat_p99us", "shed", "expired", "dlerr"});
  // With obs.timeline on, the top-factor uncontrolled world is kept
  // alive so its queue-depth runaway can be printed next to the
  // controlled arm's credit-window plateau.
  std::unique_ptr<armci::World> off_world;
  for (const double f : factors) {
    for (const ArmSpec& arm : arms) {
      kvs::KvConfig kc = base;
      kc.arrival_rate = f * sat_rate;
      kc.slo_us = deadline_us;  // goodput SLO measured in BOTH arms
      auto [r, world] = run_arm(kc, arm.flow_on);
      table.row()
          .add(f, 1)
          .add(arm.name)
          .add(static_cast<std::int64_t>(r.offered_ops))
          .add(static_cast<std::int64_t>(r.acked_ops))
          .add(static_cast<std::int64_t>(r.good_ops))
          .add(r.goodput_mops, 4)
          .add(q_us(r.total.get_lat, 0.5), 1)
          .add(q_us(r.total.get_lat, 0.99), 1)
          .add(static_cast<std::int64_t>(r.total.shed_ops))
          .add(static_cast<std::int64_t>(r.total.expired_ops +
                                         r.total.deadline_errors))
          .add(static_cast<std::int64_t>(r.total.deadline_errors));
      char load[16];
      std::snprintf(load, sizeof load, "%.1f", f);
      kvs::export_metrics(acc, r, {{"arm", arm.name}, {"load", load}});
      if (!arm.flow_on && f == factors.back() &&
          world->machine().timeline() != nullptr) {
        off_world = std::move(world);
      } else {
        last_world = std::move(world);
      }
    }
  }
  table.print();

  // Tentpole proof (obs.timeline): side by side at the top load
  // factor, the uncontrolled arm's pending-op depth runs away while
  // the controlled arm's credit-window occupancy plateaus at the
  // configured window.
  if (off_world != nullptr && last_world->machine().timeline() != nullptr) {
    const int top = last_world->machine().config().obs.timeline_top;
    const obs::Timeline& off_tl = *off_world->machine().timeline();
    const obs::Timeline& on_tl = *last_world->machine().timeline();
    std::printf("\ntimeline @ %.1fx load, arm=off (uncontrolled):\n",
                factors.back());
    std::fputs(off_tl.render(top).c_str(), stdout);
    std::printf("timeline @ %.1fx load, arm=on (controlled, %d credits):\n",
                factors.back(), credits);
    std::fputs(on_tl.render(top).c_str(), stdout);
    std::printf(
        "queue runaway vs plateau: off kvs.client_backlog peak=%.0f, "
        "on kvs.client_backlog peak=%.0f, on flow.window_occupancy "
        "peak=%.0f (window=%d)\n",
        off_tl.gauge_peak("kvs.client_backlog"),
        on_tl.gauge_peak("kvs.client_backlog"),
        on_tl.gauge_peak("flow.window_occupancy"), credits);
    off_world.reset();
  }

  // --- Hedged gets past transient link brownouts ------------------------
  if (cli.get_bool("hedge", true)) {
    // Transient outbound brownouts rotate around the machine: for a
    // short window one node's OUTGOING links drop to a few percent of
    // nominal bandwidth (a flapping optical module), so replies it
    // serves crawl while requests INTO it still land cleanly. That is
    // the regime hedging is for — short glitches, not a permanently
    // saturated replica: every hedge's primary still occupies the slow
    // NIC, so under a sustained shortfall rescues only pile the
    // backlog higher (the straggler pool then throttles via
    // hedge_skips). A same-home re-read could never dodge the glitch —
    // pairwise in-order delivery queues it behind the stuck reply — so
    // the hedge races the home's checkpoint copy on its BUDDY node.
    // The copies exist because a never-firing far-future node_fail
    // brings up the health monitor, and kvs.prefill commits one
    // checkpoint of the fully populated table before the timed loop
    // (no mid-run checkpoints: a multi-KB shard ship caught in a
    // brownout would monopolize the sender NIC for milliseconds).
    const double cap = cli.get_double("brown_capacity", 0.02);
    // 40us bursts every 200us: the post-burst NIC drain (in-burst
    // claims keep their inflated serialization) must finish inside one
    // period, or the next burst's victims hedge into a buddy that is
    // still draining and the rescue leg is slow too.
    const double burst_us = cli.get_double("brown_us", 40.0);
    const double period_us = cli.get_double("brown_period_us", 200.0);
    // All-pairs-adjacent ring: on a multi-hop partition a brownout
    // also inflates replies of HEALTHY homes routed through the
    // browned node (cut-through charges the whole path's worst link
    // on the sender's NIC), a tail no client-side hedge can touch.
    // One hop between every pair isolates the endpoint effect the
    // hedge is designed for.
    const int hranks = static_cast<int>(cli.get_int("hedge_ranks", 3));
    std::printf(
        "\nhedged gets: closed loop, %d-node ring, rotating %.0fus "
        "outbound brownouts (%.0f%% capacity) every %.0fus, buddy "
        "checkpoint copies\n",
        hranks, burst_us, 100.0 * cap, period_us);
    Table ht({"hedge_us", "get_p90us", "get_p99us", "get_p999us", "hedged",
              "wins", "stale", "skips"});
    // Delay ABOVE the calibrated healthy p99 (only genuinely stuck
    // reads pay for a backup request — the classic hedging load
    // caveat) and far BELOW a browned-out reply's 50x serialization.
    for (const double hedge : {0.0, std::max(2.0 * p99_get_us, 12.0)}) {
      // Closed loop: latency is pure service time, so the comparison
      // isolates the degraded-path tail the hedge dodges (checkpoint
      // barrier skew would otherwise dominate an open-loop p99).
      kvs::KvConfig kc = base;
      kc.think_us = 0.0;
      kc.hedge_us = hedge;
      // Prefill + one pre-loop checkpoint: a cold miss reads an empty
      // slot, which a buddy copy can never validate — read-mostly
      // hedging only makes sense against a populated, checkpointed
      // table. KB-scale values make a browned-out reply's inflated
      // serialization dwarf the healthy path.
      kc.prefill = true;
      // Read-only loop: a browned-out client's own 2KB put payloads
      // would book 50x serialization on its OWN NIC and delay its
      // subsequent get REQUESTS — a sender-side tail no read hedge
      // can touch. Hedging is a read-side defense; measure it as one.
      if (!cli.has("kvs.get_ratio")) kc.get_ratio = 1.0;
      if (!cli.has("kvs.keys")) kc.keys = 512;
      if (!cli.has("kvs.value_bytes")) kc.value_bytes = 2048;
      if (!cli.has("kvs.slots_per_rank")) kc.slots_per_rank = 256;
      if (!cli.has("kvs.requests")) kc.requests = 4096;
      if (!cli.has("kvs.checkpoint_every")) kc.checkpoint_every = kc.requests;
      armci::WorldConfig cfg = apps::make_world_config(cli, hranks);
      cfg.machine.flow = flow::FlowConfig{};
      if (cfg.machine.fault.link_faults.empty()) {
        const int nodes = hranks / cfg.machine.ranks_per_node;
        const topo::Coord5 dims =
            cfg.machine.dims.has_value()    ? *cfg.machine.dims
            : topo::has_bgq_partition(nodes) ? topo::bgq_partition_dims(nodes)
                                             : topo::balanced_dims(nodes);
        // Brownouts start only after a settle window so prefill and
        // the pre-loop checkpoint ship full-size shards over healthy
        // links, then rotate node by node past the end of the run.
        const double settle_us = cli.get_double("brown_settle_us", 4000.0);
        const int bursts = static_cast<int>(cli.get_int("brown_bursts", 512));
        for (int k = 0; k < bursts; ++k) {
          // Rotate BACKWARD (n, n-1, ...): a browned node's NIC keeps
          // draining inflated claims after its window closes, and
          // forward rotation would brown its buddy — the hedge's
          // escape hatch — during exactly that drain.
          const int node = (nodes - (k % std::max(1, nodes))) % std::max(1, nodes);
          const Time b = from_us(settle_us + k * period_us);
          const Time e = b + from_us(burst_us);
          for (int dim = 0; dim < 5; ++dim) {
            if (dims[static_cast<std::size_t>(dim)] <= 1) continue;
            // dir +1/-1: only the node's outgoing halves brown out, so
            // traffic INTO it (and everyone else's NICs) stays clean.
            cfg.machine.fault.link_faults.push_back(
                fault::LinkFaultSpec{node, dim, +1, cap, b, e});
            cfg.machine.fault.link_faults.push_back(
                fault::LinkFaultSpec{node, dim, -1, cap, b, e});
          }
        }
      }
      if (cfg.machine.fault.node_fails.empty()) {
        cfg.machine.fault.node_fails.push_back(
            fault::NodeFailSpec{0, from_us(1e9)});
        // Detection is not under test here: slow heartbeats keep the
        // monitor's background traffic negligible and a false-positive
        // death of a browned-out node out of reach.
        cfg.machine.ft.heartbeat_period = from_us(500.0);
        cfg.machine.ft.heartbeat_timeout = from_us(50000.0);
      }
      auto world = std::make_unique<armci::World>(cfg);
      const kvs::KvResult r = kvs::run_workload(*world, kc);
      if (cli.get_bool("hedge_debug", false)) {
        for (int c = 0; c < hranks; ++c) {
          const kvs::KvStats& s = r.per_rank[static_cast<std::size_t>(c)];
          std::printf(
              "  rank %d: gets p50=%.1f p90=%.1f p99=%.1f max=%.1f "
              "hedged=%llu wins=%llu skips=%llu\n",
              c, q_us(s.get_lat, 0.5), q_us(s.get_lat, 0.9),
              q_us(s.get_lat, 0.99), q_us(s.get_lat, 1.0),
              static_cast<unsigned long long>(s.hedged_gets),
              static_cast<unsigned long long>(s.hedge_wins),
              static_cast<unsigned long long>(s.hedge_skips));
        }
      }
      ht.row()
          .add(hedge, 1)
          .add(q_us(r.total.get_lat, 0.9), 1)
          .add(q_us(r.total.get_lat, 0.99), 1)
          .add(q_us(r.total.get_lat, 0.999), 1)
          .add(static_cast<std::int64_t>(r.total.hedged_gets))
          .add(static_cast<std::int64_t>(r.total.hedge_wins))
          .add(static_cast<std::int64_t>(r.total.hedge_stale))
          .add(static_cast<std::int64_t>(r.total.hedge_skips));
      kvs::export_metrics(
          acc, r, {{"arm", hedge > 0.0 ? "hedged" : "unhedged"}});
      // Tentpole proof (obs.critpath): on the unhedged arm the
      // bottleneck tables pin the brownout p99 inflation on the
      // faulted links' wire/inject-wait segments.
      if (hedge <= 0.0) {
        if (const obs::CritPath* cp = world->machine().critpath()) {
          std::printf("\nbrownout critical path, arm=unhedged:\n");
          std::fputs(cp->render().c_str(), stdout);
          std::printf(
              "degraded-link share of wire+inject-wait time: %.0f%% "
              "(%.0fus of %.0fus)\n",
              100.0 * cp->degraded_share(), to_us(cp->degraded_wire_wait()),
              to_us(cp->wire_wait_total()));
        }
      }
      last_world = std::move(world);
    }
    ht.print();
  }

  // --- Metastability soak ------------------------------------------------
  // 1.5x load; the clients freeze for a stall window while arrivals
  // keep accruing. Goodput is compared over equal-length windows
  // before the stall and after a settle period.
  if (cli.get_bool("soak", true)) {
    const double soak_factor = cli.get_double("soak_factor", 1.5);
    kvs::KvConfig kc = base;
    kc.requests = cli.get_int("soak_requests", 3 * base.requests);
    kc.arrival_rate = soak_factor * sat_rate;
    kc.slo_us = deadline_us;
    const double span_us =
        static_cast<double>(kc.requests) / kc.arrival_rate * 1e6;
    kc.stall_at_us = 0.35 * span_us;
    kc.stall_us = cli.get_double("stall_us", 0.12 * span_us);
    std::printf(
        "\nmetastability soak: %.1fx load, stall [%.0f, %.0f]us of ~%.0fus "
        "arrival span\n",
        soak_factor, kc.stall_at_us, kc.stall_at_us + kc.stall_us, span_us);
    Table mt({"arm", "pre_goodput/s", "post_goodput/s", "recovered%", "shed",
              "expired"});
    for (const ArmSpec& arm : arms) {
      auto [r, world] = run_arm(kc, arm.flow_on);
      const Time stall_begin = r.traffic_begin + from_us(kc.stall_at_us);
      const Time stall_end = stall_begin + from_us(kc.stall_us);
      const Time settle = from_us(0.25 * kc.stall_us);
      const Time pre_len = stall_begin - r.traffic_begin;
      const double pre =
          window_goodput(r.good_times, r.traffic_begin, stall_begin);
      const double post = window_goodput(r.good_times, stall_end + settle,
                                         stall_end + settle + pre_len);
      mt.row()
          .add(arm.name)
          .add(pre, 0)
          .add(post, 0)
          .add(pre > 0.0 ? 100.0 * post / pre : 0.0, 1)
          .add(static_cast<std::int64_t>(r.total.shed_ops))
          .add(static_cast<std::int64_t>(r.total.expired_ops +
                                         r.total.deadline_errors));
      acc.set_gauge("overload.soak_pre_goodput", pre, {{"arm", arm.name}});
      acc.set_gauge("overload.soak_post_goodput", post, {{"arm", arm.name}});
      kvs::export_metrics(acc, r, {{"arm", arm.name}, {"load", "soak"}});
      last_world = std::move(world);
    }
    mt.print();
  }

  // One report carries the whole sweep; the last world ran with flow
  // on, so the flow.* controller metrics land in the same document.
  last_world->app_metrics().merge_from(acc);
  apps::emit_observability(cli, *last_world);
  return 0;
}
