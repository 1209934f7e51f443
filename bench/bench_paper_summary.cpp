// Self-checking reproduction summary: runs fast probes of every
// headline claim and prints paper-vs-measured with a PASS/FAIL verdict
// per row. A one-binary regression gate for the whole reproduction
// (EXPERIMENTS.md holds the full tables).
#include <cmath>

#include "apps/counter_kernel.hpp"
#include "apps/scf.hpp"
#include "common.hpp"

using namespace pgasq;

namespace {

struct Check {
  std::string name;
  std::string paper;
  double measured;
  double lo, hi;  // acceptance band
  const char* unit;
};

std::vector<Check> g_checks;

void check(const std::string& name, const std::string& paper, double measured,
           double lo, double hi, const char* unit) {
  g_checks.push_back({name, paper, measured, lo, hi, unit});
}

void run_wire_probes() {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = 2;
  armci::World world(cfg);
  world.spmd([](armci::Comm& comm) {
    auto& mem = comm.malloc_collective(1 << 20);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(1 << 20));
    if (comm.rank() != 0) {
      comm.barrier();
      return;
    }
    comm.get(mem.at(1), buf, 16);
    comm.put(buf, mem.at(1), 16);
    comm.fence(1);
    // Fig 3: 16B latencies.
    Time t0 = comm.now();
    comm.get(mem.at(1), buf, 16);
    check("16B get latency", "2.89 us", to_us(comm.now() - t0), 2.80, 2.98, "us");
    t0 = comm.now();
    comm.put(buf, mem.at(1), 16);
    check("16B put latency", "2.7 us", to_us(comm.now() - t0), 2.60, 2.80, "us");
    comm.fence(1);
    // Fig 3: alignment dip at 256B.
    t0 = comm.now();
    comm.get(mem.at(1), buf, 128);
    const double l128 = to_us(comm.now() - t0);
    t0 = comm.now();
    comm.get(mem.at(1), buf, 256);
    const double l256 = to_us(comm.now() - t0);
    check("256B dip (get 128B - 256B)", "> 0 (aligned faster)", l128 - l256, 0.05,
          1.0, "us");
    // Fig 4: peak bandwidth.
    t0 = comm.now();
    {
      armci::Handle h;
      for (int i = 0; i < 32; ++i) comm.nb_put(buf, mem.at(1), 1 << 20, h);
      comm.wait(h);
    }
    check("peak put bandwidth", "1775 MB/s",
          32.0 * (1 << 20) / to_s(comm.now() - t0) / 1e6, 1750, 1800, "MB/s");
    comm.fence(1);
    // Fig 6: N1/2 at 2KB (>= 45% and < 60% of 1.8 GB/s).
    t0 = comm.now();
    {
      armci::Handle h;
      for (int i = 0; i < 32; ++i) comm.nb_put(buf, mem.at(1), 2048, h);
      comm.wait(h);
    }
    const double bw2k = 32.0 * 2048 / to_s(comm.now() - t0);
    check("efficiency at 2KB (N1/2)", "~50%", 100.0 * bw2k / 1.8e9, 45, 60, "%");
    comm.barrier();
  });
}

void run_hop_probe() {
  // Fig 7: per-hop increment on the 2048-proc partition.
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = 2048;
  cfg.machine.ranks_per_node = 16;
  armci::World world(cfg);
  const auto& torus = world.machine().torus();
  const auto& mapping = world.machine().mapping();
  double lat1 = 0.0;
  double lat7 = 0.0;
  int far_rank = -1;
  for (int r = 1; r < 2048; ++r) {
    if (torus.hop_distance(0, mapping.node_of_rank(r)) == torus.diameter()) {
      far_rank = r;
      break;
    }
  }
  world.spmd([&](armci::Comm& comm) {
    auto& mem = comm.malloc_collective(64);
    std::byte buf[16];
    if (comm.rank() == 0) {
      comm.get(mem.at(16), buf, 16);  // 1 hop warm
      Time t0 = comm.now();
      comm.get(mem.at(16), buf, 16);
      lat1 = to_us(comm.now() - t0);
      comm.get(mem.at(far_rank), buf, 16);
      t0 = comm.now();
      comm.get(mem.at(far_rank), buf, 16);
      lat7 = to_us(comm.now() - t0);
    }
    comm.barrier();
  });
  const int hop_delta = world.machine().torus().diameter() - 1;
  check("per-hop latency increment", "35 ns",
        (lat7 - lat1) * 1e3 / (2.0 * hop_delta), 30, 40, "ns");
}

void run_scf_probe() {
  // Fig 11 shape at a reduced size: AT beats D by 15-45%.
  apps::ScfConfig scf;
  scf.nbf = 322;  // half deck for speed
  scf.block = 7;
  scf.iterations = 1;
  double d_wall = 0.0;
  double at_wall = 0.0;
  double d_counter = 0.0;
  double at_counter = 0.0;
  for (const auto& mode : bench::default_and_async()) {
    armci::WorldConfig cfg;
    cfg.machine.num_ranks = 512;
    cfg.machine.ranks_per_node = 16;
    cfg.armci.progress = mode.progress;
    cfg.armci.contexts_per_rank = mode.contexts;
    armci::World world(cfg);
    const auto r = apps::run_scf(world, scf);
    if (mode.name == "D") {
      d_wall = to_ms(r.wall_time);
      d_counter = to_s(r.counter_time);
    } else {
      at_wall = to_ms(r.wall_time);
      at_counter = to_s(r.counter_time);
    }
  }
  check("SCF: AT execution-time reduction", "up to 30%",
        100.0 * (d_wall - at_wall) / d_wall, 15, 45, "%");
  check("SCF: counter-time collapse factor", "\"reduces sharply\"",
        d_counter / std::max(1e-9, at_counter), 4, 1e6, "x");
}

void run_counter_probe() {
  // Fig 9: D with rank 0 computing ~ compute-chunk scale; AT immune.
  apps::CounterKernelConfig kcfg;
  kcfg.ops_per_rank = 6;
  kcfg.home_computes = true;
  armci::WorldConfig d = apps::make_world_config(Config{}, 32, 16);
  armci::World dw(d);
  const double d_lat = apps::run_counter_kernel(dw, kcfg).avg_latency_us;
  armci::WorldConfig at = d;
  at.armci.progress = armci::ProgressMode::kAsyncThread;
  at.armci.contexts_per_rank = 2;
  armci::World atw(at);
  const double at_lat = apps::run_counter_kernel(atw, kcfg).avg_latency_us;
  check("fadd latency, rank0 computing, D", "~300 us (compute-bound)", d_lat, 250,
        400, "us");
  check("fadd latency, rank0 computing, AT", "~10 us scale", at_lat, 1, 30, "us");
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  apps::reject_swept(cli, {"progress", "contexts", "ranks"},
                     "the fixed per-claim configurations of bench_paper_summary");
  bench::print_banner("bench_paper_summary: every headline claim, self-checked",
                      "Figs 3,4,6,7,9,11 acceptance bands");
  run_wire_probes();
  run_hop_probe();
  run_counter_probe();
  run_scf_probe();

  Table table({"claim", "paper", "measured", "band", "verdict"});
  int failures = 0;
  for (const auto& c : g_checks) {
    const bool ok = c.measured >= c.lo && c.measured <= c.hi;
    failures += ok ? 0 : 1;
    char measured[64];
    std::snprintf(measured, sizeof measured, "%.2f %s", c.measured, c.unit);
    char band[64];
    std::snprintf(band, sizeof band, "[%.5g, %.5g]", c.lo, c.hi);
    table.row().add(c.name).add(c.paper).add(std::string(measured))
        .add(std::string(band)).add(std::string(ok ? "PASS" : "FAIL"));
  }
  table.print();
  std::printf("%d/%zu claims within band\n", static_cast<int>(g_checks.size()) - failures,
              g_checks.size());
  return failures == 0 ? 0 : 1;
}
