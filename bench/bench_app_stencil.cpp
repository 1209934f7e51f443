// Supplementary experiment: the subsurface-transport stencil proxy
// (STOMP-style, S II-B) under Default vs Async-Thread progress. Halo
// exchange is RDMA gets — truly one-sided — so unlike the SCF/counter
// workloads the async thread buys essentially nothing here. This is
// the negative control for the paper's Fig 9/11 claim: AT accelerates
// AM-serviced operations (AMOs, accumulates, fall-backs), not RDMA.
#include "apps/stencil.hpp"
#include "common.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  apps::reject_swept(cli, {"progress", "contexts", "ranks"},
                     "the D/AT x process-count sweep of bench_app_stencil");
  bench::print_banner("bench_app_stencil: RDMA-dominated stencil, D vs AT",
                      "negative control for S III-D (AT helps AMOs, not RDMA)");
  apps::StencilConfig scfg;
  scfg.tile = cli.get_int("tile", 64);
  scfg.iterations = static_cast<int>(cli.get_int("iterations", 10));

  Table table({"procs", "mode", "wall_ms", "residual"});
  for (int p : {16, 64, 256}) {
    double d_wall = 0.0;
    for (const auto& mode : bench::default_and_async()) {
      armci::WorldConfig cfg =
          apps::make_world_config(cli, p, /*ranks_per_node=*/p >= 16 ? 16 : 1);
      cfg.machine.num_ranks = p;
      cfg.armci.progress = mode.progress;
      cfg.armci.contexts_per_rank = mode.contexts;
      armci::World world(cfg);
      const auto r = apps::run_stencil(world, scfg);
      table.row().add(p).add(mode.name).add(to_ms(r.wall_time), 3).add(r.residual, 4);
      if (mode.name == "D") {
        d_wall = to_ms(r.wall_time);
      } else {
        std::printf("p=%4d: AT changes wall time by %+.1f%% (expected ~0)\n", p,
                    100.0 * (to_ms(r.wall_time) - d_wall) / d_wall);
      }
    }
  }
  std::printf("\n");
  table.print();
  return 0;
}
