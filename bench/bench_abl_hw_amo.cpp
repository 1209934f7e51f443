// Ablation (S IV-B3 discussion): what if BG/Q's NIC had hardware
// fetch-and-add (Cray Gemini / InfiniBand style)? The paper observes
// AT latency still grows linearly with p because every AMO funnels
// through one core's progress engine; a NIC AMO unit keeps latency
// nearly flat. This bench flips BgqParameters::hardware_amo.
#include "apps/counter_kernel.hpp"
#include "common.hpp"

using namespace pgasq;

namespace {

double run(const Config& cli, int p, bool hardware) {
  armci::WorldConfig cfg =
      apps::make_world_config(cli, p, /*ranks_per_node=*/p >= 16 ? 16 : 1);
  cfg.machine.num_ranks = p;
  cfg.armci.progress = armci::ProgressMode::kAsyncThread;
  cfg.armci.contexts_per_rank = 2;
  cfg.machine.params.hardware_amo = hardware;
  armci::World world(cfg);
  apps::CounterKernelConfig kcfg;
  kcfg.ops_per_rank = static_cast<int>(cli.get_int("ops", 8));
  return apps::run_counter_kernel(world, kcfg).avg_latency_us;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  apps::reject_swept(cli, {"progress", "contexts", "ranks"},
                     "the software vs NIC AMO x process-count sweep of bench_abl_hw_amo");
  bench::print_banner("bench_abl_hw_amo: software-serviced vs NIC fetch-and-add",
                      "S IV-B3 — 'hardware assisted fetch-and-add can help'");
  Table table({"procs", "software_AT_us", "nic_amo_us"});
  const int max_ranks = static_cast<int>(cli.get_int("max_ranks", 4096));
  for (int p = 2; p <= max_ranks; p *= 4) {
    table.row().add(p).add(run(cli, p, false), 2).add(run(cli, p, true), 2);
  }
  table.print();
  std::printf("(software AMO latency grows ~linearly with p; the emulated NIC\n"
              " AMO stays near-flat — the paper's case for future hardware)\n");
  return 0;
}
