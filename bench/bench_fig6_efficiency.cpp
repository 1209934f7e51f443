// Figure 6: bandwidth efficiency — ratio of achieved put bandwidth to
// the 1.8 GB/s attainable peak. Paper: N_1/2 (half of peak) at ~2 KB;
// >= 90% beyond 16 KB.
#include "common.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_fig6_efficiency: bandwidth efficiency vs message size",
                      "Fig 6 — N_1/2 ~2KB, >=90% beyond 16KB");
  armci::WorldConfig cfg = apps::make_world_config(cli, /*ranks=*/2);
  const int window = static_cast<int>(cli.get_int("window", 32));
  const double peak = cfg.machine.params.peak_bandwidth_bytes_per_s;

  Table table({"bytes", "put_MB/s", "efficiency_%"});
  std::size_t n_half = 0;
  armci::World world(cfg);
  world.spmd([&](armci::Comm& comm) {
    auto& mem = comm.malloc_collective(1 << 20);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(1 << 20));
    if (comm.rank() == 0) {
      comm.get(mem.at(1), buf, 16);
      comm.fence(1);
      for (std::size_t m : bench::size_sweep()) {
        const Time t0 = comm.now();
        armci::Handle h;
        for (int i = 0; i < window; ++i) comm.nb_put(buf, mem.at(1), m, h);
        comm.wait(h);
        comm.fence(1);
        const double bw = static_cast<double>(window) * static_cast<double>(m) /
                          to_s(comm.now() - t0);
        const double eff = 100.0 * bw / peak;
        if (n_half == 0 && eff >= 50.0) n_half = m;
        table.row().add(format_bytes(m)).add(bw / 1e6, 1).add(eff, 1);
      }
    }
    comm.barrier();
  });
  table.print();
  std::printf("N_1/2 (first size at >=50%% of 1.8 GB/s peak): %s\n",
              format_bytes(n_half).c_str());
  return 0;
}
