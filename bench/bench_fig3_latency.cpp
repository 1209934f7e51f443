// Figure 3: contiguous get/put latency between adjacent nodes,
// 16 B .. 8 KB. Paper headline numbers: get 2.89 us and put 2.7 us at
// 16 B; a latency drop at 256 B where transfers become torus-packet
// aligned.
#include <vector>

#include "common.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_fig3_latency: contiguous get/put latency (2 procs, adjacent nodes)",
                      "Fig 3 — get 2.89us / put 2.7us @16B, dip at 256B");
  armci::WorldConfig cfg = apps::make_world_config(cli, /*ranks=*/2);
  const int iters = static_cast<int>(cli.get_int("iters", 5));

  Table table({"bytes", "get_us", "put_us"});
  armci::World world(cfg);
  world.spmd([&](armci::Comm& comm) {
    auto& mem = comm.malloc_collective(16 << 10);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(16 << 10));
    if (comm.rank() == 0) {
      // Warm: endpoint creation and region exchange out of the way.
      comm.get(mem.at(1), buf, 16);
      comm.put(buf, mem.at(1), 16);
      comm.fence(1);
      for (std::size_t m : bench::size_sweep(16, 8 << 10)) {
        Time get_total = 0;
        Time put_total = 0;
        for (int i = 0; i < iters; ++i) {
          Time t0 = comm.now();
          comm.get(mem.at(1), buf, m);
          get_total += comm.now() - t0;
          t0 = comm.now();
          comm.put(buf, mem.at(1), m);
          put_total += comm.now() - t0;
          comm.fence(1);
        }
        table.row()
            .add(format_bytes(m))
            .add(to_us(get_total) / iters, 3)
            .add(to_us(put_total) / iters, 3);
      }
    }
    comm.barrier();
  });
  table.print();
  apps::emit_observability(cli, world);
  return 0;
}
