// Figure 7: 16 B get latency from rank 0 to every other rank on 2048
// processes (128 nodes, ABCDET mapping). Paper: pseudo-oscillatory
// curve from torus distance; min 2.89 us, max 3.38 us; the spread
// implies ~35 ns per hop.
#include <algorithm>

#include "common.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner(
      "bench_fig7_rank_latency: 16B get latency vs target rank (ABCDET mapping)",
      "Fig 7 — oscillatory with torus distance; 2.89..3.38us; ~35ns/hop");
  armci::WorldConfig cfg = apps::make_world_config(cli, /*ranks=*/2048,
                                                    /*ranks_per_node=*/16);
  const int iters = static_cast<int>(cli.get_int("iters", 3));
  const int stride = static_cast<int>(cli.get_int("rank_stride", 16));

  struct Row {
    int rank;
    int hops;
    double us;
  };
  std::vector<Row> rows;
  armci::World world(cfg);
  const auto& torus = world.machine().torus();
  const auto& mapping = world.machine().mapping();

  world.spmd([&](armci::Comm& comm) {
    auto& mem = comm.malloc_collective(256);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(256));
    if (comm.rank() == 0) {
      for (int target = 1; target < comm.nprocs(); target += stride) {
        comm.get(mem.at(target), buf, 16);  // warm endpoint
        Time total = 0;
        for (int i = 0; i < iters; ++i) {
          const Time t0 = comm.now();
          comm.get(mem.at(target), buf, 16);
          total += comm.now() - t0;
        }
        rows.push_back(Row{target,
                           torus.hop_distance(mapping.node_of_rank(0),
                                              mapping.node_of_rank(target)),
                           to_us(total) / iters});
      }
    }
    comm.barrier();
  });

  Table table({"target_rank", "hops", "get_us"});
  double lo = 1e30;
  double hi = 0.0;
  int max_hops = 0;
  int min_hops = 1 << 20;
  for (const auto& r : rows) {
    table.row().add(r.rank).add(r.hops).add(r.us, 3);
    lo = std::min(lo, r.us);
    hi = std::max(hi, r.us);
    max_hops = std::max(max_hops, r.hops);
    min_hops = std::min(min_hops, r.hops);
  }
  table.print();
  // The get round-trips, so each extra hop of distance costs two hop
  // latencies — the paper's 0.49us / (7 * 2) = 35 ns analysis.
  const int hop_delta = std::max(1, max_hops - min_hops);
  std::printf("min %.3f us, max %.3f us, spread %.3f us over %d..%d hops "
              "=> %.1f ns/hop one way\n",
              lo, hi, hi - lo, min_hops, max_hops,
              (hi - lo) * 1e3 / (2.0 * hop_delta));
  std::printf("torus: %s, diameter %d hops\n",
              world.machine().torus().to_string().c_str(),
              world.machine().torus().diameter());
  return 0;
}
