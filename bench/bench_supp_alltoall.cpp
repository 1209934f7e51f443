// Supplementary: all-to-all personalized exchange (matrix-transpose
// communication) — the densest traffic pattern a torus carries.
// Under LogGP every message is independent; under the link-contention
// model the bisection is shared, so the gap between the two models
// bounds how contention-sensitive the Fig 4-style numbers are.
//
// Two schedules per (model, ranks): the naive rotated nb_put loop, and
// the coll engine's hop-ordered torus schedule (nearest neighbours
// first), which trades bisection pressure for locality.
#include "coll/coll.hpp"
#include "common.hpp"

using namespace pgasq;

namespace {

/// When `heatmap_out` is non-null the run records per-link counters
/// (pure observation — timings are unchanged) and leaves the rendered
/// heatmap there.
double run_alltoall(const Config& cli, const std::string& net, int ranks,
                    std::size_t bytes, std::string* heatmap_out = nullptr) {
  armci::WorldConfig cfg = apps::make_world_config(cli, ranks,
                                                    /*ranks_per_node=*/1);
  cfg.machine.num_ranks = ranks;
  cfg.machine.network_model = net;
  if (heatmap_out != nullptr) cfg.machine.obs.links = true;
  armci::World world(cfg);
  Time t0 = 0, t1 = 0;
  world.spmd([&](armci::Comm& comm) {
    const int p = comm.nprocs();
    auto& mem = comm.malloc_collective(bytes * static_cast<std::size_t>(p));
    auto* src = static_cast<std::byte*>(comm.malloc_local(bytes));
    comm.barrier();
    if (comm.rank() == 0) t0 = comm.now();
    armci::Handle h;
    for (int off = 1; off < p; ++off) {
      const int target = (comm.rank() + off) % p;  // rotated schedule
      comm.nb_put(src, mem.at(target, bytes * static_cast<std::size_t>(comm.rank())),
                  bytes, h);
    }
    comm.wait(h);
    comm.fence_all();
    comm.barrier();
    if (comm.rank() == 0) t1 = comm.now();
  });
  if (heatmap_out != nullptr) {
    *heatmap_out = world.machine().link_usage()->heatmap(
        1.0 / cfg.machine.params.g_ns_per_byte, cfg.machine.obs.link_top);
  }
  return to_ms(t1 - t0);
}

double run_engine_alltoall(const Config& cli, const std::string& net, int ranks,
                           std::size_t bytes, std::string* heatmap_out = nullptr) {
  armci::WorldConfig cfg = apps::make_world_config(cli, ranks,
                                                    /*ranks_per_node=*/1);
  cfg.machine.num_ranks = ranks;
  cfg.machine.network_model = net;
  cfg.armci.coll.emplace_back("algo.alltoall", "torus-ring");
  if (heatmap_out != nullptr) cfg.machine.obs.links = true;
  armci::World world(cfg);
  Time t0 = 0, t1 = 0;
  world.spmd([&](armci::Comm& comm) {
    const int p = comm.nprocs();
    auto& engine = coll::CollEngine::of(comm);
    std::vector<std::byte> in(bytes * static_cast<std::size_t>(p));
    std::vector<std::byte> out(in.size());
    // Warm-up: sizes the scratch arena outside the timed region, the
    // same way the manual schedule's malloc_collective is untimed.
    engine.alltoall(in.data(), bytes, out.data());
    engine.barrier();
    if (comm.rank() == 0) t0 = comm.now();
    engine.alltoall(in.data(), bytes, out.data());
    engine.barrier();
    if (comm.rank() == 0) t1 = comm.now();
  });
  if (heatmap_out != nullptr) {
    *heatmap_out = world.machine().link_usage()->heatmap(
        1.0 / cfg.machine.params.g_ns_per_byte, cfg.machine.obs.link_top);
  }
  return to_ms(t1 - t0);
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  apps::reject_swept(cli, {"ranks"}, "the 16..128-rank sweep of bench_supp_alltoall");
  bench::print_banner("bench_supp_alltoall: all-to-all exchange, LogGP vs contention",
                      "transpose-pattern stress; bisection sensitivity bound");
  const std::size_t bytes = static_cast<std::size_t>(cli.get_int("bytes", 16384));
  Table table({"ranks", "loggp_ms", "contention_ms", "slowdown", "engine_ms",
               "engine_gain"});
  for (int p : {16, 32, 64, 128}) {
    const double ideal = run_alltoall(cli, "loggp", p, bytes);
    const double real = run_alltoall(cli, "contention", p, bytes);
    const double engine = run_engine_alltoall(cli, "contention", p, bytes);
    table.row().add(p).add(ideal, 2).add(real, 2).add(real / ideal, 2)
        .add(engine, 2).add(real / engine, 2);
  }
  table.print();
  std::printf("(%s per pair; the slowdown column is the bisection-contention\n"
              " factor LogGP cannot see; engine_* = coll torus schedule, hop-\n"
              " ordered nearest-first, under the contention model)\n",
              format_bytes(bytes).c_str());

  // Per-link heatmaps for the two schedules at one size, side by side:
  // the naive rotated loop piles onto the bisection links while the
  // torus schedule spreads load over nearest-neighbour hops.
  const int hm_ranks = static_cast<int>(cli.get_int("heatmap_ranks", 32));
  if (hm_ranks > 0) {
    std::string naive, engine;
    run_alltoall(cli, "contention", hm_ranks, bytes, &naive);
    run_engine_alltoall(cli, "contention", hm_ranks, bytes, &engine);
    std::printf("\n--- naive rotated schedule, %d ranks, contention model ---\n%s",
                hm_ranks, naive.c_str());
    std::printf("\n--- coll torus schedule, %d ranks, contention model ---\n%s",
                hm_ranks, engine.c_str());
  }
  return 0;
}
