// Ablation (S III-D): communication contexts rho = 1 vs rho = 2 under
// the asynchronous-thread design. With one shared context the main
// thread's blocking RMA and the async thread's request servicing
// contend on the context lock: the async thread stalls behind the
// main thread's progress passes and vice versa. With rho = 2 each
// thread advances its own context independently at a space cost of
// one extra epsilon.
#include "common.hpp"
#include "ga/global_array.hpp"

using namespace pgasq;

namespace {

struct Outcome {
  double fadd_avg_us;        // clients' counter latency
  double get_avg_us;         // home main thread's own RMA latency
  double lock_wait_ms;       // time fibers waited on the context lock
  std::uint64_t contended;   // contended acquisitions
};

Outcome run(const Config& cli, int contexts) {
  armci::WorldConfig cfg = apps::make_world_config(cli, /*ranks=*/64);
  cfg.armci.progress = armci::ProgressMode::kAsyncThread;
  cfg.armci.contexts_per_rank = contexts;
  const int ops = static_cast<int>(cli.get_int("ops", 64));
  armci::World world(cfg);
  Outcome out{};
  double fadd_sum = 0.0;
  std::uint64_t fadds = 0;
  double get_sum = 0.0;
  std::uint64_t gets = 0;
  int finished = 0;
  world.spmd([&](armci::Comm& comm) {
    ga::SharedCounter counter(comm);
    auto& mem = comm.malloc_collective(4096);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(4096));
    comm.barrier();
    const int clients = comm.nprocs() - 1;
    if (comm.rank() == 0) {
      // Main thread busy with its own blocking one-sided traffic while
      // the async thread services the fetch-and-add storm.
      int target = 1;
      while (finished < clients) {
        const Time t0 = comm.now();
        comm.get(mem.at(target), buf, 512);
        get_sum += to_us(comm.now() - t0);
        ++gets;
        target = 1 + (target % clients);
      }
      out.lock_wait_ms = to_ms(comm.main_context().lock().total_wait_time());
      out.contended = comm.main_context().lock().contended_acquires();
    } else {
      for (int i = 0; i < ops; ++i) {
        const Time t0 = comm.now();
        counter.next();
        fadd_sum += to_us(comm.now() - t0);
        ++fadds;
      }
      ++finished;
    }
    comm.barrier();
  });
  out.fadd_avg_us = fadds ? fadd_sum / static_cast<double>(fadds) : 0.0;
  out.get_avg_us = gets ? get_sum / static_cast<double>(gets) : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  apps::reject_swept(cli, {"progress", "contexts"},
                     "the AT rho=1 vs rho=2 sweep of bench_abl_contexts");
  bench::print_banner("bench_abl_contexts: shared (rho=1) vs split (rho=2) contexts",
                      "S III-D — context-lock contention between main & async threads");
  Table table({"contexts(rho)", "fadd_avg_us", "home_get_us", "lock_wait_ms",
               "contended_acquires"});
  for (int rho : {1, 2}) {
    const auto o = run(cli, rho);
    table.row().add(rho).add(o.fadd_avg_us, 2).add(o.get_avg_us, 2)
        .add(o.lock_wait_ms, 3).add(o.contended);
  }
  table.print();
  std::printf("(63 ranks hammer a counter at rank 0 while rank 0's main thread\n"
              " streams blocking gets; rho=1 funnels both through one lock)\n");
  return 0;
}
