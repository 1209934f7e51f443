// Quickstart: the smallest complete pgasq program.
//
// Builds a simulated 8-rank Blue Gene/Q partition, allocates a global
// memory segment, and shows the four core ARMCI idioms: one-sided
// put/get, non-blocking transfer with a handle, accumulate + fence,
// and the fetch-and-add load-balance counter.
//
//   ./examples/quickstart [--ranks=8] [--progress=async]
#include <cstdio>
#include <vector>

#include "apps/cli.hpp"
#include "core/comm.hpp"
#include "util/config.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  armci::World world(apps::make_world_config(cli, /*ranks=*/8));
  world.spmd([](armci::Comm& comm) {
    const int me = comm.rank();
    const int p = comm.nprocs();

    // 1. Collective allocation: every rank contributes a slab and
    //    learns everyone's remote base address.
    armci::GlobalMem& mem = comm.malloc_collective(sizeof(double) * 64);
    auto* mine = reinterpret_cast<double*>(mem.local(me));
    for (int i = 0; i < 64; ++i) mine[i] = me * 1000.0 + i;
    comm.barrier();

    // 2. One-sided get from the right neighbour — no code runs there.
    const int right = (me + 1) % p;
    double peek[4];
    comm.get(mem.at(right), peek, sizeof peek);
    if (me == 0) {
      std::printf("[rank 0] neighbour %d's first values: %.0f %.0f %.0f %.0f\n",
                  right, peek[0], peek[1], peek[2], peek[3]);
    }

    // 3. Non-blocking put, overlapped with local compute.
    double payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    armci::Handle h;
    comm.nb_put(payload, mem.at(right).offset(sizeof(double) * 32), sizeof payload, h);
    comm.compute(from_us(50));  // useful work while the wire moves bytes
    comm.wait(h);

    // 4. Accumulate into rank 0 and make it remotely visible.
    std::vector<double> ones(8, 1.0);
    comm.acc(1.0, ones.data(), mem.at(0).offset(sizeof(double) * 48), 8);
    comm.fence(0);
    comm.barrier();
    if (me == 0) {
      // Slot 48 started at 48 (the fill above) and every rank added 1.
      std::printf("[rank 0] accumulated slot: %.0f (expected %d)\n",
                  mine[48], 48 + p);
    }

    // 5. The load-balance counter: each rank grabs unique task ids.
    armci::GlobalMem& counter = comm.malloc_collective(sizeof(std::int64_t));
    const std::int64_t my_first_task = comm.fetch_add(counter.at(0), 1);
    comm.barrier();
    if (me == 0) {
      std::printf("[rank 0] my first task id: %lld; total handed out: %lld\n",
                  static_cast<long long>(my_first_task),
                  static_cast<long long>(comm.fetch_add(counter.at(0), 0)));
      std::printf("[rank 0] virtual time elapsed: %.1f us\n", to_us(comm.now()));
    }
    comm.barrier();
  });
  std::printf("quickstart finished at %.1f us of virtual time\n",
              to_us(world.elapsed()));
  apps::emit_observability(cli, world);
  return 0;
}
