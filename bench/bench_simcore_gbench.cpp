// Real-time microbenchmarks of the simulator substrate itself
// (google-benchmark): event throughput, fiber context switches, torus
// routing, and a full small-world SPMD cycle. These measure host
// performance of the simulation engine, not virtual-time results.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/comm.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "topo/torus.hpp"

using namespace pgasq;

namespace {

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    const int n = static_cast<int>(state.range(0));
    long long sum = 0;
    for (int i = 0; i < n; ++i) {
      engine.schedule_at(i, [&sum, i] { sum += i; });
    }
    engine.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1 << 10)->Arg(1 << 14);

void BM_FiberPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::WaitQueue qa(engine);
    sim::WaitQueue qb(engine);
    const int rounds = static_cast<int>(state.range(0));
    bool a_turn = true;  // predicate guards against lost wakeups
    engine.spawn("a", [&] {
      for (int i = 0; i < rounds; ++i) {
        while (!a_turn) qa.wait();
        a_turn = false;
        qb.notify_one();
      }
    });
    engine.spawn("b", [&] {
      for (int i = 0; i < rounds; ++i) {
        while (a_turn) qb.wait();
        a_turn = true;
        qa.notify_one();
      }
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_FiberPingPong)->Arg(1 << 10);

// A token passes around a ring of fibers, so each switch lands on a
// fiber whose stack and context have gone cold, as in the rank-scale
// workloads. Items are fiber switches: each fiber's first slice plus
// one per lap.
void BM_FiberRing(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kLaps = 16;
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::Fiber*> ring(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ring[static_cast<std::size_t>(i)] = &engine.spawn("r" + std::to_string(i), [&, i] {
        for (int lap = 0; lap < kLaps; ++lap) {
          engine.suspend();
          // The last fiber's last pass ends the ring.
          if (i + 1 < n || lap + 1 < kLaps) {
            engine.resume(*ring[static_cast<std::size_t>((i + 1) % n)]);
          }
        }
      });
    }
    engine.schedule_at(0, [&] { engine.resume(*ring[0]); });
    engine.run();
    benchmark::DoNotOptimize(engine.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * (kLaps + 1));
}
BENCHMARK(BM_FiberRing)->Arg(1024);

void BM_TorusRoute(benchmark::State& state) {
  topo::Torus5D torus(topo::bgq_partition_dims(512));
  int a = 0;
  for (auto _ : state) {
    a = (a + 97) % torus.num_nodes();
    const int b = (a * 31 + 7) % torus.num_nodes();
    benchmark::DoNotOptimize(torus.route(a, b));
  }
}
BENCHMARK(BM_TorusRoute);

void BM_SmallWorldPingPong(benchmark::State& state) {
  for (auto _ : state) {
    armci::WorldConfig cfg;
    cfg.machine.num_ranks = 2;
    armci::World world(cfg);
    world.spmd([](armci::Comm& comm) {
      auto& mem = comm.malloc_collective(4096);
      std::byte buf[64];
      if (comm.rank() == 0) {
        for (int i = 0; i < 50; ++i) comm.get(mem.at(1), buf, 64);
      }
      comm.barrier();
    });
  }
}
BENCHMARK(BM_SmallWorldPingPong)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
