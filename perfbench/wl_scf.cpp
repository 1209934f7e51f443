// scf: the Fig 11 Fock-build deck (6 H2O, 644 basis functions, block 7
// -> 4278 tasks per iteration, 5000 us mean task +-50%) on 2048 ranks
// at 16 per node, three iterations, once in Default and once in
// Async-Thread progress mode. This code mirrors apps::run_scf's plain
// path call for call, so every layer call is made here and can be
// wrapped in a span. The op is one Fock task, from its nxtval request
// to its last Fock accumulate.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "apps/scf.hpp"
#include "coll/coll.hpp"
#include "common.hpp"
#include "ga/collectives.hpp"
#include "ga/global_array.hpp"
#include "ga/matrix_ops.hpp"

namespace perfbench {

namespace apps = pgasq::apps;
namespace ga = pgasq::ga;

namespace {

struct ScfDeck {
  int ranks = 2048;
  int ranks_per_node = 16;
  apps::ScfConfig scf;
};

struct ScfRun {
  Time wall = 0;
  std::uint64_t tasks = 0;
  double checksum = 0.0;
};

armci::WorldConfig world_config(const ScfDeck& deck, armci::ProgressMode mode) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = deck.ranks;
  cfg.machine.ranks_per_node = deck.ranks_per_node;
  cfg.machine.network_model = "loggp";
  cfg.armci.progress = mode;
  cfg.armci.contexts_per_rank = mode == armci::ProgressMode::kAsyncThread ? 2 : 1;
  return cfg;
}

/// One World of the Fock build: the body of apps::run_scf's plain path,
/// with each layer call made (and, when tracing, wrapped) here. The
/// timed region is run_scf's: from after set-up to rank 0's end of the
/// last iteration.
ScfRun drive_scf(armci::World& world, const apps::ScfConfig& config, Spans& spans,
                 Region& region, Result& res, std::vector<Time>& next_lat) {
  const std::int64_t nblk = (config.nbf + config.block - 1) / config.block;
  const std::int64_t ntasks = apps::scf_tasks_per_iteration(config);
  ScfRun run;
  Time t_start = 0;
  Time t_end = 0;
  Time compute = 0;

  world.spmd([&](armci::Comm& comm) {
    const int me = comm.rank();
    auto construct = [&](auto make) {
      auto s = spans.open(me, "ga.construct");
      return make();
    };
    ga::GlobalArray density = construct(
        [&] { return ga::GlobalArray(comm, config.nbf, config.nbf); });
    ga::GlobalArray fock = construct(
        [&] { return ga::GlobalArray(comm, config.nbf, config.nbf); });
    ga::GlobalArray scratch = construct(
        [&] { return ga::GlobalArray(comm, config.nbf, config.nbf); });
    ga::SharedCounter counter =
        construct([&] { return ga::SharedCounter(comm); });

    density.fill_local([](std::int64_t i, std::int64_t j) {
      return 1.0 / static_cast<double>(1 + i + j);
    });
    fock.fill_local(0.0);
    density.sync();
    pgasq::coll::CollEngine::of(comm);

    region.enter(comm);
    if (me == 0) t_start = comm.now();

    std::vector<double> dij(static_cast<std::size_t>(config.block * config.block));
    std::vector<double> dji(dij.size());
    std::vector<double> fbuf(dij.size());

    // A task's latency runs from its nxtval request to its last Fock
    // accumulate; the request that finds the counter exhausted is only
    // a nxtval sample.
    Time t_request = 0;
    auto next = [&] {
      auto s = spans.open(me, "ga.next");
      t_request = comm.now();
      const std::int64_t task = counter.next();
      next_lat.push_back(comm.now() - t_request);
      return task;
    };

    for (int iter = 0; iter < config.iterations; ++iter) {
      {
        auto s = spans.open(me, "ga.reset");
        counter.reset();
      }
      for (std::int64_t task = next(); task < ntasks; task = next()) {
        auto s_task = spans.open(me, "app.task");
        const auto [bi, bj] = apps::scf_task_blocks(task, nblk);
        const std::int64_t rlo = bi * config.block;
        const std::int64_t rhi = std::min(config.nbf, rlo + config.block);
        const std::int64_t clo = bj * config.block;
        const std::int64_t chi = std::min(config.nbf, clo + config.block);
        const std::int64_t nr = rhi - rlo;
        const std::int64_t nc = chi - clo;

        armci::Handle h;
        {
          auto s = spans.open(me, "ga.nb_get");
          density.nb_get(rlo, rhi, clo, chi, dij.data(), nc, h);
        }
        {
          auto s = spans.open(me, "ga.nb_get");
          density.nb_get(clo, chi, rlo, rhi, dji.data(), nr, h);
        }
        {
          auto s = spans.open(me, "armci.wait");
          comm.wait(h);
        }
        const Time work = apps::scf_task_time(config, iter, task);
        compute += work;
        {
          auto s = spans.open(me, "armci.compute");
          comm.compute(work);
        }

        for (std::int64_t r = 0; r < nr; ++r) {
          for (std::int64_t c = 0; c < nc; ++c) {
            fbuf[static_cast<std::size_t>(r * nc + c)] =
                0.5 * dij[static_cast<std::size_t>(r * nc + c)] +
                0.25 * dji[static_cast<std::size_t>(c * nr + r)];
          }
        }
        {
          auto s = spans.open(me, "ga.acc");
          fock.acc(1.0, rlo, rhi, clo, chi, fbuf.data(), nc);
        }
        if (bi != bj) {
          // A fresh buffer per task, exactly as run_scf allocates it:
          // registration is keyed by source address, so reusing one
          // would change the virtual timeline.
          std::vector<double> ft(static_cast<std::size_t>(nr * nc));
          for (std::int64_t r = 0; r < nr; ++r) {
            for (std::int64_t c = 0; c < nc; ++c) {
              ft[static_cast<std::size_t>(c * nr + r)] =
                  fbuf[static_cast<std::size_t>(r * nc + c)];
            }
          }
          auto s = spans.open(me, "ga.acc");
          fock.acc(1.0, clo, chi, rlo, rhi, ft.data(), nr);
        }
        ++run.tasks;
        res.op_lat.push_back(comm.now() - t_request);
      }
      {
        auto s = spans.open(me, "armci.barrier");
        comm.barrier();
      }
      {
        auto s = spans.open(me, "ga.symmetrize");
        ga::symmetrize(fock, scratch);
      }
      {
        auto s = spans.open(me, "ga.element_sum");
        ga::element_sum(fock);
      }
    }

    if (me == 0) t_end = comm.now();
    region.leave(comm);

    if (me == 0) {
      double sum = 0.0;
      for (std::int64_t i = 0; i < config.nbf; i += 97) {
        sum += fock.read_element(i, i);
        if (i + 1 < config.nbf) sum += fock.read_element(i, i + 1);
      }
      run.checksum = sum;
    }
    comm.barrier();
  });
  run.wall = t_end - t_start;
  res.exact["app.compute_virt_ms"] += pgasq::to_ms(compute);
  return run;
}

ScfDeck published_deck(std::uint64_t seed) {
  ScfDeck deck;
  deck.scf.nbf = 644;
  deck.scf.block = 7;
  deck.scf.iterations = 3;
  deck.scf.mean_task_compute = pgasq::from_us(5000.0);
  deck.scf.jitter = 0.5;
  deck.scf.seed = seed;
  return deck;
}

}  // namespace

void run_scf(std::uint64_t seed, Spans& spans, Result& res) {
  const ScfDeck deck = published_deck(seed);
  const std::uint64_t want_tasks = static_cast<std::uint64_t>(
      apps::scf_tasks_per_iteration(deck.scf) * deck.scf.iterations);
  // Every rank draws one counter value past the last task per iteration.
  const std::uint64_t nexts_per_world =
      want_tasks + static_cast<std::uint64_t>(deck.ranks * deck.scf.iterations);
  // Reserved up front: growing these mid-run would reshuffle the heap
  // that the simulator's address-keyed registrations see.
  std::vector<Time> next_lat;
  next_lat.reserve(2 * nexts_per_world);
  res.op_lat.reserve(2 * want_tasks);

  std::vector<double> checksums;
  int world_index = 0;
  for (const auto mode :
       {armci::ProgressMode::kDefault, armci::ProgressMode::kAsyncThread}) {
    const char* name = mode == armci::ProgressMode::kDefault ? "D" : "AT";
    res.ops += want_tasks;
    Region region(deck.ranks, res.armci);
    const HostMark construct = host_mark();
    armci::World world(world_config(deck, mode));
    spans.bind(world.machine().engine(), world_index++);
    ScfRun run;
    try {
      run = drive_scf(world, deck.scf, spans, region, res, next_lat);
    } catch (const std::exception& e) {
      res.fail(std::string("scf/") + name + " threw: " + e.what(), want_tasks);
      continue;
    }
    res.add_region(region, construct, run.wall);
    if (run.tasks != want_tasks) {
      res.fail("scf/" + std::string(name) + ": executed " + std::to_string(run.tasks) +
               " tasks, want " + std::to_string(want_tasks));
    }
    checksums.push_back(run.checksum);
  }
  res.exact["ga.virt_us.next.p50"] = pgasq::to_us(percentile(next_lat, 0.50));
  res.exact["ga.virt_us.next.p99"] = pgasq::to_us(percentile(next_lat, 0.99));
  if (checksums.size() == 2 && checksums[0] != checksums[1]) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "scf: Fock checksum D %.17g != AT %.17g",
                  checksums[0], checksums[1]);
    res.fail(buf);
  }
}

namespace {

/// Runs `body` in a forked child and returns its result through a pipe,
/// so that each run starts from the same heap state: the simulator keys
/// memory registrations by buffer address, so a run's virtual time can
/// depend on what ran before it in the same process.
bool run_isolated(const std::function<ScfRun()>& body, ScfRun* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    bool ok = false;
    try {
      const ScfRun r = body();
      ok = write(fds[1], &r, sizeof r) == static_cast<ssize_t>(sizeof r);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scf mirror: %s\n", e.what());
    }
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  ScfRun r;
  const bool got = read(fds[0], &r, sizeof r) == static_cast<ssize_t>(sizeof r);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  *out = r;
  return true;
}

}  // namespace

int check_scf_mirror() {
  // Reduced deck: 64 ranks, 14 x 14 blocks (105 tasks), two iterations.
  ScfDeck deck = published_deck(12345);
  deck.ranks = 64;
  deck.scf.nbf = 98;
  deck.scf.iterations = 2;
  deck.scf.mean_task_compute = pgasq::from_us(500.0);
  int bad = 0;
  for (const auto mode :
       {armci::ProgressMode::kDefault, armci::ProgressMode::kAsyncThread}) {
    ScfRun ref, run;
    const bool ok_ref = run_isolated(
        [&] {
          armci::World world(world_config(deck, mode));
          const apps::ScfResult r = apps::run_scf(world, deck.scf);
          return ScfRun{r.wall_time, r.tasks_executed, r.fock_checksum};
        },
        &ref);
    const bool ok_run = run_isolated(
        [&] {
          // The benchmark's own order: every allocation of its own is made
          // before the World exists.
          Spans spans(false);
          Result res;
          std::vector<Time> next_lat;
          next_lat.reserve(static_cast<std::size_t>(
              (apps::scf_tasks_per_iteration(deck.scf) + deck.ranks) * deck.scf.iterations));
          res.op_lat.reserve(next_lat.capacity());
          Region region(deck.ranks, res.armci);
          armci::World world(world_config(deck, mode));
          spans.bind(world.machine().engine(), 0);
          return drive_scf(world, deck.scf, spans, region, res, next_lat);
        },
        &run);
    const char* name = mode == armci::ProgressMode::kDefault ? "D" : "AT";
    if (!ok_ref || !ok_run) {
      std::printf("%-2s run failed\n", name);
      ++bad;
      continue;
    }
    std::printf("%-2s run_scf: wall %lld ps, tasks %llu, checksum %.17g\n", name,
                static_cast<long long>(ref.wall),
                static_cast<unsigned long long>(ref.tasks), ref.checksum);
    std::printf("%-2s bench  : wall %lld ps, tasks %llu, checksum %.17g\n", name,
                static_cast<long long>(run.wall),
                static_cast<unsigned long long>(run.tasks), run.checksum);
    if (ref.wall != run.wall || ref.tasks != run.tasks || ref.checksum != run.checksum) {
      std::printf("MISMATCH in %s mode\n", name);
      ++bad;
    }
  }
  std::printf("%s\n", bad == 0 ? "scf mirror: PASS" : "scf mirror: FAIL");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
