#include "apps/scf.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "async/async.hpp"
#include "coll/coll.hpp"
#include "coll/nbc.hpp"
#include "core/comm.hpp"
#include "ft/recovery.hpp"
#include "ga/collectives.hpp"
#include "ga/dgemm.hpp"
#include "ga/global_array.hpp"
#include "ga/matrix_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pgasq::apps {

std::int64_t scf_tasks_per_iteration(const ScfConfig& config) {
  const std::int64_t nblk = (config.nbf + config.block - 1) / config.block;
  return nblk * (nblk + 1) / 2;
}

std::pair<std::int64_t, std::int64_t> scf_task_blocks(std::int64_t task,
                                                      std::int64_t nblk) {
  PGASQ_CHECK(task >= 0 && task < nblk * (nblk + 1) / 2);
  // Row bi owns (nblk - bi) tasks: (bi,bi) .. (bi,nblk-1).
  std::int64_t bi = 0;
  std::int64_t remaining = task;
  while (remaining >= nblk - bi) {
    remaining -= nblk - bi;
    ++bi;
  }
  return {bi, bi + remaining};
}

Time scf_task_time(const ScfConfig& config, int iteration, std::int64_t task) {
  // Deterministic in (seed, iteration, task): identical workload for
  // every progress mode and process count.
  std::uint64_t s = config.seed ^ (static_cast<std::uint64_t>(iteration) << 40) ^
                    static_cast<std::uint64_t>(task);
  const double u =
      static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;  // [0, 1)
  const double factor = 1.0 + config.jitter * (2.0 * u - 1.0);
  return static_cast<Time>(static_cast<double>(config.mean_task_compute) * factor);
}

namespace {

/// The Fock-matrix patch of one task's block pair (bi, bj), bi <= bj:
/// rows [rlo, rhi) x columns [clo, chi).
struct TaskPatch {
  std::int64_t bi, bj, rlo, rhi, clo, chi;
  std::int64_t nr() const { return rhi - rlo; }
  std::int64_t nc() const { return chi - clo; }
};

TaskPatch task_patch(const ScfConfig& config, std::int64_t task) {
  const std::int64_t nblk = (config.nbf + config.block - 1) / config.block;
  const auto [bi, bj] = scf_task_blocks(task, nblk);
  const std::int64_t rlo = bi * config.block;
  const std::int64_t clo = bj * config.block;
  return {bi, bj, rlo, std::min(config.nbf, rlo + config.block),
          clo, std::min(config.nbf, clo + config.block)};
}

/// Per-rank task buffers, block x block each: the two density patches
/// a task contracts and its Fock contribution.
struct TaskBuffers {
  explicit TaskBuffers(const ScfConfig& config)
      : dij(static_cast<std::size_t>(config.block * config.block)),
        dji(dij.size()),
        fbuf(dij.size()) {}
  std::vector<double> dij, dji, fbuf;
};

/// Starts fetching the two density patches the contraction touches,
/// D(bi,bj) into `dij` and D(bj,bi) into `dji`, on handle `h`.
void fetch_patches(ga::GlobalArray& density, const TaskPatch& p, double* dij,
                   double* dji, armci::Handle& h) {
  density.nb_get(p.rlo, p.rhi, p.clo, p.chi, dij, p.nc(), h);
  density.nb_get(p.clo, p.chi, p.rlo, p.rhi, dji, p.nr(), h);
}

/// The Fock contribution of this block pair — a deterministic function
/// of the density so the checksum validates every mode — accumulated
/// into F(bi, bj) and, off the diagonal, transposed into F(bj, bi).
void accumulate_fock(ga::GlobalArray& fock, const TaskPatch& p, TaskBuffers& b) {
  const std::int64_t nr = p.nr();
  const std::int64_t nc = p.nc();
  for (std::int64_t r = 0; r < nr; ++r) {
    for (std::int64_t c = 0; c < nc; ++c) {
      b.fbuf[static_cast<std::size_t>(r * nc + c)] =
          0.5 * b.dij[static_cast<std::size_t>(r * nc + c)] +
          0.25 * b.dji[static_cast<std::size_t>(c * nr + r)];
    }
  }
  fock.acc(1.0, p.rlo, p.rhi, p.clo, p.chi, b.fbuf.data(), nc);
  if (p.bi != p.bj) {
    // Symmetric contribution F(bj, bi) += transpose(contrib).
    std::vector<double> ft(static_cast<std::size_t>(nr * nc));
    for (std::int64_t r = 0; r < nr; ++r) {
      for (std::int64_t c = 0; c < nc; ++c) {
        ft[static_cast<std::size_t>(c * nr + r)] =
            b.fbuf[static_cast<std::size_t>(r * nc + c)];
      }
    }
    fock.acc(1.0, p.clo, p.chi, p.rlo, p.rhi, ft.data(), nr);
  }
}

/// Overlapped-driver speculation state: the next iteration's first
/// task is guessed to equal this iteration's (the counter hands out a
/// similar order every build), and its density patches are fetched
/// into pij/pji under the open energy reduction. A wrong guess costs
/// nothing on the critical path — the fetch was asynchronous — and
/// density is static, so hit or miss the physics is identical.
struct Prefetch {
  explicit Prefetch(std::size_t n) : pij(n), pji(n) {}
  std::vector<double> pij, pji;
  armci::Handle h;
  std::int64_t task = -1;
  bool live = false;
};

/// Seeds the initial density with a deterministic "molecular electron
/// density" and zeroes the Fock matrix. With `distributed`, rank 0
/// owns the initial guess and scatters it with one-sided ga_put
/// patches; sync() is only a barrier, so remote completion needs an
/// explicit fence first. Otherwise every rank fills its own block.
void seed_density(armci::Comm& comm, const ScfConfig& config, bool distributed,
                  ga::GlobalArray& density, ga::GlobalArray& fock) {
  auto guess = [](std::int64_t i, std::int64_t j) {
    return 1.0 / static_cast<double>(1 + i + j);
  };
  if (distributed) {
    if (comm.rank() == 0) {
      std::vector<double> d0(static_cast<std::size_t>(config.nbf * config.nbf));
      for (std::int64_t i = 0; i < config.nbf; ++i) {
        for (std::int64_t j = 0; j < config.nbf; ++j) {
          d0[static_cast<std::size_t>(i * config.nbf + j)] = guess(i, j);
        }
      }
      density.put(0, config.nbf, 0, config.nbf, d0.data(), config.nbf);
      comm.fence_all();
    }
  } else {
    density.fill_local(guess);
  }
  fock.fill_local(0.0);
  density.sync();
}

/// One Fock build, shared by every driver: drains iteration `iter`'s
/// tasks from the load-balance counter, then symmetrizes F. With a
/// `prefetch` (overlapped driver), a task matching the speculated one
/// consumes the prefetched patches instead of fetching; an unconsumed
/// prefetch is retired before the barrier. Returns the first task this
/// rank drew (-1 when it drew none).
std::int64_t build_fock(armci::Comm& comm, const ScfConfig& config, int iter,
                        ga::SharedCounter& counter, ga::GlobalArray& density,
                        ga::GlobalArray& fock, ga::GlobalArray& scratch,
                        TaskBuffers& b, ScfResult& result,
                        Prefetch* prefetch = nullptr) {
  const std::int64_t ntasks = scf_tasks_per_iteration(config);
  counter.reset();
  std::int64_t first_task = -1;
  for (std::int64_t task = counter.next(); task < ntasks;
       task = counter.next()) {
    if (first_task < 0) first_task = task;
    const TaskPatch p = task_patch(config, task);
    // Lives for the whole task: when its heap block is freed is part of
    // the heap history virtual results depend on (DESIGN.md §5).
    armci::Handle h;
    if (prefetch != nullptr && prefetch->live && task == prefetch->task) {
      // The patches are (usually) already local: the fetch flew while
      // the previous iteration's energy reduction was open.
      comm.wait(prefetch->h);
      b.dij.swap(prefetch->pij);
      b.dji.swap(prefetch->pji);
      prefetch->live = false;
      ++result.prefetch_hits;
    } else {
      fetch_patches(density, p, b.dij.data(), b.dji.data(), h);
      comm.wait(h);
    }
    // Contract with the 2-electron integrals: modelled local work.
    comm.compute(scf_task_time(config, iter, task));
    accumulate_fock(fock, p, b);
    ++result.tasks_executed;
  }
  if (prefetch != nullptr && prefetch->live) {
    // The guess missed (the counter dealt a different first task):
    // retire the fetch off the critical path's accounting.
    comm.wait(prefetch->h);
    prefetch->live = false;
    ++result.prefetch_misses;
  }
  comm.barrier();
  ga::symmetrize(fock, scratch);
  return first_task;
}

/// Trace-like checksum of the Fock matrix, read with one-sided gets.
double fock_checksum(ga::GlobalArray& fock, std::int64_t nbf) {
  double sum = 0.0;
  for (std::int64_t i = 0; i < nbf; i += 97) {
    sum += fock.read_element(i, i);
    if (i + 1 < nbf) sum += fock.read_element(i, i + 1);
  }
  return sum;
}

/// Adds this rank's stats deltas for the SCF region only.
void add_region_deltas(const armci::CommStats& before,
                       const armci::CommStats& after, ScfResult& result) {
  result.counter_time += after.time_in_rmw - before.time_in_rmw;
  result.get_time += (after.time_in_get - before.time_in_get) +
                     (after.time_in_wait - before.time_in_wait);
  result.acc_time += after.time_in_acc - before.time_in_acc;
  result.barrier_time += after.time_in_barrier - before.time_in_barrier;
  result.reduce_time += after.coll.data_time() - before.coll.data_time();
  result.forced_fences += after.forced_fences - before.forced_fences;
}

/// Ends the SCF region: `reader` stamps the end time and takes the
/// checksum, then every rank adds its region deltas.
void close_region(armci::Comm& comm, const ScfConfig& config, int reader,
                  ga::GlobalArray& fock, const armci::CommStats& before,
                  ScfResult& result, Time& t_end) {
  if (comm.rank() == reader) {
    t_end = comm.now();
    result.fock_checksum = fock_checksum(fock, config.nbf);
  }
  comm.barrier();
  add_region_deltas(before, comm.stats(), result);
}

/// Fail-stop driver: the shared Fock build wrapped in the checkpoint /
/// recover / rollback protocol of ft::Runtime. Entered only when the
/// machine has a health monitor, i.e. the fault plan schedules node
/// deaths, so fault-free runs never pay for fault tolerance.
void run_scf_ft(armci::Comm& comm, const ScfConfig& config, ScfResult& result,
                Time& t_start, Time& t_end) {
  PGASQ_CHECK(config.purification_sweeps == 0,
              << "purification is not supported under fail-stop faults");

  std::unique_ptr<ga::GlobalArray> density, fock, scratch;
  std::unique_ptr<ga::SharedCounter> counter;
  // (Re)creates the arrays and the load-balance counter over `members`
  // — the full clique up front, the survivor clique after a shrink.
  // Old arrays are dropped without reuse: straggler traffic from the
  // dead epoch can only land in the superseded allocations.
  auto build = [&](const std::vector<int>& members) {
    const bool full = static_cast<int>(members.size()) == comm.nprocs();
    auto mk = [&] {
      return full ? std::make_unique<ga::GlobalArray>(comm, config.nbf, config.nbf)
                  : std::make_unique<ga::GlobalArray>(comm, config.nbf, config.nbf,
                                                      members);
    };
    density = mk();
    fock = mk();
    scratch = mk();
    counter = std::make_unique<ga::SharedCounter>(comm, members.front());
  };

  std::vector<int> everyone(static_cast<std::size_t>(comm.nprocs()));
  for (int r = 0; r < comm.nprocs(); ++r) everyone[static_cast<std::size_t>(r)] = r;
  build(everyone);
  seed_density(comm, config, false, *density, *fock);
  coll::CollEngine::of(comm);

  ft::RuntimeConfig rt_config;
  rt_config.checkpoint_interval = config.ft_checkpoint_interval;
  ft::Runtime rt(comm, rt_config, {density.get(), fock.get()});

  const armci::CommStats before = comm.stats();
  if (comm.rank() == 0) t_start = comm.now();
  TaskBuffers buffers(config);

  // Returns false when this rank itself died. Loops because another
  // node can die while the survivors are still re-synchronizing.
  auto recover_and_rebuild = [&]() -> bool {
    while (true) {
      try {
        if (!rt.recover()) return false;
        build(rt.members());
        if (rt.restart_iter() == 0) {
          seed_density(comm, config, false, *density, *fock);
        } else {
          rt.restore({density.get(), fock.get()});
        }
        return true;
      } catch (const ft::PeerDeadError&) {
        continue;
      }
    }
  };

  int iter = 0;
  while (iter < config.iterations) {
    try {
      rt.checkpoint(iter, {density.get(), fock.get()});
      build_fock(comm, config, iter, *counter, *density, *fock, *scratch,
                 buffers, result);
      const double energy = ga::element_sum(*fock);
      if (comm.rank() == rt.members().front() &&
          iter == config.iterations - 1) {
        result.final_energy = energy;
      }
      ++iter;
    } catch (const ft::PeerDeadError&) {
      if (!recover_and_rebuild()) return;  // this rank is the casualty
      // Roll back to the agreed checkpoint's iteration (0 = cold
      // restart from the refilled initial state).
      iter = rt.restart_iter();
    }
  }

  // End-of-run results are taken on the lowest surviving rank: rank 0
  // may be among the dead.
  close_region(comm, config, rt.members().front(), *fock, before, result, t_end);
}

/// Overlapped driver (config.overlap): the shared Fock build, but the
/// per-iteration energy reduction is non-blocking (coll::NbcEngine via
/// ga::ielement_sum) and chained past the iteration boundary — it
/// advances from the progress passes the next iteration's
/// gets/accs/RMWs make anyway — and its window hides a speculative
/// prefetch of the next iteration's first density patches.
void run_scf_overlap(armci::Comm& comm, const ScfConfig& config,
                     ScfResult& result, Time& t_start, Time& t_end) {
  PGASQ_CHECK(config.purification_sweeps == 0,
              << "scf overlap path does not support purification");

  ga::GlobalArray density(comm, config.nbf, config.nbf);
  ga::GlobalArray fock(comm, config.nbf, config.nbf);
  ga::GlobalArray scratch(comm, config.nbf, config.nbf);
  ga::SharedCounter counter(comm);
  seed_density(comm, config, config.distributed_guess, density, fock);
  // Engines up before the timed region, like the blocking path.
  coll::CollEngine::of(comm);
  async::Runtime& rt = async::Runtime::of(comm);
  coll::NbcEngine::of(comm);

  const armci::CommStats before = comm.stats();
  if (comm.rank() == 0) t_start = comm.now();
  TaskBuffers buffers(config);
  Prefetch prefetch(buffers.dij.size());

  // One energy slot per iteration: each must stay alive and untouched
  // until its reduction future is ready.
  std::vector<double> energies(static_cast<std::size_t>(config.iterations), 0.0);
  std::vector<fut::Future<fut::Unit>> open_reductions;

  for (int iter = 0; iter < config.iterations; ++iter) {
    const std::int64_t first_task = build_fock(
        comm, config, iter, counter, density, fock, scratch, buffers, result,
        &prefetch);
    // Non-blocking energy reduction, chained past the iteration
    // boundary: the continuation latches the final energy whenever the
    // last reduction completes — possibly while the checksum readbacks
    // below are already running.
    const std::size_t slot = static_cast<std::size_t>(iter);
    fut::Future<fut::Unit> f = ga::ielement_sum(fock, &energies[slot]);
    if (comm.rank() == 0 && iter == config.iterations - 1) {
      f = f.then([&result, &energies, slot](const fut::Unit&) {
        result.final_energy = energies[slot];
      });
    }
    open_reductions.push_back(std::move(f));
    // The reduction window hides the next iteration's first fetch.
    if (iter + 1 < config.iterations && first_task >= 0) {
      prefetch.task = first_task;
      fetch_patches(density, task_patch(config, first_task),
                    prefetch.pij.data(), prefetch.pji.data(), prefetch.h);
      prefetch.live = true;
    }
  }

  // Drain every reduction still in flight before reading results.
  rt.wait(fut::when_all(rt, std::move(open_reductions)));
  close_region(comm, config, 0, fock, before, result, t_end);
}

/// Blocking driver: the shared Fock build, then the blocking energy
/// reduction, optionally preceded by purification sweeps.
void run_scf_blocking(armci::Comm& comm, const ScfConfig& config,
                      ScfResult& result, Time& t_start, Time& t_end) {
  ga::GlobalArray density(comm, config.nbf, config.nbf);
  ga::GlobalArray fock(comm, config.nbf, config.nbf);
  ga::GlobalArray scratch(comm, config.nbf, config.nbf);
  ga::SharedCounter counter(comm);
  seed_density(comm, config, config.distributed_guess, density, fock);
  // Bring up the collectives engine (scratch arena, barrier hook)
  // with the rest of the runtime, outside the timed region — like a
  // real SCF, which initializes GA/ARMCI long before the Fock loop.
  coll::CollEngine::of(comm);

  const armci::CommStats before = comm.stats();
  if (comm.rank() == 0) t_start = comm.now();
  TaskBuffers buffers(config);

  for (int iter = 0; iter < config.iterations; ++iter) {
    build_fock(comm, config, iter, counter, density, fock, scratch, buffers,
               result);
    // SCF post-processing after the symmetrized build: the global
    // energy reduction, optionally preceded by a stand-in for the
    // diagonalization — McWeeny purification sweeps on a damped copy
    // of F (linear-scaling SCF style): D' = 3 D^2 - 2 D^3.
    if (config.purification_sweeps > 0) {
      ga::GlobalArray d2(comm, config.nbf, config.nbf);
      ga::copy(fock, scratch);
      ga::scale(scratch, 1.0 / static_cast<double>(config.nbf));  // damp
      for (int sweep = 0; sweep < config.purification_sweeps; ++sweep) {
        ga::dgemm(1.0, scratch, scratch, 0.0, d2);        // D^2
        ga::dgemm(-2.0, d2, scratch, 0.0, density);       // -2 D^3 (reuse D)
        ga::add(3.0, d2, 1.0, density, scratch);          // 3D^2 - 2D^3
      }
      // Refresh the density from the purified matrix for the next
      // build (keeps values bounded and deterministic).
      ga::copy(scratch, density);
      ga::symmetrize(density, d2);
    }
    const double energy = ga::element_sum(fock);
    if (comm.rank() == 0 && iter == config.iterations - 1) {
      result.final_energy = energy;
    }
  }

  close_region(comm, config, 0, fock, before, result, t_end);
}

}  // namespace

ScfResult run_scf(armci::World& world, const ScfConfig& config) {
  PGASQ_CHECK(config.nbf >= config.block && config.block >= 1);
  PGASQ_CHECK(config.iterations >= 1);

  ScfResult result;
  Time t_start = 0;
  Time t_end = 0;

  // The driver is a per-world choice. Node deaths scheduled (a health
  // monitor exists): the fail-stop driver. Otherwise the overlapped
  // driver when the app asked for it or the runtime was configured
  // with --async.scf_overlap=1; parsing the options is pure, so with
  // async.* unset no async Runtime is instantiated. The SPMD closure's
  // size is part of the heap history virtual results depend on
  // (DESIGN.md §5).
  const bool fail_stop = world.machine().monitor() != nullptr;
  const bool overlap =
      config.overlap ||
      async::AsyncConfig::from_options(world.options()).scf_overlap;
  world.spmd([&](armci::Comm& comm) {
    if (fail_stop) {
      run_scf_ft(comm, config, result, t_start, t_end);
    } else if (overlap) {
      run_scf_overlap(comm, config, result, t_start, t_end);
    } else {
      run_scf_blocking(comm, config, result, t_start, t_end);
    }
  });

  result.wall_time = t_end - t_start;
  result.stats = world.total_stats();
  return result;
}

}  // namespace pgasq::apps
