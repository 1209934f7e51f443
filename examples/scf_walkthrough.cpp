// The paper's Figure 10 algorithm, narrated: a small NWChem-style SCF
// Fock build driven by the shared load-balance counter, run twice —
// once with Default progress and once with the Asynchronous Thread —
// to show exactly where the 30% of Figure 11 comes from.
//
//   ./examples/scf_walkthrough [--ranks=64] [--nbf=96] [--block=8]
#include <cstdio>

#include <cstring>

#include "apps/scf.hpp"
#include "core/comm.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "fault/integrity.hpp"
#include "ft/recovery.hpp"
#include "util/config.hpp"

using namespace pgasq;

namespace {

apps::ScfResult run_mode(const Config& cli, armci::ProgressMode mode,
                         const apps::ScfConfig& scf, bool observe) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = static_cast<int>(cli.get_int("ranks", 64));
  cfg.machine.ranks_per_node =
      static_cast<int>(cli.get_int("ranks_per_node", cfg.machine.num_ranks >= 16 ? 16 : 1));
  cfg.armci.progress = mode;
  cfg.armci.contexts_per_rank = mode == armci::ProgressMode::kAsyncThread ? 2 : 1;
  cfg.machine.fault = fault::FaultPlan::from_config(cli);
  // End-to-end integrity knobs (--integrity.verify etc.); the layer
  // also self-arms whenever --fault.corrupt_prob is set.
  cfg.machine.integrity = fault::IntegrityConfig::from_config(cli);
  // Collectives-engine knobs ride through opaquely (same contract as
  // the benches): e.g. --coll.algo.allreduce=recdbl pins the energy
  // reduction to a software schedule whose hops show up in traces.
  for (const std::string& key : cli.keys()) {
    if (key.rfind("coll.", 0) == 0) {
      cfg.armci.coll.emplace_back(key.substr(5), cli.get_string(key, ""));
    }
    // Async-runtime knobs ride the same way: --async.scf_overlap=1
    // switches run_scf to the overlapped body (docs/async.md).
    if (key.rfind("async.", 0) == 0) {
      cfg.armci.async.emplace_back(key.substr(6), cli.get_string(key, ""));
    }
  }
  // Fail-stop knobs: with --fault.node_fail=node:at_us scheduled, the
  // run checkpoints and survives the death (docs/faults.md).
  cfg.machine.ft = ft::RuntimeConfig::from_config(cli).liveness;
  // --trace.json_path / --obs.* / --report.json_path apply to the AT
  // run only (`observe`), so one invocation yields one trace.
  if (observe) pami::configure_observability(cli, cfg.machine);
  armci::World world(cfg);
  apps::ScfResult result = apps::run_scf(world, scf);
  if (observe) {
    const std::string report = armci::json_report_path_from_config(cli);
    if (!report.empty()) armci::write_json_report(world, report);
    if (const obs::LinkUsage* lu = world.machine().link_usage()) {
      if (!cfg.machine.obs.link_csv.empty()) {
        lu->write_csv(cfg.machine.obs.link_csv);
      }
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  apps::ScfConfig scf;
  scf.nbf = cli.get_int("nbf", 96);
  scf.block = cli.get_int("block", 8);
  scf.iterations = static_cast<int>(cli.get_int("iterations", 2));
  scf.mean_task_compute = from_us(cli.get_double("task_us", 2000.0));
  scf.ft_checkpoint_interval =
      ft::RuntimeConfig::from_config(cli).checkpoint_interval;
  scf.distributed_guess = cli.get_bool("distributed_guess", false);

  std::printf("SCF Fock build (Fig 10): %lld basis functions, %lld-wide blocks,\n"
              "%lld tasks/iteration, %d iterations, ~%.0f us per task\n\n",
              static_cast<long long>(scf.nbf), static_cast<long long>(scf.block),
              static_cast<long long>(apps::scf_tasks_per_iteration(scf)),
              scf.iterations, to_us(scf.mean_task_compute));
  std::printf("algorithm per task (while SharedCounter < ntasks):\n"
              "    t   = nxtask(SharedCounter)        # fetch-and-add at rank 0\n"
              "    d   = ga_get(D, block pair of t)   # one-sided density fetch\n"
              "    f   = do_work(d)                   # 2e-integral contraction\n"
              "    ga_acc(F, block pair of t, f)      # accumulate Fock matrix\n\n");

  const auto d = run_mode(cli, armci::ProgressMode::kDefault, scf, false);
  const auto at = run_mode(cli, armci::ProgressMode::kAsyncThread, scf, true);

  auto report = [](const char* name, const apps::ScfResult& r) {
    // fock_bits is the checksum's raw IEEE-754 pattern: %.6f rounds
    // away single-bit corruption, so the chaos soak compares this.
    std::uint64_t fock_bits = 0;
    std::memcpy(&fock_bits, &r.fock_checksum, sizeof fock_bits);
    std::printf("%-22s wall %8.2f ms | counter(sum) %8.2f ms | gets(sum) %8.2f ms"
                " | checksum %.6f | fock_bits %016llx\n",
                name, to_ms(r.wall_time), to_ms(r.counter_time), to_ms(r.get_time),
                r.fock_checksum, static_cast<unsigned long long>(fock_bits));
  };
  report("Default (D):", d);
  report("Async thread (AT):", at);
  std::printf("\nAT cuts execution time by %.1f%% — rank 0 no longer has to reach\n"
              "an explicit progress call before the counter is serviced (S III-D).\n",
              100.0 * (to_ms(d.wall_time) - to_ms(at.wall_time)) / to_ms(d.wall_time));
  return d.fock_checksum == at.fock_checksum ? 0 : 1;
}
