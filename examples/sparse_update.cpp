// Irregular sparse updates over Global Arrays — the gather/scatter
// access pattern (GA_Gather / GA_ScatterAcc) that motivates ARMCI's
// general I/O-vector datatype (S II-B): each rank repeatedly reads and
// accumulates a random set of matrix elements scattered across all
// owners, batched into one vector operation per target. Finishes by
// printing the runtime's communication report.
//
//   ./examples/sparse_update [--ranks=16] [--n=128] [--updates=200]
#include <cstdio>
#include <vector>

#include "core/report.hpp"
#include "ga/collectives.hpp"
#include "ga/global_array.hpp"
#include "fault/fault.hpp"
#include "flow/flow.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = static_cast<int>(cli.get_int("ranks", 16));
  const std::int64_t n = cli.get_int("n", 128);
  const int updates = static_cast<int>(cli.get_int("updates", 200));
  const int batch = static_cast<int>(cli.get_int("batch", 24));

  cfg.machine.fault = fault::FaultPlan::from_config(cli);
  // --flow.* arms overload control (credit backpressure, deadlines);
  // the report then grows an "overload control (flow)" table
  // (docs/overload.md).
  cfg.machine.flow = flow::FlowConfig::from_config(cli);
  // --coll.* keys reach the collectives engine with the prefix
  // stripped, e.g. --coll.algo.allreduce=torus-ring (docs/collectives.md).
  for (const std::string& key : cli.keys()) {
    if (key.rfind("coll.", 0) == 0) {
      cfg.armci.coll.emplace_back(key.substr(5), cli.get_string(key, ""));
    }
  }
  armci::World world(cfg);
  double total = 0.0;
  double expected = 0.0;
  world.spmd([&](armci::Comm& comm) {
    ga::GlobalArray a(comm, n, n);
    a.fill_local(0.0);
    a.sync();
    Rng rng(0xfeed + static_cast<std::uint64_t>(comm.rank()));
    double local_added = 0.0;
    std::vector<ga::GlobalArray::ElementIndex> idx(static_cast<std::size_t>(batch));
    std::vector<double> gathered(idx.size());
    std::vector<double> delta(idx.size());
    for (int u = 0; u < updates; ++u) {
      // A random scatter of elements; duplicates within one batch are
      // avoided by striding the row with the slot number.
      for (int k = 0; k < batch; ++k) {
        idx[static_cast<std::size_t>(k)] = {
            (rng.next_in(0, n - 1) + k) % n,
            rng.next_in(0, n - 1)};
      }
      // Read-modify-accumulate: gather current values, compute an
      // update, scatter-accumulate it back.
      a.gather(idx, gathered.data());
      for (int k = 0; k < batch; ++k) {
        delta[static_cast<std::size_t>(k)] = 1.0;
        local_added += 1.0;
      }
      comm.compute(from_us(20));  // the "apply physics" step
      a.scatter_acc(1.0, idx, delta.data());
    }
    a.sync();
    ga::gop_sum(comm, &local_added, 1);
    if (comm.rank() == 0) {
      expected = local_added;
      total = ga::element_sum(a);
    } else {
      ga::element_sum(a);  // collective
    }
    comm.barrier();
  });

  std::printf("sparse updates: %d ranks, %lldx%lld array, %d batches of %d\n",
              cfg.machine.num_ranks, static_cast<long long>(n),
              static_cast<long long>(n), updates, batch);
  std::printf("  mass conservation: scattered %.0f, array holds %.0f — %s\n\n",
              expected, total, expected == total ? "OK" : "MISMATCH");
  std::fputs(armci::render_report(world).c_str(), stdout);
  return expected == total ? 0 : 1;
}
