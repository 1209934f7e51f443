// Supplementary: small-message rate and network concurrency — the
// quantitative backing for S III-C2's claim that "modern networks
// provide high messaging rate and network concurrency, obviating a
// need for a pack/unpack protocol". Measures achieved puts/second for
// small messages as a function of how many are kept in flight.
#include "common.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_msgrate: small-message rate vs in-flight window",
                      "S III-C2 — messaging-rate argument for per-chunk RDMA");
  armci::WorldConfig cfg = apps::make_world_config(cli, /*ranks=*/2);
  const std::size_t bytes = static_cast<std::size_t>(cli.get_int("bytes", 64));
  const int total = static_cast<int>(cli.get_int("messages", 512));

  Table table({"window", "msgs/s(M)", "MB/s"});
  for (int window : {1, 2, 4, 8, 16, 32, 64}) {
    armci::World world(cfg);
    double rate = 0.0;
    world.spmd([&](armci::Comm& comm) {
      auto& mem = comm.malloc_collective(1 << 16);
      auto* buf = static_cast<std::byte*>(comm.malloc_local(1 << 16));
      if (comm.rank() == 0) {
        comm.put(buf, mem.at(1), bytes);
        comm.fence(1);
        const Time t0 = comm.now();
        int sent = 0;
        while (sent < total) {
          armci::Handle h;
          for (int i = 0; i < window && sent < total; ++i, ++sent) {
            comm.nb_put(buf, mem.at(1), bytes, h);
          }
          comm.wait(h);
        }
        rate = static_cast<double>(total) / to_s(comm.now() - t0);
      }
      comm.barrier();
    });
    table.row()
        .add(window)
        .add(rate / 1e6, 3)
        .add(rate * static_cast<double>(bytes) / 1e6, 1);
  }
  table.print();
  std::printf("(deeper windows amortize the per-message wait; the plateau is the\n"
              " o_send+o_completion software limit — BG/Q cores are slow, links fast)\n");
  return 0;
}
