// Ablation (S III-C2): strided protocol choice. Sweeps the contiguous
// chunk size of a fixed-total transfer through all three protocols —
// zero-copy (one RDMA per chunk), PAMI typed (single descriptor), and
// the legacy pack/unpack baseline — to show where each wins and why
// kAuto switches to typed for tall-skinny shapes.
#include "common.hpp"
#include "core/strided.hpp"

using namespace pgasq;

namespace {

double run_protocol(const Config& cli, armci::StridedProtocol protocol,
                    std::size_t l0, std::size_t total) {
  armci::WorldConfig cfg = apps::make_world_config(cli, /*ranks=*/2);
  cfg.armci.strided = protocol;
  armci::World world(cfg);
  double us = 0.0;
  world.spmd([&](armci::Comm& comm) {
    auto& mem = comm.malloc_collective(2 * total);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(2 * total));
    if (comm.rank() == 0) {
      comm.get(mem.at(1), buf, 16);
      const std::uint64_t rows = total / l0;
      const armci::StridedSpec spec =
          rows == 1 ? armci::StridedSpec::contiguous(l0)
                    : armci::StridedSpec::rect2d(rows, l0, 2 * l0, 2 * l0);
      // Warm once, measure once (deterministic simulator).
      comm.put_strided(buf, mem.at(1), spec);
      comm.fence(1);
      const Time t0 = comm.now();
      comm.put_strided(buf, mem.at(1), spec);
      comm.fence(1);
      us = to_us(comm.now() - t0);
    }
    comm.barrier();
  });
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_abl_strided_protocol: zero-copy vs typed vs pack/unpack",
                      "S III-C2 — protocol crossover vs chunk size");
  const std::size_t total = static_cast<std::size_t>(cli.get_int("total", 256 << 10));
  Table table({"l0_bytes", "chunks", "zero_copy_us", "typed_us", "pack_unpack_us",
               "best"});
  for (std::size_t l0 = 16; l0 <= total; l0 *= 8) {
    const double zc = run_protocol(cli, armci::StridedProtocol::kZeroCopy, l0, total);
    const double ty = run_protocol(cli, armci::StridedProtocol::kTyped, l0, total);
    const double pk =
        run_protocol(cli, armci::StridedProtocol::kPackUnpack, l0, total);
    const char* best = zc <= ty && zc <= pk ? "zero-copy" : (ty <= pk ? "typed" : "pack");
    table.row()
        .add(format_bytes(l0))
        .add(static_cast<long long>(total / l0))
        .add(zc, 1)
        .add(ty, 1)
        .add(pk, 1)
        .add(std::string(best));
  }
  table.print();
  return 0;
}
