// Shared helpers for the paper-reproduction benchmark binaries. The
// command line reaches each bench's WorldConfig through
// apps::make_world_config (apps/cli.hpp), which lists the common knobs.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "apps/cli.hpp"
#include "core/comm.hpp"
#include "core/report.hpp"
#include "core/world.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace pgasq::bench {

/// Message-size sweep 16 B .. 1 MB in powers of two (Table II's range).
inline std::vector<std::size_t> size_sweep(std::size_t lo = 16,
                                           std::size_t hi = 1 << 20) {
  std::vector<std::size_t> sizes;
  for (std::size_t m = lo; m <= hi; m *= 2) sizes.push_back(m);
  return sizes;
}

inline void print_banner(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

/// Progress-mode series used by Fig 9 / Fig 11.
struct ModeSpec {
  std::string name;
  armci::ProgressMode progress;
  int contexts;
};

inline std::vector<ModeSpec> default_and_async() {
  return {{"D", armci::ProgressMode::kDefault, 1},
          {"AT", armci::ProgressMode::kAsyncThread, 2}};
}

}  // namespace pgasq::bench
