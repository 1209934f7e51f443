// The command line -> WorldConfig path shared by every bench and
// example: one parse of the machine, progress, consistency, fault,
// integrity, ft, flow, coll., async., trace. and obs. knobs, and the
// end-of-run artifacts they ask for.
//
// Every program accepts "--key=value" overrides (see util/config.hpp);
// common knobs: ranks, ranks_per_node (c), net (loggp|contention),
// progress (default|async), contexts (rho), consistency
// (target|region), seed, hardware_amo.
#pragma once

#include <initializer_list>

#include "core/world.hpp"
#include "util/config.hpp"

namespace pgasq::apps {

/// Builds a WorldConfig from `cli`; `default_ranks` and
/// `default_ranks_per_node` apply when ranks / ranks_per_node are unset.
armci::WorldConfig make_world_config(const Config& cli, int default_ranks,
                                     int default_ranks_per_node = 1);

/// For a program that sweeps `keys` itself (progress modes, contexts,
/// rank counts): throws Error naming `sweep` when `cli` sets one, since
/// the sweep would read the key and then override it.
void reject_swept(const Config& cli, std::initializer_list<const char*> keys,
                  const char* sweep);

/// End-of-run observability artifacts: writes the versioned
/// machine-readable report (--report.json_path, e.g. BENCH_fig3.json),
/// the per-link CSV (--obs.link_csv), and the timeline CSV
/// (--obs.timeline_csv) when the corresponding knob is set. (The trace
/// JSON is written by Machine::run itself.) No-op when all are unset.
void emit_observability(const Config& cli, const armci::World& world);

}  // namespace pgasq::apps
