// Post-run communication report: a World's aggregated statistics —
// operation mix, protocol routing, bytes, blocking-time breakdown,
// collectives, fault/recovery/flow tables, message-size distributions —
// flattened into one obs::Registry. That registry is serialized as a
// versioned JSON document ({"schema":"pgasq.report","schema_version":N,
// ...}), which the benchmark harness writes per run (report.json_path /
// BENCH_*.json), and rendered as the text summary a communication
// runtime prints at finalize.
#pragma once

#include <string>

#include "core/world.hpp"
#include "obs/json.hpp"

namespace pgasq::armci {

/// Renders the report as plain text.
std::string render_report(const World& world);

/// Bumped whenever the JSON layout changes incompatibly. Consumers
/// (tools/validate_trace.py, plotting scripts) check this first.
inline constexpr int kReportSchemaVersion = 1;

/// The full JSON document: schema header, machine shape, elapsed
/// virtual time, the registry metrics, per-link accounting (when
/// obs.links recorded any), and trace recorder status (when tracing).
obs::Json render_json_report(const World& world);

/// Writes render_json_report to `path`; throws on I/O failure.
void write_json_report(const World& world, const std::string& path);

}  // namespace pgasq::armci
