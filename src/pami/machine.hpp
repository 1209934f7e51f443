// The simulated Blue Gene/Q partition: engine + torus + network model
// + one Process per rank, with an SPMD launcher.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/integrity.hpp"
#include "flow/flow.hpp"
#include "ft/liveness.hpp"
#include "noc/network.hpp"
#include "noc/parameters.hpp"
#include "obs/critpath.hpp"
#include "obs/link_usage.hpp"
#include "obs/sinks.hpp"
#include "pami/process.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "topo/torus.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace pgasq::pami {

struct MachineConfig {
  /// Total processes p (Table I). ranks_per_node is c.
  int num_ranks = 2;
  int ranks_per_node = 1;
  /// "loggp" or "contention".
  std::string network_model = "loggp";
  noc::BgqParameters params{};
  /// Torus shape override; otherwise the BG/Q partition table (or a
  /// balanced factorization) picks the shape for num_ranks/ranks_per_node.
  std::optional<topo::Coord5> dims;
  /// Per-process PAMI memregion limit (at-scale registration failure).
  std::size_t max_memregions_per_rank = static_cast<std::size_t>(-1);
  std::size_t fiber_stack_bytes = 256 * 1024;
  std::uint64_t seed = 42;
  /// Fault-injection plan (disabled by default: a disabled plan builds
  /// no injector and leaves every timing bit-identical).
  fault::FaultPlan fault{};
  /// Fail-stop detection knobs; consulted only when the fault plan
  /// schedules node deaths (otherwise no health monitor is built).
  ft::LivenessConfig ft{};
  /// End-to-end integrity knobs (integrity.*). The Integrity layer is
  /// built when corruption is planned (fault.corrupt_prob > 0) or when
  /// any integrity key is set explicitly; otherwise every hook is one
  /// null check and timings stay bit-identical.
  fault::IntegrityConfig integrity{};
  /// Non-empty: record a Chrome trace-event JSON of fiber activity,
  /// message flows, and fault markers in virtual time and write it
  /// here when the run completes (trace.json_path).
  std::string trace_json_path;
  /// Event cap for the recorder (trace.max_events); hitting it warns
  /// and sets the "trace truncated" report row.
  std::size_t trace_max_events = sim::TraceRecorder::kDefaultMaxEvents;
  /// trace.sample_ranks: when > 0, trace at most this many ranks — a
  /// deterministic stride subset including rank 0 — and mute every
  /// other rank's tracks. 0 traces all ranks. Keeps large-p trace
  /// files bounded; cross-rank flows into unsampled ranks are pruned.
  int trace_sample_ranks = 0;
  /// trace.aggregate: record per-(track, event) latency histograms
  /// instead of individual events — O(series), not O(events), memory,
  /// so multi-thousand-rank runs stay traceable. The JSON keeps the
  /// {"traceEvents": []} envelope and adds "aggregates"/"instants".
  bool trace_aggregate = false;
  /// Observability knobs (obs.*): per-link byte accounting & heatmap.
  obs::Options obs{};
  /// Overload-control knobs (flow.*). The Controller is built only
  /// when a knob enables it (credits or deadlines); otherwise every
  /// hook is one null check and timings stay bit-identical.
  flow::FlowConfig flow{};
};

/// Applies the trace.* and obs.* config namespaces onto `config`:
/// trace.json_path, trace.max_events, trace.sample_ranks,
/// trace.aggregate, obs.links, obs.link_bucket_us, obs.link_top,
/// obs.timeline, obs.timeline_bucket_us, obs.timeline_max_series,
/// obs.timeline_top, obs.critpath, obs.critpath_top.
void configure_observability(const Config& cfg, MachineConfig& config);

/// Pre-registered timeline series for the pami layer's hot paths (one
/// string lookup at machine construction, plain index stores after).
struct PamiTimelineIds {
  obs::Timeline::SeriesId pending_ops = obs::Timeline::kNone;
  obs::Timeline::SeriesId retransmits = obs::Timeline::kNone;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Engine& engine() { return engine_; }
  noc::NetworkModel& network() { return *network_; }
  const noc::NetworkModel& network() const { return *network_; }
  /// Active fault injector, or nullptr when the fault plan is disabled.
  fault::Injector* injector() { return injector_.get(); }
  const fault::Injector* injector() const { return injector_.get(); }
  /// Health monitor, or nullptr unless the plan schedules node deaths.
  ft::HealthMonitor* monitor() { return monitor_.get(); }
  const ft::HealthMonitor* monitor() const { return monitor_.get(); }
  /// Integrity layer (CRC-verified transport, slot checksums,
  /// checkpoint digests), or nullptr when the subsystem is off.
  fault::Integrity* integrity() { return integrity_.get(); }
  const fault::Integrity* integrity() const { return integrity_.get(); }
  /// Every sink of this run, as handed to the feeders built here;
  /// feeders built later (pami contexts, collectives, kvs, async) read
  /// them from this. The accessors below give the report read access.
  const obs::Sinks& sinks() const { return sinks_; }
  /// Active trace recorder, or nullptr when tracing is off.
  const sim::TraceRecorder* trace() const { return trace_.get(); }
  /// Per-link byte accounting, or nullptr when obs.links is off.
  const obs::LinkUsage* link_usage() const { return link_usage_.get(); }
  /// Continuous time-series telemetry, or nullptr when obs.timeline is
  /// off.
  const obs::Timeline* timeline() const { return timeline_.enabled() ? &timeline_ : nullptr; }
  const PamiTimelineIds& timeline_ids() const { return timeline_ids_; }
  /// Critical-path attribution, or nullptr when obs.critpath is off.
  const obs::CritPath* critpath() const { return critpath_.get(); }
  /// Overload controller (credit ledger, deadline/shed counters), or
  /// nullptr when no flow.* knob enables it.
  flow::Controller* flow() { return flow_.get(); }
  const flow::Controller* flow() const { return flow_.get(); }
  /// Trace track carrying rank `r`'s network flow endpoints
  /// ("net@rank<r>"); only valid while tracing.
  std::uint32_t rank_track(RankId rank) const;
  /// True when rank `r` is in the traced subset (always true unless
  /// trace.sample_ranks restricts tracing to a stride sample).
  bool rank_traced(RankId rank) const;
  const topo::Torus5D& torus() const { return torus_; }
  const topo::RankMapping& mapping() const { return mapping_; }
  const MachineConfig& config() const { return config_; }
  const noc::BgqParameters& params() const { return config_.params; }

  int num_ranks() const { return config_.num_ranks; }
  Process& process(RankId rank);

  /// Spawns one main fiber per rank running `rank_main`, then runs the
  /// simulation to completion. Throws whatever a rank program threw.
  void run(std::function<void(Process&)> rank_main);

  /// Spawns an extra simulated SMT thread bound to `process`
  /// (asynchronous progress threads use this).
  sim::Fiber& spawn_thread(Process& process, const std::string& name,
                           std::function<void()> body);

  Rng& rng() { return rng_; }

 private:
  static topo::Coord5 pick_dims(const MachineConfig& config);

  MachineConfig config_;
  topo::Torus5D torus_;
  topo::RankMapping mapping_;
  // The sinks, built before every subsystem that feeds them.
  std::unique_ptr<sim::TraceRecorder> trace_;
  std::vector<std::uint32_t> net_tracks_;  // per-rank flow tracks
  std::unique_ptr<obs::LinkUsage> link_usage_;
  obs::Timeline timeline_;  // disabled when obs.timeline is off
  std::unique_ptr<obs::CritPath> critpath_;
  obs::Sinks sinks_;
  PamiTimelineIds timeline_ids_;
  sim::Engine engine_;
  std::unique_ptr<noc::NetworkModel> network_;
  std::unique_ptr<fault::Injector> injector_;
  std::unique_ptr<ft::HealthMonitor> monitor_;
  std::unique_ptr<fault::Integrity> integrity_;
  std::unique_ptr<flow::Controller> flow_;
  std::vector<std::unique_ptr<Process>> processes_;
  Rng rng_;
};

}  // namespace pgasq::pami
