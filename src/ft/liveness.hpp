// Fail-stop liveness layer: detection and the epoch-stamped view.
//
// The fault layer (src/fault/) holds the *ground truth* of node death
// (NodeFailSpec: node n dies at virtual time T, all its links go
// dark). Nobody in the simulated software stack is allowed to read
// that truth directly to make progress decisions — ranks act only on
// the *declared* liveness view published here, which lags the truth by
// a detection delay, exactly like a real machine.
//
// Detection has two inputs, both riding existing mechanisms:
//  * missed acks — every wire leg in pami::Context already runs an
//    ack/timeout/retransmit loop; when the timed-out endpoint is a
//    fail-stopped node, the timeout is reported here and the
//    suspect_acks'th consecutive miss declares the node dead;
//  * missed heartbeats — a monitor tick riding the async-progress
//    fibers (core/comm.cpp) probes for nodes silent longer than
//    heartbeat_timeout, covering ranks with no traffic toward the
//    dead node.
//
// A declaration bumps the liveness epoch and notifies listeners (the
// World invalidates barrier state and wakes parked fibers). Every
// blocking progress loop compares the epoch against the last epoch its
// rank acknowledged and unwinds with PeerDeadError on a change; the
// recovery runtime (src/ft/recovery.hpp) catches it and runs the
// checkpoint-rollback / communicator-shrink protocol.
//
// Zero-cost guarantee: with no fault.node_fail specs no monitor is
// constructed and every hook in the progress hot path is one nullptr
// comparison (same contract as fault::Injector).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/sinks.hpp"
#include "topo/torus.hpp"
#include "util/time_types.hpp"


namespace pgasq::ft {

/// Typed escalation for fail-stop faults: the operation's peer (or the
/// initiator's own node) has been declared dead, or the liveness epoch
/// moved while the operation was blocked. Derives from FaultError so
/// existing "a fault killed this op" handling still catches it.
class PeerDeadError : public FaultError {
 public:
  PeerDeadError(std::string operation, int src_node, int dst_node,
                std::uint64_t epoch, const std::string& what)
      : FaultError(std::move(operation), src_node, dst_node, /*retries=*/0, what),
        epoch_(epoch) {}

  /// Liveness epoch at the time of the throw.
  std::uint64_t epoch() const { return epoch_; }

 private:
  std::uint64_t epoch_;
};

/// Recovery accounting, rendered by report.cpp as the recovery table.
struct FtStats {
  std::uint64_t detections = 0;       ///< declared node deaths
  Time detection_delay = 0;           ///< sum of declare_time - fail_time
  std::uint64_t ranks_lost = 0;       ///< ranks on declared-dead nodes
  std::uint64_t quarantined_ops = 0;  ///< ops refused against dead peers
  std::uint64_t checkpoints = 0;      ///< committed coordinated checkpoints
  std::uint64_t checkpoint_bytes = 0; ///< shard bytes shipped to buddies
  std::uint64_t rollbacks = 0;        ///< recovery rounds completed
  std::uint64_t rollback_ranks = 0;   ///< survivor ranks rolled back (sum)
  Time recovery_time = 0;             ///< virtual time inside recovery rounds
};

/// Detection knobs (`ft.*` keys; see ft::RuntimeConfig::from_config).
struct LivenessConfig {
  /// Consecutive missed acks on wire legs toward one node before it is
  /// declared dead (`ft.suspect_acks`).
  std::uint64_t suspect_acks = 3;
  /// Cadence of the heartbeat tick riding the progress fibers
  /// (`ft.heartbeat_period_us`).
  Time heartbeat_period = from_us(50);
  /// A node silent this long is declared dead even with no traffic
  /// toward it (`ft.heartbeat_timeout_us`).
  Time heartbeat_timeout = from_us(200);
};

/// Machine-wide health monitor. Built by pami::Machine only when the
/// fault plan schedules node deaths.
class HealthMonitor {
 public:
  /// Each probe samples the worst undeclared-death lag into the
  /// timeline ("ft.heartbeat_lag_us").
  HealthMonitor(LivenessConfig config, const fault::Injector& injector,
                const topo::RankMapping& mapping, const obs::Sinks& sinks);
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  const LivenessConfig& config() const { return config_; }

  // --- The epoch-stamped liveness view ----------------------------------
  /// Bumped on every declaration. Ranks compare against their last
  /// acknowledged epoch and abort blocked work on a change.
  std::uint64_t epoch() const { return epoch_; }
  bool node_declared_dead(int node) const {
    return dead_nodes_[static_cast<std::size_t>(node)];
  }
  bool rank_declared_dead(int rank) const {
    return node_declared_dead(mapping_.node_of_rank(rank));
  }
  int live_rank_count() const { return live_ranks_; }
  /// World ranks on live nodes, ascending.
  std::vector<int> live_ranks() const;
  int lowest_live_rank() const;

  // --- Detection inputs -------------------------------------------------
  /// Heartbeat sweep: declares any truth-dead node whose heartbeats
  /// have been missing longer than heartbeat_timeout at `now`.
  void probe(Time now);
  /// A wire-leg ack toward `suspect` timed out at `now`. Returns true
  /// when this miss crossed suspect_acks and declared the node dead.
  bool report_timeout(int suspect_node, Time now);
  /// True when any scheduled death has not been declared yet — the
  /// heartbeat tick keeps rescheduling itself only while this holds.
  bool deaths_pending() const { return declared_ < scheduled_; }
  /// Node deaths the fault plan schedules over the whole run (recovery
  /// sizes checkpoint arenas for the worst surviving membership).
  std::size_t scheduled_deaths() const { return scheduled_; }

  /// Called synchronously on every declaration (after the epoch bump).
  /// The World uses this to reset in-flight barrier state and wake
  /// parked fibers so they observe the new epoch.
  void add_epoch_listener(std::function<void()> fn);

  FtStats& stats() { return stats_; }
  const FtStats& stats() const { return stats_; }

  const topo::RankMapping& mapping() const { return mapping_; }
  /// The fault layer's ground truth (also carries the shared "faults"
  /// trace track for recovery-protocol markers).
  const fault::Injector& injector() const { return injector_; }

 private:
  void declare_dead(int node, Time now);

  LivenessConfig config_;
  const fault::Injector& injector_;
  const topo::RankMapping& mapping_;
  std::uint64_t epoch_ = 0;
  std::vector<bool> dead_nodes_;
  std::vector<std::uint64_t> missed_acks_;
  int live_ranks_;
  std::size_t scheduled_;
  std::size_t declared_ = 0;
  std::vector<std::function<void()>> listeners_;
  FtStats stats_;
  obs::Timeline* timeline_;
  std::uint32_t tl_lag_;
};

}  // namespace pgasq::ft
