#include "ft/liveness.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pgasq::ft {

HealthMonitor::HealthMonitor(LivenessConfig config, const fault::Injector& injector,
                             const topo::RankMapping& mapping, const obs::Sinks& sinks)
    : config_(std::move(config)),
      injector_(injector),
      mapping_(mapping),
      live_ranks_(mapping.num_ranks()),
      timeline_(sinks.timeline) {
  PGASQ_CHECK(config_.suspect_acks >= 1, << "ft.suspect_acks must be >= 1");
  PGASQ_CHECK(config_.heartbeat_period > 0 && config_.heartbeat_timeout > 0,
              << "ft heartbeat knobs must be positive");
  // Size the per-node tables by the highest node a rank lives on —
  // the torus may be larger than the populated prefix.
  int max_node = 0;
  for (int r = 0; r < mapping_.num_ranks(); ++r) {
    max_node = std::max(max_node, mapping_.node_of_rank(r));
  }
  dead_nodes_.assign(static_cast<std::size_t>(max_node) + 1, false);
  missed_acks_.assign(dead_nodes_.size(), 0);
  // Count the deaths the plan schedules against populated nodes; the
  // heartbeat tick lives only until all of them are declared.
  std::size_t scheduled = 0;
  for (const auto& n : injector_.plan().node_fails) {
    if (n.node <= max_node) ++scheduled;
  }
  scheduled_ = scheduled;
  tl_lag_ = timeline_->series("ft.heartbeat_lag_us", obs::Timeline::Kind::kGauge);
}

std::vector<int> HealthMonitor::live_ranks() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(live_ranks_));
  for (int r = 0; r < mapping_.num_ranks(); ++r) {
    if (!rank_declared_dead(r)) out.push_back(r);
  }
  return out;
}

int HealthMonitor::lowest_live_rank() const {
  for (int r = 0; r < mapping_.num_ranks(); ++r) {
    if (!rank_declared_dead(r)) return r;
  }
  PGASQ_CHECK(false, << "ft: every rank is dead");
  return -1;
}

void HealthMonitor::probe(Time now) {
  if (!deaths_pending()) return;
  injector_.trace_mark("heartbeat probe", now);
  Time worst_lag = 0;
  for (const auto& n : injector_.plan().node_fails) {
    if (n.node >= static_cast<int>(dead_nodes_.size())) continue;
    if (dead_nodes_[static_cast<std::size_t>(n.node)]) continue;
    if (n.at <= now) worst_lag = std::max(worst_lag, now - n.at);
    if (n.at + config_.heartbeat_timeout <= now) declare_dead(n.node, now);
  }
  // Detection lag: how long the oldest truth-dead, still-undeclared
  // node has been silent at this probe.
  timeline_->sample(tl_lag_, now, to_us(worst_lag));
}

bool HealthMonitor::report_timeout(int suspect_node, Time now) {
  // Only a genuinely fail-stopped node accumulates suspicion: transient
  // packet drops under a combined plan must keep escalating through the
  // retry budget, not get a live peer declared dead.
  if (suspect_node >= static_cast<int>(missed_acks_.size())) return false;
  if (!injector_.node_dead(suspect_node, now)) return false;
  if (dead_nodes_[static_cast<std::size_t>(suspect_node)]) return true;
  if (++missed_acks_[static_cast<std::size_t>(suspect_node)] < config_.suspect_acks) {
    return false;
  }
  declare_dead(suspect_node, now);
  return true;
}

void HealthMonitor::add_epoch_listener(std::function<void()> fn) {
  listeners_.push_back(std::move(fn));
}

void HealthMonitor::declare_dead(int node, Time now) {
  dead_nodes_[static_cast<std::size_t>(node)] = true;
  ++declared_;
  ++epoch_;
  int lost = 0;
  for (int r = 0; r < mapping_.num_ranks(); ++r) {
    if (mapping_.node_of_rank(r) == node) ++lost;
  }
  live_ranks_ -= lost;
  PGASQ_CHECK(live_ranks_ > 0, << "ft: node " << node
                               << " death leaves no live ranks");
  ++stats_.detections;
  stats_.ranks_lost += static_cast<std::uint64_t>(lost);
  const Time fail_at = injector_.node_fail_time(node);
  if (fail_at != fault::kForever && now > fail_at) {
    stats_.detection_delay += now - fail_at;
  }
  injector_.trace_mark("node death declared", now);
  injector_.trace_mark("epoch bump", now);
  for (const auto& fn : listeners_) fn();
}

}  // namespace pgasq::ft
