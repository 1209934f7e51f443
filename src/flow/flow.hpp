// Overload control and graceful degradation: credit-based
// backpressure, deadline propagation, admission control, and
// retry-budget jitter.
//
// BG/Q's torus carries hardware token/credit flow control per link, so
// a saturated receiver throttles its senders at wire speed and
// injection FIFOs never grow without bound. The reproduction's
// software fabric has no such mechanism: a rank offered more work than
// it can drain simply queues it, latency grows with the backlog, and a
// retry burst after a stall window can self-sustain into a metastable
// collapse (every client re-offers the same work at the same instant
// forever). This module is the software analogue of the torus credits
// plus the server-side defenses a service needs on top:
//
//   * credits — each (src, dst) rank pair has a bounded window of
//     in-flight wire transfers (`flow.credits`). noc::NetworkModel
//     consults the Controller before injecting: when the window is
//     full the injection start is pushed to the earliest outstanding
//     delivery, which is exactly a sender blocking on a returned
//     token. Control traffic (acks, nacks, rmw replies) is exempt so
//     backpressure can never deadlock the release path.
//   * deadlines — requests may carry an absolute virtual-time deadline
//     (pami::AmMessage / Context items). Work that arrives at the
//     server after its deadline is dropped *before* it is serviced —
//     the cheapest place to shed load — and the client sees a typed
//     DeadlineError instead of a late answer it can no longer use.
//   * admission — an AIMD limiter (client side, src/kvs) bounds the
//     backlog an open-loop client will accept before shedding new
//     arrivals, low-priority class first. Shedding at admission keeps
//     the goodput curve flat past saturation instead of collapsing.
//   * retry jitter — deterministic per-(seed, rank, attempt) jitter
//     desynchronizes exponential backoff so a shared stall window does
//     not seed a synchronized retry storm (see flow::jitter and
//     fault.backoff_jitter).
//
// Zero-cost guarantee: pami::Machine constructs a Controller only when
// some flow.* knob enables it; every hook in noc/pami is one pointer
// test against nullptr, and runs with flow.* unset are byte-identical
// to a build without this module.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "fault/fault.hpp"
#include "obs/sinks.hpp"
#include "util/histogram.hpp"
#include "util/time_types.hpp"

namespace pgasq {
class Config;

namespace flow {

/// Escalated overload fault: a request's absolute virtual-time
/// deadline passed before the work completed — either shed
/// server-side before servicing or detected client-side on the reply.
/// A FaultError subclass so existing fault recovery paths (guarded
/// bodies, fail-stop handlers) catch it without new plumbing.
class DeadlineError : public FaultError {
 public:
  using FaultError::FaultError;
};

/// Sentinel rmw "old value" reply meaning the service shed the request
/// at the server because its deadline had expired. Real rmw words are
/// application counters/versions; INT64_MIN is unreachable for all
/// current users (slot versions and faa counters start small and grow).
inline constexpr std::int64_t kExpiredRmw =
    std::numeric_limits<std::int64_t>::min();

/// Parsed `flow.*` knobs. `configured` is true when any flow.* key was
/// present; the machine builds a Controller only when enabled().
struct FlowConfig {
  bool configured = false;
  /// Per-(src,dst) in-flight wire-transfer window (`flow.credits`).
  /// 0 = no credit gating.
  int credits = 0;
  /// Request deadline in virtual microseconds (`flow.deadline_us`),
  /// applied by clients that opt in (src/kvs open-loop driver).
  /// 0 = no deadline propagation.
  double deadline_us = 0.0;
  /// Client-side AIMD admission control on the open-loop backlog
  /// (`flow.admit`). Off by default even when flow is configured.
  bool admit = false;
  /// AIMD initial / max backlog limit and step sizes
  /// (`flow.init_limit`, `flow.max_limit`, `flow.aimd_inc`,
  /// `flow.aimd_dec`).
  int init_limit = 4;
  int max_limit = 64;
  double aimd_inc = 1.0;
  double aimd_dec = 0.5;
  /// Fraction of requests tagged low-priority and shed first under
  /// admission pressure (`flow.low_prio_frac`).
  double low_prio_frac = 0.0;
  /// Per-op client retry budget and jittered exponential backoff for
  /// application-level retries (KVS CAS/version spins):
  /// `flow.retry_budget`, `flow.retry_backoff_us`,
  /// `flow.retry_max_backoff_us`. retry_budget 0 = unbounded spins
  /// with no backoff (the pre-flow behaviour).
  int retry_budget = 0;
  double retry_backoff_us = 2.0;
  double retry_max_backoff_us = 256.0;
  /// Seed for all deterministic flow randomness (jitter, priority
  /// draws): `flow.seed`.
  std::uint64_t seed = 1;

  /// True when any knob activates a machine-level hook.
  bool enabled() const { return credits > 0 || deadline_us > 0.0; }

  Time deadline() const { return deadline_us > 0.0 ? from_us(deadline_us) : 0; }

  /// Parse `flow.*` keys.
  static FlowConfig from_config(const Config& config);
};

/// Counters + occupancy histogram for the report. Mutated on hot paths
/// through Controller::stats(); aggregated machine-wide (the
/// Controller is a singleton per Machine, like fault::Injector).
struct FlowStats {
  /// Wire injections delayed because the (src,dst) credit window was
  /// full, and the total virtual time spent waiting for a credit.
  std::uint64_t credit_stalls = 0;
  Time credit_stall_time{0};
  /// Requests shed server-side because they arrived past deadline.
  std::uint64_t expired_server = 0;
  /// Requests abandoned client-side (deadline passed while queued or
  /// detected on reply).
  std::uint64_t expired_client = 0;
  /// Requests shed by the admission controller before issue.
  std::uint64_t shed_low_prio = 0;
  std::uint64_t shed_high_prio = 0;
  /// Ops that exhausted their flow.retry_budget.
  std::uint64_t retry_budget_exhausted = 0;
  /// Occupancy of the (src,dst) credit window sampled at each acquire.
  util::Histogram queue_depth;
};

/// Machine-level flow controller: the per-(src,dst) credit ledger plus
/// shared stats and trace hooks. Owned by pami::Machine; noc and pami
/// hold non-owning pointers (nullptr when flow is off).
///
/// The ledger is deterministic local state in the style of
/// NetworkModel::claim_injection's nic_free_ horizon: no engine
/// events, just delivery-time horizons per pair, so identical call
/// sequences yield identical grants and byte-identical reports.
class Controller {
 public:
  /// Stalls, sheds and expiries land as instants on a "flow" trace
  /// track, like fault::Injector's "faults" track; the timeline gets the
  /// credit-window occupancy per acquire plus stall/shed/expiry counters.
  Controller(const FlowConfig& cfg, int num_ranks, const obs::Sinks& sinks);

  const FlowConfig& config() const { return cfg_; }
  FlowStats& stats() { return stats_; }
  const FlowStats& stats() const { return stats_; }

  /// Earliest time >= start at which (src,dst) holds a free credit.
  /// Samples window occupancy into the queue-depth histogram and
  /// counts a stall when the window is full. No-op (returns start)
  /// when credits are off.
  Time acquire(int src, int dst, Time start);

  /// Record a granted transfer's delivery time: the credit returns to
  /// the window at `arrive`. Dropped transfers release too — the
  /// window models the sender-local in-flight budget, not delivery
  /// success.
  void release(int src, int dst, Time arrive);

  /// Server-side deadline check: true when the item should be shed.
  /// Counts and (when traced) marks the shed on the flow track.
  bool expired_at_server(Time deadline, Time now);

  /// Count + mark a client-side expiry.
  void note_client_expiry(Time now);

 private:
  FlowConfig cfg_;
  FlowStats stats_;
  /// Outstanding delivery horizons per directed pair, ring-buffered:
  /// pair p's window holds up to cfg_.credits delivery times; a slot
  /// <= now is a free credit.
  std::vector<std::vector<Time>> window_;
  std::vector<std::uint32_t> head_;  // oldest outstanding slot per pair
  std::vector<std::uint32_t> count_;  // outstanding entries per pair
  int num_ranks_ = 0;
  sim::TraceRecorder* trace_;
  std::uint32_t track_ = 0;
  obs::Timeline* timeline_;
  std::uint32_t tl_window_;
  std::uint32_t tl_stalls_;
  std::uint32_t tl_shed_server_;
  std::uint32_t tl_expired_client_;

  std::size_t pair_index(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(num_ranks_) +
           static_cast<std::size_t>(dst);
  }
};

/// Deterministic jitter in [1 - spread, 1 + spread]: a pure function
/// of (seed, rank, attempt), so reruns are byte-identical and distinct
/// ranks draw distinct factors — the property that breaks synchronized
/// retry storms. spread <= 0 returns exactly 1.0 (bit-identical to the
/// unjittered path).
double jitter(std::uint64_t seed, int rank, std::uint64_t attempt,
              double spread);

/// Client-side AIMD admission limiter over a backlog depth. Additive
/// increase on success (deadline met), multiplicative decrease on
/// overload signal (deadline missed / shed). Plain deterministic
/// arithmetic — per-rank instances, no shared state.
class AdmissionController {
 public:
  AdmissionController(const FlowConfig& cfg)
      : cfg_(cfg), limit_(static_cast<double>(cfg.init_limit)) {}

  /// Current integral backlog limit.
  int limit() const { return static_cast<int>(limit_); }

  /// True when a request may be admitted at the given backlog depth.
  bool admit(int backlog) const { return backlog < limit(); }

  void on_success() {
    limit_ = std::min(limit_ + cfg_.aimd_inc,
                      static_cast<double>(cfg_.max_limit));
  }
  void on_overload() { limit_ = std::max(1.0, limit_ * cfg_.aimd_dec); }

 private:
  FlowConfig cfg_;
  double limit_;
};

/// Per-op retry budget with deterministically-jittered exponential
/// backoff. next_backoff() returns 0 once the budget is exhausted —
/// the caller should then give up (DeadlineError) rather than spin.
class RetryBudget {
 public:
  RetryBudget(const FlowConfig& cfg, int rank, std::uint64_t op_id)
      : cfg_(cfg), rank_(rank), op_id_(op_id) {}

  /// True while another retry is allowed.
  bool allow() const {
    return cfg_.retry_budget <= 0 ||
           used_ < static_cast<std::uint64_t>(cfg_.retry_budget);
  }

  /// Jittered, capped exponential backoff for the next retry; counts
  /// the attempt. Zero when retry_budget is 0 (pre-flow spin).
  Time next_backoff() {
    if (cfg_.retry_budget <= 0) return 0;
    const double base =
        cfg_.retry_backoff_us *
        static_cast<double>(std::uint64_t{1} << std::min<std::uint64_t>(used_, 20));
    const double capped = std::min(base, cfg_.retry_max_backoff_us);
    const double j = jitter(cfg_.seed ^ op_id_, rank_, used_, 0.5);
    ++used_;
    return from_us(capped * j);
  }

  std::uint64_t used() const { return used_; }

 private:
  FlowConfig cfg_;
  int rank_;
  std::uint64_t op_id_;
  std::uint64_t used_ = 0;
};

}  // namespace flow
}  // namespace pgasq
