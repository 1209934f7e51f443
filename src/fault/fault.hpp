// Deterministic fault injection for the simulated interconnect.
//
// The paper's subsystem assumes BG/Q's lossless deterministic-routed
// torus; this module lets the reproduction degrade that assumption on
// purpose. A FaultPlan describes *what* goes wrong — per-link hard
// failure or bandwidth-degradation windows, probabilistic packet drop
// and corruption, async-progress stall windows — and an Injector turns
// the plan into reproducible decisions: every random draw comes from a
// dedicated xoshiro stream seeded by `fault.seed`, and every window is
// expressed in virtual time, so two runs with the same plan fault the
// same packets at the same picoseconds.
//
// Recovery lives in the layers above: topo::Torus5D::route_avoiding
// routes around failed links, noc::NetworkModel consults the injector
// per transfer, and pami::Context retransmits dropped packets under an
// ack/timeout protocol with capped exponential backoff. When a
// context's retry budget is exhausted the failure escalates as a typed
// pgasq::FaultError instead of hanging the simulation.
//
// Zero-cost guarantee: when FaultPlan::enabled() is false, no Injector
// is constructed and every fault hook compares one pointer against
// nullptr — timings are bit-identical to a build without this module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/sinks.hpp"
#include "topo/torus.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/time_types.hpp"

namespace pgasq {
class Config;

/// Escalated fault: a wire leg exhausted its context's retry budget
/// (or the fabric is partitioned beyond route-around). Carries the
/// operation and link context so callers can report what died where.
class FaultError : public Error {
 public:
  FaultError(std::string operation, int src_node, int dst_node,
             std::uint64_t retries, const std::string& what)
      : Error(what),
        operation_(std::move(operation)),
        src_node_(src_node),
        dst_node_(dst_node),
        retries_(retries) {}

  const std::string& operation() const { return operation_; }
  int src_node() const { return src_node_; }
  int dst_node() const { return dst_node_; }
  std::uint64_t retries() const { return retries_; }

 private:
  std::string operation_;
  int src_node_;
  int dst_node_;
  std::uint64_t retries_;
};

/// Escalated *corruption* fault: the retry budget ran out on an attempt
/// whose payload failed CRC verification (as opposed to a plain loss).
/// Also raised by ft::Runtime when every committed checkpoint buffer
/// fails digest validation — in both cases the data cannot be trusted
/// and the run must stop loudly rather than continue on garbage.
class IntegrityError : public FaultError {
 public:
  using FaultError::FaultError;
};

namespace fault {

/// Sentinel for "window never closes".
inline constexpr Time kForever = std::numeric_limits<Time>::max();

/// One faulty physical link. `dir` selects the directed half:
/// +1 / -1 fault only that direction out of `node`; 0 faults the cable
/// between `node` and its +1 neighbour in `dim` in both directions.
struct LinkFaultSpec {
  int node = 0;
  int dim = 0;
  int dir = 0;
  /// Fraction of nominal link bandwidth available inside the window:
  /// 0 = hard failure (traffic must route around), (0,1) = degraded.
  double capacity = 0.0;
  Time begin = 0;
  Time end = kForever;
};

/// The async-progress fiber of `rank` stops advancing in [begin, end).
struct StallSpec {
  int rank = 0;
  Time begin = 0;
  Time end = 0;
};

/// Corruption is injected only inside these virtual-time windows
/// (`fault.corrupt_window`); an empty list means "whole run".
struct CorruptWindow {
  Time begin = 0;
  Time end = kForever;
};

/// Fail-stop node death: at virtual time `at` the node stops executing
/// and all ten of its links go dark, taking every rank it hosts with
/// it. Detection and recovery live in src/ft/ (health monitor,
/// checkpoint/shrink); the injector only holds the ground truth.
struct NodeFailSpec {
  int node = 0;
  Time at = 0;
};

/// Everything that will go wrong in a run, declared up front.
struct FaultPlan {
  /// Seed of the injector's private RNG stream (`fault.seed`).
  std::uint64_t seed = 1;
  /// Per-packet loss probability in the fabric (`fault.drop_prob`).
  double drop_prob = 0.0;
  /// Per-packet silent-corruption probability (`fault.corrupt_prob`):
  /// the fabric flips `corrupt_bits` payload bits and delivers the
  /// packet as if nothing happened. Only payloads large enough to spill
  /// past the link-CRC-protected prefix are eligible (headers, acks,
  /// barrier words and other control packets never corrupt — BG/Q's
  /// per-packet link CRC covers them even on a commodity-model run).
  /// Whether the flip *lands* is up to the integrity layer: with
  /// transport verification on (the default once corruption is
  /// planned), pami::Context detects the bad CRC on delivery and NACKs
  /// for a retransmit; with `integrity.verify=0` the flipped bytes
  /// reach application memory and only the coll/ft defenses stand.
  double corrupt_prob = 0.0;
  /// Bits flipped per corrupted packet (`fault.corrupt_bits`).
  int corrupt_bits = 1;
  /// Windows during which corruption may fire (`fault.corrupt_window`);
  /// empty = always.
  std::vector<CorruptWindow> corrupt_windows;
  std::vector<LinkFaultSpec> link_faults;
  std::vector<StallSpec> stalls;
  /// Fail-stop node deaths (`fault.node_fail`). A dead node black-holes
  /// every transfer that starts or ends on it and blocks all its links
  /// for through-traffic.
  std::vector<NodeFailSpec> node_fails;

  // --- Ack/timeout/retransmit protocol (pami::Context) ------------------
  /// Sender declares a packet lost this long after it drained without
  /// an ack (`fault.ack_timeout_us`).
  Time ack_timeout = from_us(10);
  /// Timeout multiplier per consecutive retransmit of the same leg,
  /// capped at `max_backoff` (`fault.backoff_factor`).
  double backoff_factor = 2.0;
  Time max_backoff = from_us(320);
  /// Total retransmits a single context may spend before escalating to
  /// FaultError (`fault.retry_budget`).
  std::uint64_t retry_budget = 64;
  /// Deterministic per-(rank, attempt) spread applied to each
  /// retransmit timeout, as a fraction in [0, 1)
  /// (`fault.backoff_jitter`). 0 keeps the historical synchronized
  /// backoff — every rank that lost a packet in the same stall window
  /// re-offers it at the same instant, the seed of a retry storm; a
  /// positive spread desynchronizes the retries while staying
  /// bit-reproducible across reruns.
  double backoff_jitter = 0.0;

  /// True when any fault is configured; a disabled plan constructs no
  /// injector and perturbs nothing.
  bool enabled() const {
    return drop_prob > 0.0 || corrupt_prob > 0.0 || !link_faults.empty() ||
           !stalls.empty() || !node_fails.empty();
  }

  /// Parses the `fault.*` keys of a Config:
  ///   fault.seed, fault.drop_prob, fault.corrupt_prob,
  ///   fault.corrupt_bits,
  ///   fault.corrupt_window = "from_us:until_us",...
  ///   fault.link_fail   = "node:dim:dir[:from_us:until_us]",...
  ///   fault.link_degrade= "node:dim:dir:capacity[:from_us:until_us]",...
  ///   fault.stall       = "rank:from_us:until_us",...
  ///   fault.node_fail   = "node:at_us",...
  ///   fault.ack_timeout_us, fault.backoff_factor, fault.max_backoff_us,
  ///   fault.retry_budget, fault.backoff_jitter
  /// where dir is '+', '-' or '*' (both directions of the cable).
  static FaultPlan from_config(const Config& cfg);
};

/// Counters aggregated by the injector across the whole machine; the
/// communication report renders them next to the paper-figure tables.
struct FaultStats {
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_corrupted = 0;
  std::uint64_t retransmits = 0;
  Time backoff_time = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t rerouted_extra_hops = 0;
  std::uint64_t degraded_transfers = 0;
  std::uint64_t progress_stalls = 0;
  Time stall_time = 0;
};

/// Outcome of one packet's trip through the fabric.
enum class PacketFate { kDelivered, kDropped, kCorrupted };

/// Turns a FaultPlan into deterministic per-packet / per-link / per-
/// fiber decisions and accounts every injected and recovered fault.
class Injector {
 public:
  /// With a trace recorder in `sinks`, injected and recovered faults
  /// are mirrored as instant markers on a dedicated "faults" trace
  /// track (chrome://tracing / Perfetto).
  Injector(FaultPlan plan, const topo::Torus5D& torus, const obs::Sinks& sinks);
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  /// Instant marker on the same "faults" track for the layers above
  /// (node-death declarations, epoch bumps, checkpoint commits). Const
  /// because the health monitor holds the injector by const reference;
  /// no-op when untraced.
  void trace_mark(const char* name, Time at) const;

  // --- Packet fate ------------------------------------------------------
  /// Rolls the *drop* fate for one packet injected at `now`. Consumes
  /// the primary RNG stream only when a drop probability is configured,
  /// so plans that only fail links stay on the untouched random stream
  /// — and corruption draws live on a separate stream (roll_corrupt),
  /// so adding a corruption plan does not perturb which packets drop.
  PacketFate roll_packet(Time now);

  /// Rolls corruption for one *delivered* packet injected at `now`.
  /// Returns 0 for a clean packet, or a nonzero flip token that
  /// deterministically seeds the bit-flip pattern (see apply_bit_flips).
  /// Draws from a dedicated corruption stream; callers gate on payload
  /// eligibility (noc::NetworkModel::roll_fate) so the stream advances
  /// identically whether or not transport verification is on.
  std::uint64_t roll_corrupt(Time now);

  // --- Link failure windows --------------------------------------------
  bool has_link_faults() const { return !by_link_.empty(); }
  /// Hard failure: the link cannot carry traffic at `now`.
  bool link_blocked(const topo::Link& link, Time now) const;
  /// Usable fraction of nominal bandwidth at `now` (1.0 = healthy,
  /// 0.0 = hard-failed).
  double link_capacity(const topo::Link& link, Time now) const;
  bool route_blocked(const std::vector<topo::Link>& route, Time now) const;

  // --- Fail-stop node deaths (ground truth) -----------------------------
  bool has_node_fails() const { return !plan_.node_fails.empty(); }
  /// True once `node`'s fail-stop time has passed. This is the fabric's
  /// ground truth; the *declared* liveness view ranks act on lives in
  /// ft::HealthMonitor and lags by the detection delay.
  bool node_dead(int node, Time now) const;
  /// Virtual time `node` dies, or kForever when it never does.
  Time node_fail_time(int node) const;

  // --- Progress stalls --------------------------------------------------
  /// End of the stall window covering (rank, now); returns `now` when
  /// the rank's progress fiber is free to advance.
  Time stalled_until(int rank, Time now) const;
  void record_stall(Time from, Time until);

  // --- Recovery accounting (called by noc / pami) -----------------------
  void record_retransmit(Time backoff, Time now);
  void record_reroute(std::size_t extra_hops, Time now);
  void record_degraded_transfer(Time now);

  /// Pairwise in-order delivery under retransmission: deterministic
  /// routing guarantees per-(src,dst) packet order on healthy BG/Q, and
  /// the recovery protocol preserves it with sequence numbers — a
  /// retransmitted packet holds later ones at the receiver until the
  /// gap fills. Returns `arrive` clamped to the pair's reorder floor;
  /// only a retransmitted packet raises that floor (clean traffic must
  /// not, because replies are timed ahead of wall-clock and would drag
  /// every later packet on the pair out to their arrival).
  Time in_order_arrival(int src_node, int dst_node, Time arrive, bool retransmitted);

 private:
  struct Window {
    Time begin;
    Time end;
    double capacity;
  };

  FaultPlan plan_;
  const topo::Torus5D& torus_;
  Rng rng_;
  /// Dedicated corruption stream: derived from the plan seed but
  /// independent of rng_, so corruption plans leave drop/link draws
  /// byte-identical to a corruption-free run.
  Rng crng_;
  /// Directed-link index -> fault windows affecting it.
  std::unordered_map<int, std::vector<Window>> by_link_;
  /// (src_node, dst_node) -> reorder floor: the latest arrival of a
  /// retransmitted packet, which later packets may not undercut.
  std::unordered_map<std::uint64_t, Time> last_arrival_;
  FaultStats stats_;
  sim::TraceRecorder* trace_ = nullptr;
  std::uint32_t track_ = 0;
};

/// Applies `nbits` bit flips, derived deterministically from a nonzero
/// flip `token`, to data[skip, bytes). The same token always flips the
/// same bits, so a run is reproducible regardless of whether the
/// verification layer catches the flip or lets it land.
void apply_bit_flips(std::uint64_t token, int nbits, std::byte* data,
                     std::size_t bytes, std::size_t skip);

}  // namespace fault
}  // namespace pgasq
