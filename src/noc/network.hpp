// Interconnect timing models.
//
// A NetworkModel answers one question: if a message of `bytes` payload
// leaves node `src` for node `dst` starting at virtual time `start`,
// when has it drained from the source (link injection complete) and
// when does its last byte arrive at the destination NIC? Two models
// are provided:
//
//  * LogGPModel — stateless LogGP with torus hop latency; matches the
//    analytical model of S III-C (Eqs 7-9).
//  * LinkContentionModel — additionally reserves every directed link
//    on the deterministic dimension-order route, modelling cut-through
//    (wormhole) flow with per-link bandwidth occupancy; used for the
//    network-model sensitivity ablation.
//
// Intra-node transfers take a shared-memory path in both models.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "flow/flow.hpp"
#include "noc/parameters.hpp"
#include "obs/link_usage.hpp"
#include "obs/sinks.hpp"
#include "topo/torus.hpp"
#include "util/time_types.hpp"

namespace pgasq::noc {

/// Timing result of one message transfer.
struct Transfer {
  Time inject_done;  ///< source link drained; safe for local-completion
  Time arrive;       ///< last byte at destination NIC
  /// Fault injection only: the packet was lost in the fabric. The times
  /// above are where it *would* have drained/arrived; the pami layer's
  /// ack/timeout/retransmit protocol decides what happens next.
  bool dropped = false;
  /// Fault injection only: the packet arrives with flipped payload bits.
  /// `corrupt_token` seeds the deterministic flip pattern
  /// (fault::apply_bit_flips). Whether the flip is caught (CRC verify +
  /// NACK) or lands in memory is the integrity layer's call.
  bool corrupted = false;
  std::uint64_t corrupt_token = 0;
  /// --- Injection diagnostics (obs::CritPath segment attribution) ---
  /// When source-link serialization actually began (after credit gate
  /// and NIC-busy wait); 0 for shared-memory copies.
  Time inject_begin = 0;
  /// Nominal (undegraded) serialization cost of this message; the
  /// excess drain time of a degraded link lands in the wire segment.
  Time ser_nominal = 0;
  /// Densest link on the route: the worst-degraded link under faults,
  /// the longest-waited link under contention, else the first hop.
  /// -1 when no torus link was crossed (shm) or no route was computed.
  int bottleneck_link = -1;
  /// Worst per-link capacity factor on the path (< 1.0 means the
  /// route crossed a degraded/faulted link).
  double route_capacity = 1.0;
};

/// Options for a single transfer.
struct TransferOptions {
  /// Control packets (get requests, AM headers without payload) are
  /// always packet-aligned and never pay the alignment penalty.
  bool is_control = false;
  /// Application payload bytes eligible for silent corruption. The
  /// link-level CRC protects each packet's first kProtectedPrefix bytes
  /// (headers, acks, barrier words, control packets), so only transfers
  /// whose payload spills past it can corrupt. Default 0 = fully
  /// protected; the pami layer sets it for put/get/AM/typed payloads.
  std::uint64_t payload_bytes = 0;
};

/// Bytes per packet under the link-level CRC's protection: flips only
/// ever land at payload offsets >= this (see TransferOptions).
inline constexpr std::uint64_t kProtectedPrefix = 48;

class NetworkModel {
 public:
  /// The models feed three sinks, each pure observation that never
  /// feeds back into timing, so observed and unobserved runs are
  /// virtual-time identical:
  ///  * link usage (per-link byte accounting, behind a null check). Its
  ///    injected_bytes() counts each *wire* transfer once (intra-node
  ///    shared-memory copies and dead-source packets traverse no torus
  ///    link and are excluded, unlike bytes_sent() which counts every
  ///    transfer() call);
  ///  * the timeline: per-source-node injection backlog plus, in the
  ///    contention model, per-link queue-wait series;
  ///  * critical-path attribution. The models never call into it — a
  ///    non-null pointer just makes them compute the route when timing
  ///    alone would not need it and stamp the Transfer diagnostics
  ///    (bottleneck_link, route_capacity); the pami layer records the
  ///    legs.
  NetworkModel(const topo::Torus5D& torus, const BgqParameters& params,
               const obs::Sinks& sinks = {});
  virtual ~NetworkModel() = default;

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  /// Times a payload transfer of `bytes` from `src` to `dst` nodes.
  virtual Transfer transfer(int src_node, int dst_node, std::uint64_t bytes,
                            Time start, TransferOptions opts = {}) = 0;

  /// Times a fixed-size control packet (descriptor, get request, ack).
  Transfer control(int src_node, int dst_node, Time start) {
    return transfer(src_node, dst_node, params_.control_packet_bytes, start,
                    TransferOptions{.is_control = true});
  }

  const topo::Torus5D& torus() const { return torus_; }
  const BgqParameters& params() const { return params_; }

  /// Attaches (or detaches, with nullptr) a fault injector. Not owned.
  /// With no injector every fault hook is a single null check and the
  /// timings are bit-identical to the fault-free model.
  void set_injector(fault::Injector* injector) { injector_ = injector; }
  fault::Injector* injector() const { return injector_; }

  /// Attaches (or detaches, with nullptr) the overload controller's
  /// per-(src,dst) credit ledger. Not owned. With no controller the
  /// credit hook is a single null check and timings are bit-identical
  /// to a build without flow control. Control packets and intra-node
  /// shared-memory copies are exempt (they carry the ack/reply traffic
  /// that releases credits, so gating them could deadlock).
  void set_flow(flow::Controller* fc) { flow_ = fc; }
  flow::Controller* flow() const { return flow_; }

  /// Total messages / bytes injected (diagnostics & tests).
  std::uint64_t messages_sent() const { return messages_; }
  std::uint64_t bytes_sent() const { return bytes_; }

 protected:
  Time serialization(std::uint64_t bytes, TransferOptions opts) const;
  Time flight(int src_node, int dst_node) const;
  Transfer shm_transfer(std::uint64_t bytes, Time start) const;
  /// Rolls packet loss and (for delivered packets whose payload spills
  /// past the protected prefix) silent corruption for a transfer
  /// injected at `at`.
  void roll_fate(Transfer& t, Time at, const TransferOptions& opts);
  /// True when the transfer touches a fail-stopped node at `at`.
  bool dead_endpoint(int src_node, int dst_node, Time at) const {
    return injector_ != nullptr && injector_->has_node_fails() &&
           (injector_->node_dead(src_node, at) || injector_->node_dead(dst_node, at));
  }
  /// Black hole: a packet to/from a dead node is never delivered. The
  /// returned times are where it would have drained/arrived, so the
  /// pami retransmit protocol can run its ack timeouts and the health
  /// monitor can convert the missed acks into a death declaration.
  Transfer dead_node_transfer(int src_node, int dst_node, std::uint64_t bytes,
                              Time start, TransferOptions opts);
  /// Route under active link faults: dimension-order when healthy,
  /// shortest route-around otherwise (recorded in the fault stats);
  /// `min_capacity` receives the worst degradation factor on the path.
  std::vector<topo::Link> faulted_route(int src_node, int dst_node, Time at,
                                        double* min_capacity);
  void account(std::uint64_t bytes) {
    ++messages_;
    bytes_ += bytes;
  }

  /// Serializes message injection through the source node's DMA/NIC:
  /// a message cannot start draining before earlier messages from the
  /// same node have drained. This yields PAMI's pairwise ordering
  /// guarantee under deterministic routing (S III-A4). Returns the
  /// actual serialization start time and records the new busy horizon.
  Time claim_injection(int src_node, Time start, Time serialization_time);

  const topo::Torus5D& torus_;
  BgqParameters params_;
  fault::Injector* injector_ = nullptr;
  obs::LinkUsage* link_usage_;
  flow::Controller* flow_ = nullptr;
  obs::Timeline* timeline_;
  obs::CritPath* critpath_;

  /// Timeline gauge for a link's queue wait, registered on first
  /// touch (contention model only).
  std::uint32_t link_wait_series(int link_index);

  /// Credit gate for one wire injection: delays `start` until the
  /// (src,dst) window holds a free credit and records the transfer's
  /// delivery horizon. Call after the Transfer times are final.
  Time flow_acquire(int src_node, int dst_node, Time start,
                    const TransferOptions& opts) {
    if (flow_ == nullptr || opts.is_control) return start;
    return flow_->acquire(src_node, dst_node, start);
  }
  void flow_release(int src_node, int dst_node, Time arrive,
                    const TransferOptions& opts) {
    if (flow_ == nullptr || opts.is_control) return;
    flow_->release(src_node, dst_node, arrive);
  }

 private:
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::vector<Time> nic_free_;
  std::uint32_t tl_backlog_;
  obs::KeyedSeries tl_node_backlog_;
  obs::KeyedSeries tl_link_wait_;
};

/// Stateless LogGP + hop-count model.
class LogGPModel final : public NetworkModel {
 public:
  using NetworkModel::NetworkModel;
  Transfer transfer(int src_node, int dst_node, std::uint64_t bytes, Time start,
                    TransferOptions opts = {}) override;
};

/// Per-link occupancy model: every directed link on the route is busy
/// for the message serialization time; the head advances one
/// hop_latency per link and additionally waits for busy links.
class LinkContentionModel final : public NetworkModel {
 public:
  LinkContentionModel(const topo::Torus5D& torus, const BgqParameters& params,
                      const obs::Sinks& sinks = {})
      : NetworkModel(torus, params, sinks),
        link_free_(static_cast<std::size_t>(torus.num_links()), 0) {}

  Transfer transfer(int src_node, int dst_node, std::uint64_t bytes, Time start,
                    TransferOptions opts = {}) override;

  /// Virtual time the given link becomes idle (tests / diagnostics).
  Time link_free_at(int link_index) const { return link_free_.at(static_cast<std::size_t>(link_index)); }

 private:
  std::vector<Time> link_free_;
};

/// Factory keyed by name ("loggp" | "contention").
std::unique_ptr<NetworkModel> make_network_model(const std::string& name,
                                                 const topo::Torus5D& torus,
                                                 const BgqParameters& params,
                                                 const obs::Sinks& sinks = {});

}  // namespace pgasq::noc
