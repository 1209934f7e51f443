#include "noc/network.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace pgasq::noc {

NetworkModel::NetworkModel(const topo::Torus5D& torus, const BgqParameters& params,
                           const obs::Sinks& sinks)
    : torus_(torus),
      params_(params),
      link_usage_(sinks.links),
      timeline_(sinks.timeline),
      critpath_(sinks.critpath),
      tl_backlog_(timeline_->series("noc.inject_backlog_us", obs::Timeline::Kind::kGauge)),
      tl_node_backlog_(*timeline_, static_cast<std::size_t>(torus.num_nodes())),
      tl_link_wait_(*timeline_, static_cast<std::size_t>(torus.num_links())) {}

std::uint32_t NetworkModel::link_wait_series(int link_index) {
  return tl_link_wait_.get(
      *timeline_, static_cast<std::size_t>(link_index), obs::Timeline::Kind::kGauge, [&] {
        // Same name format as LinkUsage::link_name, prefixed.
        constexpr char kDimNames[topo::kDims + 1] = "ABCDE";
        const int rest = link_index % (topo::kDims * 2);
        std::ostringstream os;
        os << "noc.link_wait_us.n" << link_index / (topo::kDims * 2) << ' '
           << kDimNames[rest / 2] << ((rest % 2) ? '-' : '+');
        return os.str();
      });
}

Time NetworkModel::serialization(std::uint64_t bytes, TransferOptions opts) const {
  Time t = from_ns(params_.g_ns_per_byte * static_cast<double>(bytes));
  if (!opts.is_control && bytes < params_.aligned_threshold_bytes) {
    t += params_.unaligned_penalty;
  }
  return t;
}

Time NetworkModel::flight(int src_node, int dst_node) const {
  const int hops = torus_.hop_distance(src_node, dst_node);
  return params_.wire_base_latency + hops * params_.hop_latency;
}

Time NetworkModel::claim_injection(int src_node, Time start, Time serialization_time) {
  if (nic_free_.empty()) {
    nic_free_.assign(static_cast<std::size_t>(torus_.num_nodes()), 0);
  }
  auto& free_at = nic_free_[static_cast<std::size_t>(src_node)];
  // Note: responses computed ahead of wall-time (e.g. an rget's data
  // leg, timed at initiation) reserve the NIC in *call* order, an
  // approximation documented in DESIGN.md.
  const Time begin = std::max(start, free_at);
  // Injection-queue depth: how far the NIC's busy horizon is ahead of
  // this message's requested start.
  const double backlog_us = to_us(std::max<Time>(0, free_at - start));
  timeline_->sample(tl_backlog_, start, backlog_us);
  timeline_->sample(
      tl_node_backlog_.get(*timeline_, static_cast<std::size_t>(src_node),
                           obs::Timeline::Kind::kGauge,
                           [&] { return "noc.inject_backlog_us.n" + std::to_string(src_node); }),
      start, backlog_us);
  free_at = begin + serialization_time;
  return begin;
}

Transfer NetworkModel::shm_transfer(std::uint64_t bytes, Time start) const {
  const Time copy = from_ns(params_.shm_g_ns_per_byte * static_cast<double>(bytes));
  const Time done = start + params_.shm_latency + copy;
  Transfer t{done, done};
  t.inject_begin = start;  // no torus link: the whole cost is "wire"
  return t;
}

void NetworkModel::roll_fate(Transfer& t, Time at, const TransferOptions& opts) {
  if (injector_ == nullptr) return;
  t.dropped = injector_->roll_packet(at) != fault::PacketFate::kDelivered;
  // Corruption is a property of *delivered* packets, and only of those
  // whose payload spills past the link-CRC-protected prefix: control
  // packets, acks, barrier words and slot headers never flip.
  if (!t.dropped && opts.payload_bytes > kProtectedPrefix) {
    t.corrupt_token = injector_->roll_corrupt(at);
    t.corrupted = t.corrupt_token != 0;
  }
}

Transfer NetworkModel::dead_node_transfer(int src_node, int dst_node,
                                          std::uint64_t bytes, Time start,
                                          TransferOptions opts) {
  // A live source still serializes the doomed packet (and occupies its
  // NIC); a dead source injects nothing but the would-be times keep the
  // caller's timeout arithmetic uniform.
  const Time ser = serialization(bytes, opts);
  const Time begin = injector_->node_dead(src_node, start)
                         ? start
                         : claim_injection(src_node, start, ser);
  const Time inject_done = begin + ser;
  Transfer t{inject_done, inject_done + flight(src_node, dst_node)};
  t.dropped = true;
  t.inject_begin = begin;
  t.ser_nominal = ser;
  return t;
}

std::vector<topo::Link> NetworkModel::faulted_route(int src_node, int dst_node,
                                                    Time at, double* min_capacity) {
  auto route = torus_.route_avoiding(src_node, dst_node, [&](const topo::Link& l) {
    // A fail-stopped node takes all ten of its links with it: through
    // traffic must route around the dead router.
    return injector_->link_blocked(l, at) || injector_->node_dead(l.from_node, at) ||
           injector_->node_dead(l.to_node, at);
  });
  const int nominal = torus_.hop_distance(src_node, dst_node);
  if (route.size() > static_cast<std::size_t>(nominal)) {
    injector_->record_reroute(route.size() - static_cast<std::size_t>(nominal), at);
  }
  double cap = 1.0;
  for (const auto& l : route) cap = std::min(cap, injector_->link_capacity(l, at));
  if (cap < 1.0) injector_->record_degraded_transfer(at);
  *min_capacity = cap;
  return route;
}

Transfer LogGPModel::transfer(int src_node, int dst_node, std::uint64_t bytes,
                              Time start, TransferOptions opts) {
  account(bytes);
  if (dead_endpoint(src_node, dst_node, start)) {
    return dead_node_transfer(src_node, dst_node, bytes, start, opts);
  }
  if (src_node == dst_node) return shm_transfer(bytes, start);
  const Time ser_nominal = serialization(bytes, opts);
  Time ser = ser_nominal;
  Time fly;
  double cap = 1.0;
  std::vector<topo::Link> route;
  if (injector_ != nullptr &&
      (injector_->has_link_faults() || injector_->has_node_fails())) {
    // A failed link stretches the path (dimension-order route-around);
    // a degraded link throttles the end-to-end cut-through stream to
    // the slowest link on the path.
    route = faulted_route(src_node, dst_node, start, &cap);
    fly = params_.wire_base_latency +
          static_cast<Time>(route.size()) * params_.hop_latency;
    if (cap < 1.0) ser = static_cast<Time>(static_cast<double>(ser) / cap);
  } else {
    fly = flight(src_node, dst_node);
    // The stateless model never needs the route for timing; walk it
    // only when someone is watching the links.
    if (link_usage_ != nullptr || critpath_ != nullptr) {
      route = torus_.route(src_node, dst_node);
    }
  }
  // Credit gate: with a full (src,dst) window the injection start is
  // pushed to the earliest outstanding delivery — the software
  // analogue of blocking on a returned torus token.
  const Time gated = flow_acquire(src_node, dst_node, start, opts);
  const Time begin = claim_injection(src_node, gated, ser);
  const Time inject_done = begin + ser;
  if (link_usage_ != nullptr) link_usage_->record_transfer(route, begin, bytes);
  // Cut-through: the head races ahead while the tail serializes, so
  // arrival is serialization + flight, not store-and-forward per hop.
  const Time arrive = inject_done + fly;
  Transfer t{inject_done, arrive};
  t.inject_begin = begin;
  t.ser_nominal = ser_nominal;
  t.route_capacity = cap;
  if (!route.empty()) {
    // Bottleneck: the worst-degraded link under faults, else the first
    // hop (the stateless model has no queueing to disambiguate).
    t.bottleneck_link = torus_.link_index(route.front());
    if (cap < 1.0) {
      for (const auto& l : route) {
        if (injector_->link_capacity(l, start) <= cap) {
          t.bottleneck_link = torus_.link_index(l);
          break;
        }
      }
    }
  }
  roll_fate(t, begin, opts);
  // Dropped transfers release too: the window models the sender-local
  // in-flight budget, and the retransmit will claim a fresh credit.
  flow_release(src_node, dst_node, t.arrive, opts);
  return t;
}

Transfer LinkContentionModel::transfer(int src_node, int dst_node,
                                       std::uint64_t bytes, Time start,
                                       TransferOptions opts) {
  account(bytes);
  if (dead_endpoint(src_node, dst_node, start)) {
    return dead_node_transfer(src_node, dst_node, bytes, start, opts);
  }
  if (src_node == dst_node) return shm_transfer(bytes, start);
  const Time ser = serialization(bytes, opts);
  // Wormhole approximation: the message head moves link by link,
  // stalling behind earlier messages; each traversed link is then
  // occupied for the full serialization time (the worm's body).
  Time head = claim_injection(
      src_node, flow_acquire(src_node, dst_node, start, opts), ser);
  Time inject_done = start;
  std::vector<topo::Link> route;
  const bool faulty = injector_ != nullptr &&
                      (injector_->has_link_faults() || injector_->has_node_fails());
  double path_capacity = 1.0;
  if (faulty) {
    route = faulted_route(src_node, dst_node, start, &path_capacity);
  } else {
    std::array<int, topo::kDims> order{0, 1, 2, 3, 4};
    if (params_.dynamic_routing) {
      // Rotate the dimension order per message — a cheap, deterministic
      // stand-in for adaptive minimal routing.
      const int shift = static_cast<int>(messages_sent() % topo::kDims);
      for (int i = 0; i < topo::kDims; ++i) order[static_cast<std::size_t>(i)] = (i + shift) % topo::kDims;
    }
    route = torus_.route_ordered(src_node, dst_node, order);
  }
  PGASQ_CHECK(!route.empty());
  if (link_usage_ != nullptr) link_usage_->note_transfer(bytes);
  Time inject_begin = start;
  int bottleneck = torus_.link_index(route.front());
  Time worst_wait = -1;
  for (std::size_t i = 0; i < route.size(); ++i) {
    const auto& link = route[i];
    const int link_idx = torus_.link_index(link);
    auto& free_at = link_free_[static_cast<std::size_t>(link_idx)];
    // A degraded link drains the worm's body proportionally slower.
    Time occupy = ser;
    if (faulty) {
      const double cap = injector_->link_capacity(link, start);
      if (cap < 1.0) occupy = static_cast<Time>(static_cast<double>(ser) / cap);
    }
    const Time waited = free_at > head ? free_at - head : 0;
    if (waited > 0) {
      if (link_usage_ != nullptr) link_usage_->record_wait(link, head, waited);
      timeline_->sample(link_wait_series(link_idx), head, to_us(waited));
    }
    // The bottleneck is the link the head queued longest behind (ties
    // to the earliest hop); a clean pass leaves the first hop.
    if (waited > worst_wait) {
      worst_wait = waited;
      bottleneck = link_idx;
    }
    const Time advanced = std::max(head, free_at);
    if (i == 0) inject_begin = advanced;
    head = advanced + params_.hop_latency;
    free_at = head + occupy;
    if (link_usage_ != nullptr) link_usage_->record_hop(link, head, bytes);
    if (i == 0) inject_done = head + occupy;  // source link drained
  }
  const Time tail = faulty && path_capacity < 1.0
                        ? static_cast<Time>(static_cast<double>(ser) / path_capacity)
                        : ser;
  const Time arrive = head + tail + params_.wire_base_latency;
  Transfer t{inject_done, arrive};
  t.inject_begin = inject_begin;
  t.ser_nominal = ser;
  if (worst_wait <= 0 && path_capacity < 1.0) {
    // No queueing, but the path is degraded: blame the slow link.
    for (const auto& l : route) {
      if (injector_->link_capacity(l, start) <= path_capacity) {
        bottleneck = torus_.link_index(l);
        break;
      }
    }
  }
  t.bottleneck_link = bottleneck;
  t.route_capacity = path_capacity;
  roll_fate(t, inject_done, opts);
  flow_release(src_node, dst_node, t.arrive, opts);
  return t;
}

std::unique_ptr<NetworkModel> make_network_model(const std::string& name,
                                                 const topo::Torus5D& torus,
                                                 const BgqParameters& params,
                                                 const obs::Sinks& sinks) {
  if (name == "loggp") return std::make_unique<LogGPModel>(torus, params, sinks);
  if (name == "contention") {
    return std::make_unique<LinkContentionModel>(torus, params, sinks);
  }
  PGASQ_CHECK(false, << "unknown network model '" << name
                     << "' (expected 'loggp' or 'contention')");
  return nullptr;
}

}  // namespace pgasq::noc
