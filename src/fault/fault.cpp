#include "fault/fault.hpp"

#include <algorithm>
#include <sstream>

#include "sim/trace.hpp"
#include "util/config.hpp"

namespace pgasq::fault {

// ---------------------------------------------------------------------------
// FaultPlan parsing
// ---------------------------------------------------------------------------

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

int parse_int(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    PGASQ_CHECK(pos == s.size(), << what << ": trailing characters in '" << s << "'");
    return v;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    PGASQ_CHECK(false, << what << ": cannot parse integer '" << s << "'");
  }
  return 0;
}

double parse_double(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    PGASQ_CHECK(pos == s.size(), << what << ": trailing characters in '" << s << "'");
    return v;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    PGASQ_CHECK(false, << what << ": cannot parse number '" << s << "'");
  }
  return 0;
}

int parse_dir(const std::string& s, const char* what) {
  if (s == "+" || s == "+1") return 1;
  if (s == "-" || s == "-1") return -1;
  if (s == "*" || s == "0") return 0;
  PGASQ_CHECK(false, << what << ": direction must be '+', '-' or '*', got '" << s << "'");
  return 0;
}

/// Parses "node:dim:dir[:from_us:until_us]" (capacity fixed) or
/// "node:dim:dir:capacity[:from_us:until_us]" (with_capacity).
LinkFaultSpec parse_link_spec(const std::string& spec, bool with_capacity,
                              const char* what) {
  const auto f = split(spec, ':');
  const std::size_t base = with_capacity ? 4 : 3;
  PGASQ_CHECK(f.size() == base || f.size() == base + 2,
              << what << ": expected " << base << " or " << base + 2
              << " ':'-separated fields in '" << spec << "'");
  LinkFaultSpec out;
  out.node = parse_int(f[0], what);
  out.dim = parse_int(f[1], what);
  out.dir = parse_dir(f[2], what);
  if (with_capacity) {
    out.capacity = parse_double(f[3], what);
    PGASQ_CHECK(out.capacity > 0.0 && out.capacity < 1.0,
                << what << ": degrade capacity must be in (0,1), got " << out.capacity);
  }
  if (f.size() == base + 2) {
    out.begin = from_us(parse_double(f[base], what));
    out.end = from_us(parse_double(f[base + 1], what));
    PGASQ_CHECK(out.begin < out.end, << what << ": empty window in '" << spec << "'");
  }
  return out;
}

}  // namespace

FaultPlan FaultPlan::from_config(const Config& cfg) {
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(cfg.get_int("fault.seed", 1));
  plan.drop_prob = cfg.get_double("fault.drop_prob", 0.0);
  plan.corrupt_prob = cfg.get_double("fault.corrupt_prob", 0.0);
  plan.corrupt_bits = cfg.get_int("fault.corrupt_bits", 1);
  PGASQ_CHECK(plan.drop_prob >= 0.0 && plan.drop_prob < 1.0,
              << "fault.drop_prob = " << plan.drop_prob);
  PGASQ_CHECK(plan.corrupt_prob >= 0.0 && plan.corrupt_prob < 1.0,
              << "fault.corrupt_prob = " << plan.corrupt_prob);
  PGASQ_CHECK(plan.drop_prob + plan.corrupt_prob < 1.0,
              << "fault.drop_prob + fault.corrupt_prob must stay below 1");
  PGASQ_CHECK(plan.corrupt_bits >= 1 && plan.corrupt_bits <= 64,
              << "fault.corrupt_bits must be in [1,64], got " << plan.corrupt_bits);
  const std::string windows = cfg.get_string("fault.corrupt_window", "");
  if (!windows.empty()) {
    for (const auto& spec : split(windows, ',')) {
      const auto f = split(spec, ':');
      PGASQ_CHECK(f.size() == 2,
                  << "fault.corrupt_window: expected from_us:until_us in '"
                  << spec << "'");
      CorruptWindow w;
      w.begin = from_us(parse_double(f[0], "fault.corrupt_window"));
      w.end = from_us(parse_double(f[1], "fault.corrupt_window"));
      PGASQ_CHECK(w.begin < w.end,
                  << "fault.corrupt_window: empty window in '" << spec << "'");
      plan.corrupt_windows.push_back(w);
    }
  }

  const std::string fails = cfg.get_string("fault.link_fail", "");
  if (!fails.empty()) {
    for (const auto& spec : split(fails, ',')) {
      plan.link_faults.push_back(
          parse_link_spec(spec, /*with_capacity=*/false, "fault.link_fail"));
    }
  }
  const std::string degrades = cfg.get_string("fault.link_degrade", "");
  if (!degrades.empty()) {
    for (const auto& spec : split(degrades, ',')) {
      plan.link_faults.push_back(
          parse_link_spec(spec, /*with_capacity=*/true, "fault.link_degrade"));
    }
  }
  const std::string stalls = cfg.get_string("fault.stall", "");
  if (!stalls.empty()) {
    for (const auto& spec : split(stalls, ',')) {
      const auto f = split(spec, ':');
      PGASQ_CHECK(f.size() == 3, << "fault.stall: expected rank:from_us:until_us in '"
                                 << spec << "'");
      StallSpec s;
      s.rank = parse_int(f[0], "fault.stall");
      s.begin = from_us(parse_double(f[1], "fault.stall"));
      s.end = from_us(parse_double(f[2], "fault.stall"));
      PGASQ_CHECK(s.begin < s.end, << "fault.stall: empty window in '" << spec << "'");
      plan.stalls.push_back(s);
    }
  }

  const std::string node_fails = cfg.get_string("fault.node_fail", "");
  if (!node_fails.empty()) {
    for (const auto& spec : split(node_fails, ',')) {
      const auto f = split(spec, ':');
      PGASQ_CHECK(f.size() == 2,
                  << "fault.node_fail: expected node:at_us in '" << spec << "'");
      NodeFailSpec n;
      n.node = parse_int(f[0], "fault.node_fail");
      n.at = from_us(parse_double(f[1], "fault.node_fail"));
      plan.node_fails.push_back(n);
    }
  }

  plan.ack_timeout = from_us(cfg.get_double("fault.ack_timeout_us", 10.0));
  plan.backoff_factor = cfg.get_double("fault.backoff_factor", 2.0);
  plan.max_backoff = from_us(cfg.get_double("fault.max_backoff_us", 320.0));
  plan.retry_budget = static_cast<std::uint64_t>(cfg.get_int("fault.retry_budget", 64));
  plan.backoff_jitter = cfg.get_double("fault.backoff_jitter", 0.0);
  PGASQ_CHECK(plan.ack_timeout > 0, << "fault.ack_timeout_us must be positive");
  PGASQ_CHECK(plan.backoff_factor >= 1.0,
              << "fault.backoff_factor = " << plan.backoff_factor);
  PGASQ_CHECK(plan.max_backoff >= plan.ack_timeout,
              << "fault.max_backoff_us below fault.ack_timeout_us");
  PGASQ_CHECK(plan.backoff_jitter >= 0.0 && plan.backoff_jitter < 1.0,
              << "fault.backoff_jitter must be in [0,1), got "
              << plan.backoff_jitter);
  return plan;
}

// ---------------------------------------------------------------------------
// Injector
// ---------------------------------------------------------------------------

namespace {
/// One splitmix64 step of a value (stateless wrapper for seeding the
/// corruption stream off the plan seed).
std::uint64_t splitmix64_of(std::uint64_t v) {
  std::uint64_t s = v;
  return splitmix64(s);
}

/// The directed link leaving `node` along `dim` toward `dir`.
topo::Link directed_link(const topo::Torus5D& torus, int node, int dim, int dir) {
  topo::Coord5 c = torus.coord_of(node);
  c[dim] = (c[dim] + dir + torus.dims()[dim]) % torus.dims()[dim];
  return topo::Link{node, torus.node_of(c), dim, dir};
}
}  // namespace

Injector::Injector(FaultPlan plan, const topo::Torus5D& torus, const obs::Sinks& sinks)
    : plan_(std::move(plan)),
      torus_(torus),
      rng_(plan_.seed),
      crng_(splitmix64_of(plan_.seed ^ 0xc0bbc0bbc0bbc0bbULL)),
      trace_(sinks.trace) {
  for (const auto& spec : plan_.link_faults) {
    PGASQ_CHECK(spec.node >= 0 && spec.node < torus_.num_nodes(),
                << "fault: link node " << spec.node << " out of range");
    PGASQ_CHECK(spec.dim >= 0 && spec.dim < topo::kDims,
                << "fault: link dim " << spec.dim << " out of range");
    PGASQ_CHECK(torus_.dims()[spec.dim] > 1,
                << "fault: dim " << spec.dim << " has size 1 — no link to fail");
    const Window w{spec.begin, spec.end, spec.capacity};
    if (spec.dir != 0) {
      const auto link = directed_link(torus_, spec.node, spec.dim, spec.dir);
      by_link_[torus_.link_index(link)].push_back(w);
    } else {
      // Both directions of the cable from `node` to its +1 neighbour.
      const auto fwd = directed_link(torus_, spec.node, spec.dim, 1);
      const auto rev = directed_link(torus_, fwd.to_node, spec.dim, -1);
      by_link_[torus_.link_index(fwd)].push_back(w);
      by_link_[torus_.link_index(rev)].push_back(w);
    }
  }
  for (const auto& s : plan_.stalls) {
    PGASQ_CHECK(s.rank >= 0, << "fault: stall rank " << s.rank);
  }
  for (const auto& n : plan_.node_fails) {
    PGASQ_CHECK(n.node >= 0 && n.node < torus_.num_nodes(),
                << "fault: node_fail node " << n.node << " out of range");
    PGASQ_CHECK(n.at >= 0, << "fault: node_fail time for node " << n.node);
  }
  if (trace_ != nullptr) track_ = trace_->register_track("faults");
}

bool Injector::node_dead(int node, Time now) const {
  for (const auto& n : plan_.node_fails) {
    if (n.node == node && n.at <= now) return true;
  }
  return false;
}

Time Injector::node_fail_time(int node) const {
  Time at = kForever;
  for (const auto& n : plan_.node_fails) {
    if (n.node == node) at = std::min(at, n.at);
  }
  return at;
}

void Injector::trace_mark(const char* name, Time at) const {
  if (trace_ != nullptr) trace_->instant(track_, name, at);
}

PacketFate Injector::roll_packet(Time now) {
  if (plan_.drop_prob <= 0.0) return PacketFate::kDelivered;
  if (rng_.next_double() < plan_.drop_prob) {
    ++stats_.packets_dropped;
    trace_mark("packet drop", now);
    return PacketFate::kDropped;
  }
  return PacketFate::kDelivered;
}

std::uint64_t Injector::roll_corrupt(Time now) {
  if (plan_.corrupt_prob <= 0.0) return 0;
  if (!plan_.corrupt_windows.empty()) {
    const bool open = std::any_of(
        plan_.corrupt_windows.begin(), plan_.corrupt_windows.end(),
        [now](const CorruptWindow& w) { return w.begin <= now && now < w.end; });
    if (!open) return 0;
  }
  if (crng_.next_double() >= plan_.corrupt_prob) return 0;
  ++stats_.packets_corrupted;
  trace_mark("packet corrupt", now);
  // Nonzero by construction so 0 can mean "clean".
  return crng_.next_u64() | 1ULL;
}

bool Injector::link_blocked(const topo::Link& link, Time now) const {
  const auto it = by_link_.find(torus_.link_index(link));
  if (it == by_link_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(), [now](const Window& w) {
    return w.capacity == 0.0 && w.begin <= now && now < w.end;
  });
}

double Injector::link_capacity(const topo::Link& link, Time now) const {
  const auto it = by_link_.find(torus_.link_index(link));
  if (it == by_link_.end()) return 1.0;
  double cap = 1.0;
  for (const Window& w : it->second) {
    if (w.begin <= now && now < w.end) cap = std::min(cap, w.capacity);
  }
  return cap;
}

bool Injector::route_blocked(const std::vector<topo::Link>& route, Time now) const {
  return std::any_of(route.begin(), route.end(),
                     [&](const topo::Link& l) { return link_blocked(l, now); });
}

Time Injector::stalled_until(int rank, Time now) const {
  Time until = now;
  for (const auto& s : plan_.stalls) {
    if (s.rank == rank && s.begin <= now && now < s.end) until = std::max(until, s.end);
  }
  return until;
}

void Injector::record_stall(Time from, Time until) {
  ++stats_.progress_stalls;
  stats_.stall_time += until - from;
  trace_mark("progress stall", from);
}

void Injector::record_retransmit(Time backoff, Time now) {
  ++stats_.retransmits;
  stats_.backoff_time += backoff;
  trace_mark("retransmit", now);
}

void Injector::record_reroute(std::size_t extra_hops, Time now) {
  ++stats_.reroutes;
  stats_.rerouted_extra_hops += extra_hops;
  trace_mark("reroute", now);
}

void Injector::record_degraded_transfer(Time now) {
  ++stats_.degraded_transfers;
  trace_mark("degraded link", now);
}

Time Injector::in_order_arrival(int src_node, int dst_node, Time arrive,
                                bool retransmitted) {
  const std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                                src_node))
                             << 32) |
                            static_cast<std::uint32_t>(dst_node);
  Time& floor = last_arrival_[key];
  arrive = std::max(arrive, floor);
  if (retransmitted) floor = std::max(floor, arrive);
  return arrive;
}

void apply_bit_flips(std::uint64_t token, int nbits, std::byte* data,
                     std::size_t bytes, std::size_t skip) {
  if (token == 0 || bytes <= skip) return;
  const std::size_t region_bits = (bytes - skip) * 8;
  std::uint64_t state = token;
  for (int i = 0; i < nbits; ++i) {
    const std::uint64_t r = splitmix64(state);
    const std::size_t bit = static_cast<std::size_t>(r % region_bits);
    data[skip + bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
}

}  // namespace pgasq::fault
