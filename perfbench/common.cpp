#include "common.hpp"

#include <ucontext.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "pami/machine.hpp"
#include "util/error.hpp"

namespace perfbench {

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
std::uint64_t g_swapcontext_calls = 0;
// g_slice_marks[j] is the host clock at swapcontext call (j + 1) *
// kSliceCalls. Static storage: marking never touches the heap.
constexpr std::size_t kMaxSliceMarks = std::size_t{1} << 16;
double g_slice_marks[kMaxSliceMarks];
std::size_t g_slice_marks_taken = 0;
}  // namespace

std::uint64_t swapcontext_calls() { return g_swapcontext_calls; }

HostMark host_mark() { return HostMark{host_now_s(), g_swapcontext_calls}; }

void host_slices(const HostMark& a, const HostMark& b, std::vector<double>& out) {
  double t = a.s;
  // Marks strictly after a and up to b: those of calls in (a, b].
  for (std::uint64_t j = a.switches / kSliceCalls; (j + 1) * kSliceCalls <= b.switches; ++j) {
    PGASQ_CHECK(j < g_slice_marks_taken, << "host slice table full");
    out.push_back(g_slice_marks[j] - t);
    t = g_slice_marks[j];
  }
  out.push_back(b.s - t);
}

}  // namespace perfbench

// The link-time wrapper behind swapcontext_calls() and the host slices.
// It adds no heap traffic, so counting never perturbs the simulation.
extern "C" {
int __real_swapcontext(ucontext_t* oucp, const ucontext_t* ucp);
int __wrap_swapcontext(ucontext_t* oucp, const ucontext_t* ucp) {
  using namespace perfbench;
  if (++g_swapcontext_calls % kSliceCalls == 0 && g_slice_marks_taken < kMaxSliceMarks) {
    g_slice_marks[g_slice_marks_taken++] = host_now_s();
  }
  return __real_swapcontext(oucp, ucp);
}
}

namespace perfbench {

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

Spans::Spans(bool on)
    : on_(on),
      stack_(static_cast<std::size_t>(kMaxRanks * kMaxDepth), 0),
      depth_(static_cast<std::size_t>(kMaxRanks), 0) {
  spans_.reserve(std::size_t{1} << 20);
}

void Spans::bind(pgasq::sim::Engine& engine, int world) {
  engine_ = &engine;
  world_ = world;
  std::fill(depth_.begin(), depth_.end(), 0);
}

std::size_t Spans::push(int rank, const char* name) {
  PGASQ_CHECK(rank < kMaxRanks && spans_.size() < spans_.capacity(),
              << "span buffer full");
  int& depth = depth_[static_cast<std::size_t>(rank)];
  PGASQ_CHECK(depth < kMaxDepth, << "spans nested deeper than " << kMaxDepth);
  std::size_t* stack = &stack_[static_cast<std::size_t>(rank * kMaxDepth)];
  const std::int64_t parent = depth == 0 ? -1 : static_cast<std::int64_t>(stack[depth - 1]);
  spans_.push_back(Span{name, rank, world_, parent, host_now_s(), 0.0,
                        engine_->events_processed(), 0});
  stack[depth++] = spans_.size() - 1;
  return spans_.size() - 1;
}

void Spans::close(std::size_t idx) {
  Span& s = spans_[idx];
  s.t1 = host_now_s();
  s.ev1 = engine_->events_processed();
  int& depth = depth_[static_cast<std::size_t>(s.rank)];
  const std::size_t top = static_cast<std::size_t>(s.rank * kMaxDepth + depth - 1);
  PGASQ_CHECK(depth > 0 && stack_[top] == idx,
              << "span '" << s.name << "' closed out of order");
  --depth;
}

std::map<std::string, Spans::Agg> Spans::aggregate(int rank) const {
  std::map<std::string, Agg> out;
  for (const Span& s : spans_) {
    if (rank >= 0 && s.rank != rank) continue;
    Agg& a = out[s.name];
    ++a.calls;
    a.host_s += s.t1 - s.t0;
    a.events += s.ev1 - s.ev0;
  }
  return out;
}

double Spans::union_s(const std::string& name) const {
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans_) {
    if (name == s.name) iv.emplace_back(s.t0, s.t1);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double lo = 0.0, hi = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

void Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PGASQ_CHECK(f != nullptr, << "cannot write span file " << path);
  const double base = spans_.empty() ? 0.0 : spans_.front().t0;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"events\":%llu}}%s\n",
                 s.name, s.world, s.rank, (s.t0 - base) * 1e6,
                 (s.t1 - s.t0) * 1e6, i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.ev1 - s.ev0),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Region
// ---------------------------------------------------------------------------

void ArmciTotals::add_delta(const armci::CommStats& a, const armci::CommStats& b) {
  gets += (a.gets + a.strided_gets) - (b.gets + b.strided_gets);
  puts += (a.puts + a.strided_puts) - (b.puts + b.strided_puts);
  accs += (a.accs + a.strided_accs) - (b.accs + b.strided_accs);
  rmws += a.rmws - b.rmws;
  forced_fences += a.forced_fences - b.forced_fences;
  t_get += a.time_in_get - b.time_in_get;
  t_acc += a.time_in_acc - b.time_in_acc;
  t_rmw += a.time_in_rmw - b.time_in_rmw;
  t_wait += a.time_in_wait - b.time_in_wait;
  t_barrier += a.time_in_barrier - b.time_in_barrier;
  for (int op = 0; op < armci::CollStats::kOps; ++op) {
    for (int al = 0; al < armci::CollStats::kAlgos; ++al) {
      coll_calls[op] += a.coll.count[op][al] - b.coll.count[op][al];
      coll_time[op] += a.coll.time[op][al] - b.coll.time[op][al];
    }
  }
}

Region::Region(int ranks, ArmciTotals& armci)
    : ranks_(ranks), before_(static_cast<std::size_t>(ranks)), armci_(armci) {}

Snapshot Region::snapshot() const {
  pgasq::pami::Machine& m = world_->machine();
  Snapshot s;
  s.host_s = host_now_s();
  s.events = m.engine().events_processed();
  s.messages = m.network().messages_sent();
  s.bytes = m.network().bytes_sent();
  s.swapcontexts = swapcontext_calls();
  for (int r = 0; r < ranks_; ++r) {
    pgasq::pami::Process& proc = m.process(r);
    for (int c = 0; c < proc.num_contexts(); ++c) {
      const pgasq::pami::ContextStats& cs = proc.context(c).stats();
      s.pami.advance_calls += cs.advance_calls;
      s.pami.empty_advances += cs.empty_advances;
      s.pami.completions += cs.completions;
      s.pami.ams_dispatched += cs.ams_dispatched;
      s.pami.rmws_serviced += cs.rmws_serviced;
      s.pami.total_service_delay += cs.total_service_delay;
    }
  }
  return s;
}

void Region::enter(armci::Comm& comm) {
  PGASQ_CHECK(comm.nprocs() == ranks_, << "region sized for " << ranks_ << " ranks");
  world_ = &comm.world();
  if (entered_++ == 0) open_ = snapshot();
  before_[static_cast<std::size_t>(comm.rank())] = comm.stats();
}

void Region::leave(armci::Comm& comm) {
  armci_.add_delta(comm.stats(), before_[static_cast<std::size_t>(comm.rank())]);
  if (++left_ == ranks_) close_ = snapshot();
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

void Result::fail(const std::string& why, std::uint64_t n) {
  failures.push_back(why);
  ops_failed += n;
}

void Result::add_region(const Region& r, const HostMark& construct, Time virt_region) {
  PGASQ_CHECK(r.closed(), << "timed region never closed on every rank");
  PGASQ_CHECK(worlds_ < kMaxWorlds, << "more than " << kMaxWorlds << " Worlds");
  const Snapshot& a = r.open();
  const Snapshot& b = r.close();
  marks_[worlds_][0] = construct;
  marks_[worlds_][1] = HostMark{a.host_s, a.swapcontexts};
  marks_[worlds_][2] = HostMark{b.host_s, b.swapcontexts};
  ++worlds_;
  setup_s += a.host_s - construct.s;
  host_s += b.host_s - a.host_s;
  virt += virt_region;
  sum_.events += b.events - a.events;
  sum_.messages += b.messages - a.messages;
  sum_.bytes += b.bytes - a.bytes;
  sum_.swapcontexts += b.swapcontexts - a.swapcontexts;
  sum_.pami.advance_calls += b.pami.advance_calls - a.pami.advance_calls;
  sum_.pami.empty_advances += b.pami.empty_advances - a.pami.empty_advances;
  sum_.pami.completions += b.pami.completions - a.pami.completions;
  sum_.pami.ams_dispatched += b.pami.ams_dispatched - a.pami.ams_dispatched;
  sum_.pami.rmws_serviced += b.pami.rmws_serviced - a.pami.rmws_serviced;
  sum_.pami.total_service_delay +=
      b.pami.total_service_delay - a.pami.total_service_delay;
  const armci::CommStats total = r.world().total_stats();
  scratch_reallocs_ += total.coll.scratch_reallocs;
  cache_hits_ += total.region_cache_hits;
  cache_misses_ += total.region_cache_misses;
}

void Result::slices(std::vector<double>& setup, std::vector<double>& timed) const {
  for (int w = 0; w < worlds_; ++w) {
    host_slices(marks_[w][0], marks_[w][1], setup);
    host_slices(marks_[w][1], marks_[w][2], timed);
  }
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The collectives the per-layer metrics name, as CollStats op indices.
constexpr struct {
  const char* name;
  int op;
} kCollOps[] = {{"barrier", 0}, {"broadcast", 1}, {"allreduce", 3}, {"alltoall", 5}};

}  // namespace

void Result::finish(const Spans& spans) {
  auto& e = exact;
  const auto ev = static_cast<double>(sum_.events);
  const auto msgs = static_cast<double>(sum_.messages);
  e["sim.events"] = ev;
  e["sim.events_per_msg"] = ratio(ev, msgs);
  e["noc.messages"] = msgs;
  e["noc.bytes"] = static_cast<double>(sum_.bytes);
  e["sim.fiber_switches"] = static_cast<double>(sum_.swapcontexts / 2);

  const pgasq::pami::ContextStats& p = sum_.pami;
  e["pami.advance_calls"] = static_cast<double>(p.advance_calls);
  e["pami.empty_advance_ratio"] = ratio(static_cast<double>(p.empty_advances),
                                        static_cast<double>(p.advance_calls));
  e["pami.ams_dispatched"] = static_cast<double>(p.ams_dispatched);
  e["pami.rmws_serviced"] = static_cast<double>(p.rmws_serviced);
  // Mean wait of a serviced item (completion, AM or rmw) for an advance.
  e["pami.service_delay_us.mean"] =
      ratio(pgasq::to_us(p.total_service_delay),
            static_cast<double>(p.completions + p.ams_dispatched + p.rmws_serviced));

  const ArmciTotals& a = armci;
  e["armci.gets"] = static_cast<double>(a.gets);
  e["armci.puts"] = static_cast<double>(a.puts);
  e["armci.accs"] = static_cast<double>(a.accs);
  e["armci.rmws"] = static_cast<double>(a.rmws);
  e["armci.forced_fences"] = static_cast<double>(a.forced_fences);
  e["armci.region_cache_hit_ratio"] =
      ratio(static_cast<double>(cache_hits_),
            static_cast<double>(cache_hits_ + cache_misses_));
  e["armci.virt_ms.get"] = pgasq::to_ms(a.t_get);
  e["armci.virt_ms.acc"] = pgasq::to_ms(a.t_acc);
  e["armci.virt_ms.rmw"] = pgasq::to_ms(a.t_rmw);
  e["armci.virt_ms.wait"] = pgasq::to_ms(a.t_wait);
  e["armci.virt_ms.barrier"] = pgasq::to_ms(a.t_barrier);
  for (const auto& c : kCollOps) {
    const auto calls = static_cast<double>(a.coll_calls[c.op]);
    e[std::string("coll.calls.") + c.name] = calls;
    e[std::string("coll.virt_us_per_call.") + c.name] =
        ratio(pgasq::to_us(a.coll_time[c.op]), calls);
  }
  e["coll.scratch_reallocs"] = static_cast<double>(scratch_reallocs_);
  // Workload-specific exact metrics default to zero where unused.
  for (const char* name :
       {"nbc.ops", "nbc.hops_sent", "nbc.virt_us_per_op", "app.compute_virt_ms",
        "ga.virt_us.next.p50", "ga.virt_us.next.p99",
        "kvs.cas_lost", "kvs.version_retries", "kvs.probe_steps", "kvs.useful_ratio",
        "kvs.virt_us.get.p50", "kvs.virt_us.get.p99", "kvs.virt_us.put.p50",
        "kvs.virt_us.put.p99", "kvs.virt_us.faa.p50", "kvs.virt_us.faa.p99"}) {
    e.emplace(name, 0.0);
  }

  // Traced-run figures. Spans around blocking calls include host time
  // spent simulating other ranks while this one waited.
  auto& t = traced;
  const auto all = spans.aggregate();
  const auto rank0 = spans.aggregate(0);
  auto find = [](const std::map<std::string, Spans::Agg>& m, const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? Spans::Agg{} : it->second;
  };
  // Mean host time per span of `name`, in seconds x `unit`.
  auto per_call = [&](const std::map<std::string, Spans::Agg>& m, const std::string& name,
                      double unit) {
    const Spans::Agg a = find(m, name);
    return ratio(a.host_s * unit, static_cast<double>(a.calls));
  };
  for (const char* c : {"wait", "compute", "barrier"}) {
    t[std::string("armci.host_us_per_call.") + c] =
        per_call(all, std::string("armci.") + c, 1e6);
  }
  for (const auto& c : kCollOps) {
    const Spans::Agg a = find(rank0, std::string("coll.") + c.name);
    t[std::string("coll.host_ms_per_call.") + c.name] =
        ratio(a.host_s * 1e3, static_cast<double>(a.calls));
    t[std::string("coll.events_per_call.") + c.name] =
        ratio(static_cast<double>(a.events), static_cast<double>(a.calls));
  }
  // A non-blocking op's host cost: its initiation plus its wait.
  double nbc_host = 0.0;
  for (const char* s : {"nbc.iallreduce", "nbc.ibarrier", "nbc.wait"}) {
    nbc_host += find(all, s).host_s;
  }
  t["nbc.host_us_per_op"] = ratio(nbc_host * 1e6, e["nbc.ops"]);
  t["ga.construct_ms"] = spans.union_s("ga.construct") * 1e3;
  for (const char* c : {"next", "nb_get", "acc"}) {
    t[std::string("ga.host_us_per_call.") + c] = per_call(all, std::string("ga.") + c, 1e6);
  }
  for (const char* c : {"get", "put", "faa"}) {
    t[std::string("kvs.host_us_per_call.") + c] = per_call(all, std::string("kvs.") + c, 1e6);
  }
}

Time percentile(std::vector<Time>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))), 1,
      v.size());
  return v[rank - 1];
}

}  // namespace perfbench
