// The post-run report in both renderings: render_report (text) and
// render_json_report (JSON, metrics from build_registry). Every
// statistic of a two-column text table is declared once below —
// registry metric, text label and value source, whose type (Time or
// counter) sets the format — and both renderings walk the same
// declarations. The operations table, the collective tables and the
// sections owned by other objects (link heatmap, timeline, critical
// path, application metrics, trace status) render from their sources.
#include "core/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "fault/fault.hpp"
#include "fault/integrity.hpp"
#include "flow/flow.hpp"
#include "ft/liveness.hpp"
#include "obs/critpath.hpp"
#include "obs/link_usage.hpp"
#include "obs/timeline.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace pgasq::armci {

namespace {

std::string human_bytes(std::uint64_t b) {
  char buf[32];
  if (b >= (1ull << 30)) {
    std::snprintf(buf, sizeof buf, "%.2f GiB", static_cast<double>(b) / (1ull << 30));
  } else if (b >= (1ull << 20)) {
    std::snprintf(buf, sizeof buf, "%.2f MiB", static_cast<double>(b) / (1ull << 20));
  } else if (b >= (1ull << 10)) {
    std::snprintf(buf, sizeof buf, "%.2f KiB", static_cast<double>(b) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof buf, "%llu B", static_cast<unsigned long long>(b));
  }
  return buf;
}

using fault::FaultStats;
using fault::IntegrityStats;
using flow::FlowStats;
using ft::FtStats;

/// What the statistics are read from: the world, its aggregated
/// CommStats and each subsystem's stats (null when that subsystem is off).
using Sources = std::tuple<const World*, const CommStats*, const FaultStats*,
                           const IntegrityStats*, const FtStats*, const FlowStats*>;

template <class S>
const S* of(const Sources& s) { return std::get<const S*>(s); }

Sources sources_of(const World& world, const CommStats& comm) {
  const pami::Machine& m = world.machine();
  const auto stats = [](const auto* sub) { return sub != nullptr ? &sub->stats() : nullptr; };
  return {&world, &comm, stats(m.injector()), stats(m.integrity()), stats(m.monitor()),
          stats(m.flow())};
}

template <class S, class V>
S owner_of(V S::*);  // the struct declaring a member (unevaluated)

/// A statistic's value. A Time fills a registry gauge in µs and prints
/// as seconds; anything else is a counter.
struct Value {
  std::uint64_t n;
  bool time = false;
};

/// Reads stats field F, a counter or a Time, from the struct declaring
/// it; zero when that subsystem is off.
template <auto F>
Value field(const Sources& s) {
  using S = decltype(owner_of(F));
  const S* owner = of<S>(s);
  using T = std::remove_cvref_t<decltype(owner->*F)>;
  return {static_cast<std::uint64_t>(owner != nullptr ? owner->*F : T{}), std::is_same_v<T, Time>};
}

/// The two-column text tables, in report order.
enum TextTable { kSync, kTimes, kFault, kIntegrity, kFt, kFlow, kNoText };

/// One reported statistic: registry metric, text row and value source.
/// The value's type picks the format unless `text` renders the cell.
struct Stat {
  const char* metric;  ///< nullptr for a text-only row
  Value (*get)(const Sources&);
  TextTable table = kNoText;  ///< kNoText for a registry-only metric
  int row = 0;                ///< position in its text table
  const char* label = nullptr;
  /// Composite text cell, printed instead of the formatted value.
  std::string (*text)(const Sources&) = nullptr;
};

std::string region_cache_text(const Sources& s) {
  const CommStats& c = *of<CommStats>(s);
  return std::to_string(c.region_cache_hits) + "/" + std::to_string(c.region_cache_misses);
}

Value ranks_per_node(const Sources& s) {
  return {static_cast<std::uint64_t>(of<World>(s)->machine().mapping().ranks_per_node())};
}

// A window <= 0 means no gating: the registry clamps it, the text shows it.
int credits_raw(const Sources& s) { return of<World>(s)->machine().flow()->config().credits; }
Value credits(const Sources& s) {
  return {static_cast<std::uint64_t>(std::max(credits_raw(s), 0))};
}
std::string credits_text(const Sources& s) { return std::to_string(credits_raw(s)); }

std::string queue_depth_text(const Sources& s) {
  const util::Histogram& q = of<FlowStats>(s)->queue_depth;
  return std::to_string(q.quantile(0.5)) + " / " + std::to_string(q.quantile(0.99)) +
         " / " + std::to_string(q.max());
}

// Registry order is declaration order; text order is each row's `row`.
const Stat kArmciStats[] = {
    {"armci.puts", field<&CommStats::puts>},
    {"armci.gets", field<&CommStats::gets>},
    {"armci.accs", field<&CommStats::accs>},
    {"armci.rmws", field<&CommStats::rmws>},
    {"armci.strided_puts", field<&CommStats::strided_puts>},
    {"armci.strided_gets", field<&CommStats::strided_gets>},
    {"armci.strided_accs", field<&CommStats::strided_accs>},
    {"armci.rdma_puts", field<&CommStats::rdma_puts>},
    {"armci.rdma_gets", field<&CommStats::rdma_gets>},
    {"armci.fallback_puts", field<&CommStats::fallback_puts>},
    {"armci.fallback_gets", field<&CommStats::fallback_gets>},
    {"armci.typed_ops", field<&CommStats::typed_ops>},
    {"armci.zero_copy_chunks", field<&CommStats::zero_copy_chunks>},
    {"armci.packed_ops", field<&CommStats::packed_ops>},
    {"armci.bytes_put", field<&CommStats::bytes_put>},
    {"armci.bytes_got", field<&CommStats::bytes_got>},
    {"armci.bytes_acc", field<&CommStats::bytes_acc>},
    {"armci.region_cache_hits", field<&CommStats::region_cache_hits>, kSync, 3,
     "region cache hits/misses", region_cache_text},
    {"armci.region_cache_misses", field<&CommStats::region_cache_misses>},
    {"armci.region_queries_sent", field<&CommStats::region_queries_sent>, kSync, 4,
     "region queries sent"},
    {"armci.fence_calls", field<&CommStats::fence_calls>, kSync, 0, "fence calls"},
    {"armci.forced_fences", field<&CommStats::forced_fences>, kSync, 1,
     "forced fences (conflicts)"},
    {"armci.endpoints_created", field<&CommStats::endpoints_created>, kSync, 2,
     "endpoints created"},
    // The fault table's retransmit rows are the runtime's own counters.
    {"armci.retransmits", field<&CommStats::retransmits>, kFault, 2, "retransmits"},
    {"armci.retransmit_backoff_us", field<&CommStats::retransmit_backoff>, kFault, 3,
     "backoff seconds (sum over ranks)"},
    {"armci.progress_stalls", field<&CommStats::progress_stalls>},
    {"armci.progress_stall_us", field<&CommStats::progress_stall_time>},
    {"armci.time_in_get_us", field<&CommStats::time_in_get>, kTimes, 0, "get"},
    {"armci.time_in_put_us", field<&CommStats::time_in_put>, kTimes, 1, "put"},
    {"armci.time_in_acc_us", field<&CommStats::time_in_acc>, kTimes, 2, "accumulate"},
    {"armci.time_in_rmw_us", field<&CommStats::time_in_rmw>, kTimes, 3, "rmw (counters)"},
    {"armci.time_in_fence_us", field<&CommStats::time_in_fence>, kTimes, 4, "fence"},
    {"armci.time_in_barrier_us", field<&CommStats::time_in_barrier>, kTimes, 5, "barrier"},
    {"armci.time_in_wait_us", field<&CommStats::time_in_wait>, kTimes, 6, "wait (nb handles)"},
};

const Stat kFaultStats[] = {
    {"fault.packets_dropped", field<&FaultStats::packets_dropped>, kFault, 0, "packets dropped"},
    {"fault.packets_corrupted", field<&FaultStats::packets_corrupted>, kFault, 1,
     "packets corrupted (flips injected)"},
    {"fault.retransmits", field<&FaultStats::retransmits>},
    {"fault.backoff_us", field<&FaultStats::backoff_time>},
    {"fault.reroutes", field<&FaultStats::reroutes>, kFault, 4, "reroutes around failed links"},
    {"fault.rerouted_extra_hops", field<&FaultStats::rerouted_extra_hops>, kFault, 5,
     "rerouted extra hops"},
    {"fault.degraded_transfers", field<&FaultStats::degraded_transfers>, kFault, 6,
     "degraded-link transfers"},
    {"fault.progress_stalls", field<&FaultStats::progress_stalls>, kFault, 7,
     "progress stalls ridden out"},
    {"fault.stall_us", field<&FaultStats::stall_time>, kFault, 8, "stall seconds"},
    {nullptr, ranks_per_node, kFault, 9, "ranks per node (blast radius)"},
};

const Stat kIntegrityStats[] = {
    // The injector's corruption count, so detected == injected is checkable
    // from integrity.* alone (chaos_soak.py relies on it).
    {"integrity.flips_injected", field<&FaultStats::packets_corrupted>},
    {"integrity.flips_detected", field<&IntegrityStats::corruptions_detected>, kIntegrity, 1,
     "corruptions detected"},
    {"integrity.crc_checks", field<&IntegrityStats::crc_checks>, kIntegrity, 0,
     "transport CRC checks"},
    {"integrity.nacks_sent", field<&IntegrityStats::nacks_sent>, kIntegrity, 2, "NACKs sent"},
    {"integrity.nack_retransmits", field<&IntegrityStats::nack_retransmits>, kIntegrity, 3,
     "NACK retransmits"},
    {"integrity.echo_crc_acks", field<&IntegrityStats::echo_crc_acks>, kIntegrity, 4,
     "echo-CRC acks"},
    {"integrity.coll_slot_checks", field<&IntegrityStats::coll_slot_checks>, kIntegrity, 5,
     "collective slot checks"},
    {"integrity.coll_slot_rejects", field<&IntegrityStats::coll_slot_rejects>, kIntegrity, 6,
     "collective slot rejects"},
    {"integrity.coll_slot_refetches", field<&IntegrityStats::coll_slot_refetches>, kIntegrity, 7,
     "collective slot re-fetches"},
    {"integrity.ckpt_digests_computed", field<&IntegrityStats::ckpt_digests_computed>, kIntegrity,
     8, "checkpoint digests computed"},
    {"integrity.ckpt_digests_validated", field<&IntegrityStats::ckpt_digests_validated>,
     kIntegrity, 9, "checkpoint digests validated"},
    {"integrity.ckpt_digest_mismatches", field<&IntegrityStats::ckpt_digest_mismatches>,
     kIntegrity, 10, "checkpoint digest mismatches"},
    {"integrity.ckpt_fallback_restores", field<&IntegrityStats::ckpt_fallback_restores>,
     kIntegrity, 11, "checkpoint fallback restores"},
};

const Stat kFtStats[] = {
    {"ft.detections", field<&FtStats::detections>, kFt, 0, "node deaths declared"},
    {"ft.detection_delay_us", field<&FtStats::detection_delay>, kFt, 1,
     "detection delay seconds (sum)"},
    {"ft.ranks_lost", field<&FtStats::ranks_lost>, kFt, 2, "ranks lost"},
    {"ft.quarantined_ops", field<&FtStats::quarantined_ops>, kFt, 3,
     "ops quarantined (dead peers)"},
    {"ft.checkpoints", field<&FtStats::checkpoints>, kFt, 4, "checkpoints committed"},
    {"ft.checkpoint_bytes", field<&FtStats::checkpoint_bytes>, kFt, 5,
     "checkpoint bytes to buddies",
     [](const Sources& s) { return human_bytes(of<FtStats>(s)->checkpoint_bytes); }},
    {"ft.rollbacks", field<&FtStats::rollbacks>, kFt, 6, "rollbacks"},
    {"ft.rollback_ranks", field<&FtStats::rollback_ranks>, kFt, 7,
     "survivor ranks rolled back (sum)"},
    {"ft.recovery_us", field<&FtStats::recovery_time>, kFt, 8, "recovery seconds"},
};

const Stat kFlowStats[] = {
    {"flow.credits", credits, kFlow, 0, "credit window (per src,dst)", credits_text},
    {"flow.credit_stalls", field<&FlowStats::credit_stalls>, kFlow, 1, "credit stalls"},
    {"flow.credit_stall_us", field<&FlowStats::credit_stall_time>, kFlow, 2,
     "credit stall seconds (sum)"},
    {nullptr, nullptr, kFlow, 3, "queue depth p50 / p99 / max", queue_depth_text},
    {"flow.expired_server", field<&FlowStats::expired_server>, kFlow, 4,
     "requests shed at server (expired)"},
    {"flow.expired_client", field<&FlowStats::expired_client>, kFlow, 5,
     "requests expired at client"},
    {"flow.shed_low_prio", field<&FlowStats::shed_low_prio>, kFlow, 6,
     "shed by admission (low prio)"},
    {"flow.shed_high_prio", field<&FlowStats::shed_high_prio>, kFlow, 7,
     "shed by admission (high prio)"},
    {"flow.retry_budget_exhausted", field<&FlowStats::retry_budget_exhausted>, kFlow, 8,
     "retry budgets exhausted"},
};

const std::span<const Stat> kGroups[] = {kArmciStats, kFaultStats, kIntegrityStats, kFtStats,
                                         kFlowStats};

void fill(obs::Registry& reg, std::span<const Stat> stats, const Sources& s) {
  for (const Stat& st : stats) {
    if (st.metric == nullptr) continue;
    const Value v = st.get(s);
    if (v.time) {
      reg.set_gauge(st.metric, to_us(static_cast<Time>(v.n)));
    } else {
      reg.set_counter(st.metric, v.n);
    }
  }
}

/// Renders the rows every group declares for table `t`, in row order.
std::string text_table(TextTable t, const Sources& s) {
  static constexpr struct { const char* title; int time_digits; } kTables[] = {
      {"synchronization", 4}, {"blocked in", 4}, {"fault injection & recovery", 4},
      {"end-to-end integrity", 4}, {"fail-stop recovery", 6}, {"overload control (flow)", 6}};
  std::map<int, const Stat*> rows;
  for (const std::span<const Stat> group : kGroups) {
    for (const Stat& st : group) {
      if (st.table == t) rows[st.row] = &st;
    }
  }
  Table out({kTables[t].title, t == kTimes ? "seconds (sum over ranks)" : "value"});
  for (const auto& [row, st] : rows) {
    out.row().add(std::string(st->label));
    if (st->text != nullptr) {
      out.add(st->text(s));
    } else if (const Value v = st->get(s); v.time) {
      out.add(to_s(static_cast<Time>(v.n)), kTables[t].time_digits);
    } else {
      out.add(v.n);
    }
  }
  return out.to_string();
}

/// World collectives (empty `group`) or one process group's.
void fill_coll(obs::Registry& reg, const std::string& group, const CollStats& c) {
  if (c.total_ops() == 0) return;
  const std::string prefix = group.empty() ? "coll." : "grp.coll.";
  for (int op = 0; op < CollStats::kOps; ++op) {
    for (int a = 0; a < CollStats::kAlgos; ++a) {
      if (c.count[op][a] == 0) continue;
      obs::Labels labels{{"op", kCollOpNames[op]}, {"algo", kCollAlgoNames[a]}};
      if (!group.empty()) labels.insert(labels.begin(), {"group", group});
      reg.set_counter(prefix + "ops", c.count[op][a], labels);
      reg.set_counter(prefix + "bytes", c.bytes[op][a], labels);
      reg.set_gauge(prefix + "time_us", to_us(c.time[op][a]), labels);
    }
  }
  if (group.empty()) reg.set_counter("coll.scratch_reallocs", c.scratch_reallocs);
}

std::string coll_table(const std::string& group, const CollStats& c) {
  Table t({group.empty() ? "collective" : "group '" + group + "'", "algorithm",
           "count", "payload", "seconds"});
  for (int op = 0; op < CollStats::kOps; ++op) {
    for (int a = 0; a < CollStats::kAlgos; ++a) {
      if (c.count[op][a] == 0) continue;
      t.row().add(std::string(kCollOpNames[op])).add(std::string(kCollAlgoNames[a]))
          .add(c.count[op][a]).add(human_bytes(c.bytes[op][a])).add(to_s(c.time[op][a]), 4);
    }
  }
  if (group.empty() && c.scratch_reallocs > 0) {
    t.row().add(std::string("(scratch grows)")).add(std::string("-"))
        .add(c.scratch_reallocs).add(std::string("-")).add(std::string("-"));
  }
  return t.to_string();
}

/// The report's metrics registry. Deterministic: same run, same dump.
obs::Registry build_registry(const World& world) {
  const CommStats s = world.total_stats();
  const Sources src = sources_of(world, s);
  obs::Registry reg;
  fill(reg, kArmciStats, src);
  reg.set_histogram("armci.put_sizes", s.put_sizes);
  reg.set_histogram("armci.get_sizes", s.get_sizes);
  reg.set_histogram("armci.acc_sizes", s.acc_sizes);
  fill_coll(reg, "", s.coll);
  for (const auto& [label, gc] : s.group_coll) fill_coll(reg, label, gc);

  const pami::Machine& m = world.machine();
  reg.set_counter("noc.messages_sent", m.network().messages_sent());
  reg.set_counter("noc.bytes_sent", m.network().bytes_sent());

  if (m.injector() != nullptr) fill(reg, kFaultStats, src);
  if (m.integrity() != nullptr) fill(reg, kIntegrityStats, src);
  if (m.monitor() != nullptr) fill(reg, kFtStats, src);
  if (m.flow() != nullptr) {
    fill(reg, kFlowStats, src);
    const util::Histogram& depth = m.flow()->stats().queue_depth;
    if (depth.total() > 0) reg.set_histogram("flow.queue_depth", depth);
  }

  if (const obs::LinkUsage* lu = m.link_usage()) {
    reg.set_counter("obs.link_transfers", lu->transfers());
    reg.set_counter("obs.link_injected_bytes", lu->injected_bytes());
    reg.set_counter("obs.link_bytes_total", lu->link_bytes_total());
    reg.set_counter("obs.active_links", static_cast<std::uint64_t>(lu->active_links()));
    const double cap = 1.0 / m.params().g_ns_per_byte;  // peak bytes per ns on one link
    reg.set_gauge("obs.link_max_utilization", lu->max_utilization(cap));
    reg.set_gauge("obs.link_mean_utilization", lu->mean_utilization(cap));
  }
  // Application-published metrics (kvs.* etc.) ride after the
  // runtime-owned sections; empty for workloads that publish nothing.
  reg.merge_from(world.app_metrics());
  return reg;
}

}  // namespace

std::string render_report(const World& world) {
  const CommStats s = world.total_stats();
  const Sources src = sources_of(world, s);
  const pami::Machine& m = world.machine();
  std::ostringstream os;
  os << "=== pgasq communication report (" << world.num_ranks() << " ranks, "
     << m.torus().to_string() << ") ===\n";
  os << "virtual time: " << to_ms(world.elapsed()) << " ms\n\n";

  Table ops({"operation", "count", "bytes", "rdma", "fallback/AM"});
  ops.row().add(std::string("put (contig+vector)")).add(s.puts)
      .add(human_bytes(s.bytes_put)).add(s.rdma_puts).add(s.fallback_puts);
  ops.row().add(std::string("get (contig+vector)")).add(s.gets)
      .add(human_bytes(s.bytes_got)).add(s.rdma_gets).add(s.fallback_gets);
  ops.row().add(std::string("accumulate")).add(s.accs)
      .add(human_bytes(s.bytes_acc)).add(0ull).add(s.accs);
  ops.row().add(std::string("strided put/get/acc"))
      .add(s.strided_puts + s.strided_gets + s.strided_accs)
      .add(std::string("-")).add(s.zero_copy_chunks + s.typed_ops).add(s.packed_ops);
  ops.row().add(std::string("rmw (fetch&add etc.)")).add(s.rmws)
      .add(human_bytes(s.rmws * 8)).add(0ull).add(s.rmws);
  os << ops.to_string() << '\n';
  os << text_table(kSync, src) << '\n' << text_table(kTimes, src);

  if (s.coll.total_ops() > 0) os << '\n' << coll_table("", s.coll);
  for (const auto& [label, gc] : s.group_coll) {
    if (gc.total_ops() > 0) os << '\n' << coll_table(label, gc);
  }
  if (m.injector() != nullptr) os << '\n' << text_table(kFault, src);
  if (m.integrity() != nullptr) os << '\n' << text_table(kIntegrity, src);
  if (m.monitor() != nullptr) os << '\n' << text_table(kFt, src);
  if (m.flow() != nullptr) os << '\n' << text_table(kFlow, src);

  if (const obs::LinkUsage* lu = m.link_usage()) {
    os << '\n' << lu->heatmap(1.0 / m.params().g_ns_per_byte, m.config().obs.link_top);
  }
  if (const obs::Timeline* tl = m.timeline()) os << '\n' << tl->render(m.config().obs.timeline_top);
  if (const obs::CritPath* cp = m.critpath()) os << '\n' << cp->render();
  if (world.app_metrics().size() != 0) {
    os << "\napplication metrics:\n" << world.app_metrics().to_text();
  }
  if (const sim::TraceRecorder* tr = m.trace()) {
    os << "\ntrace: " << tr->event_count() << " events";
    if (tr->aggregate()) {
      os << " — aggregated (trace.aggregate=1, " << tr->aggregate_series() << " series)";
    }
    if (tr->sampling()) {
      os << " — sampled (trace.sample_ranks=" << m.config().trace_sample_ranks
         << "; unsampled ranks muted)";
    }
    if (tr->truncated()) {
      os << " — trace truncated at " << tr->max_events()
         << " events; later events were dropped (raise trace.max_events)";
    }
    os << '\n';
  }
  if (s.put_sizes.total() + s.get_sizes.total() > 0) {
    os << "\nput sizes (log2 buckets):\n" << s.put_sizes.to_string();
    os << "get sizes (log2 buckets):\n" << s.get_sizes.to_string();
    if (s.acc_sizes.total() > 0) os << "acc sizes (log2 buckets):\n" << s.acc_sizes.to_string();
  }
  return os.str();
}

obs::Json render_json_report(const World& world) {
  using obs::Json;
  const pami::Machine& m = world.machine();
  Json doc = Json::object();
  doc.set("schema", Json::string("pgasq.report"));
  doc.set("schema_version", Json::number(kReportSchemaVersion));

  Json machine = Json::object();
  machine.set("ranks", Json::number(world.num_ranks()));
  machine.set("ranks_per_node", Json::number(m.config().ranks_per_node));
  machine.set("network_model", Json::string(m.config().network_model));
  machine.set("torus", Json::string(m.torus().to_string()));
  doc.set("machine", std::move(machine));

  doc.set("elapsed_us", Json::number(to_us(world.elapsed())));
  doc.set("metrics", build_registry(world).to_json());

  if (const obs::LinkUsage* lu = m.link_usage()) doc.set("links", lu->to_json());
  if (const obs::Timeline* tl = m.timeline()) doc.set("timeline", tl->to_json());
  if (const obs::CritPath* cp = m.critpath()) doc.set("critpath", cp->to_json());
  if (const sim::TraceRecorder* tr = m.trace()) {
    Json trace = Json::object();
    trace.set("events", Json::number(static_cast<std::uint64_t>(tr->event_count())));
    trace.set("max_events", Json::number(static_cast<std::uint64_t>(tr->max_events())));
    trace.set("truncated", Json::boolean(tr->truncated()));
    trace.set("aggregate", Json::boolean(tr->aggregate()));
    if (tr->aggregate()) {
      trace.set("aggregate_series",
                Json::number(static_cast<std::uint64_t>(tr->aggregate_series())));
      // Per-(track, event) latency quantiles and instant counts — the
      // same rows the aggregate-mode trace file carries, so report
      // consumers need not parse the trace JSON.
      Json aggs = Json::array();
      Json instants = Json::array();
      for (const auto& row : tr->aggregate_rows()) {
        Json o = Json::object();
        o.set("track", Json::string(row.track));
        o.set("name", Json::string(row.name));
        o.set("count", Json::number(row.count));
        if (row.latency == nullptr) {
          instants.push(std::move(o));
          continue;
        }
        const util::Histogram& h = *row.latency;
        const std::pair<const char*, std::uint64_t> points[] = {
            {"min_us", h.min()}, {"p50_us", h.quantile(0.5)}, {"p99_us", h.quantile(0.99)},
            {"p999_us", h.quantile(0.999)}, {"max_us", h.max()}};
        for (const auto& [key, v] : points) o.set(key, Json::number(to_us(static_cast<Time>(v))));
        aggs.push(std::move(o));
      }
      trace.set("aggregates", std::move(aggs));
      trace.set("instants", std::move(instants));
    }
    trace.set("sampled", Json::boolean(tr->sampling()));
    if (tr->sampling()) trace.set("sample_ranks", Json::number(m.config().trace_sample_ranks));
    doc.set("trace", std::move(trace));
  }
  return doc;
}

void write_json_report(const World& world, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PGASQ_CHECK(out.good(), << "cannot open report JSON path " << path);
  out << render_json_report(world).dump() << '\n';
  out.close();
  PGASQ_CHECK(out.good(), << "short write to report JSON path " << path);
}

}  // namespace pgasq::armci
