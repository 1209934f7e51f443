// Observability subsystem: flow pairing in recorded traces, the
// versioned JSON report, per-link accounting reconciliation, registry
// determinism, and the zero-cost-when-disabled guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "coll/coll.hpp"
#include "core/comm.hpp"
#include "core/report.hpp"
#include "obs/json.hpp"
#include "obs/link_usage.hpp"
#include "obs/registry.hpp"
#include "pami/machine.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace pgasq {
namespace {

/// A small mixed workload touching every instrumented path: rdma put /
/// get, fetch_add, a collective broadcast, and async-thread progress.
void mixed_workload(armci::Comm& comm) {
  auto& mem = comm.malloc_collective(4096);
  auto* buf = static_cast<std::byte*>(comm.malloc_local(4096));
  const int peer = (comm.rank() + 1) % comm.nprocs();
  comm.put(buf, mem.at(peer, 64), 256);
  comm.fence(peer);
  comm.get(mem.at(peer), buf, 256);
  comm.fetch_add(mem.at(0), 1);
  double x = comm.rank() == 0 ? 41.0 : 0.0;
  coll::CollEngine::of(comm).broadcast(&x, sizeof x, 0);
  EXPECT_EQ(x, 41.0);
  comm.barrier();
}

armci::WorldConfig traced_config(const std::string& trace_path) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = 4;
  cfg.machine.trace_json_path = trace_path;
  cfg.armci.progress = armci::ProgressMode::kAsyncThread;
  cfg.armci.contexts_per_rank = 2;
  // A software schedule so the broadcast exercises the slot transport
  // (the hw collective-logic model has no per-hop messages to trace).
  cfg.armci.coll.emplace_back("algo.broadcast", "binomial");
  return cfg;
}

/// Config from "key=value" pairs (the CLI parser minus the CLI).
Config cfg_of(std::initializer_list<std::pair<std::string, std::string>> kvs) {
  Config c;
  for (const auto& [k, v] : kvs) c.set(k, v);
  return c;
}

obs::Json load_json(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path << " missing";
  std::stringstream ss;
  ss << in.rdbuf();
  return obs::Json::parse(ss.str());
}

TEST(Observability, EveryFlowStartHasExactlyOneFinish) {
  const std::string path = "/tmp/pgasq_obs_flows.json";
  std::remove(path.c_str());
  armci::World world(traced_config(path));
  world.spmd(mixed_workload);

  const obs::Json doc = load_json(path);
  const obs::Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  struct Flow {
    int starts = 0, steps = 0, finishes = 0;
    std::set<std::uint64_t> tids;
    std::vector<std::string> names;
  };
  std::map<std::string, Flow> flows;  // id literal -> accounting
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& ev = events[i];
    const std::string ph = ev.at("ph").as_string();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    EXPECT_EQ(ev.at("cat").as_string(), "flow");
    Flow& f = flows[ev.at("id").dump()];
    if (ph == "s") ++f.starts;
    if (ph == "t") ++f.steps;
    if (ph == "f") ++f.finishes;
    f.tids.insert(ev.at("tid").as_uint());
    f.names.push_back(ev.at("name").as_string());
  }
  ASSERT_FALSE(flows.empty());
  bool cross_track = false;
  std::set<std::string> seen_ops;
  for (const auto& [id, f] : flows) {
    EXPECT_EQ(f.starts, 1) << "flow " << id;
    EXPECT_EQ(f.finishes, 1) << "flow " << id;
    if (f.tids.size() >= 2) cross_track = true;
    for (const std::string& n : f.names) {
      if (n.find("put") != std::string::npos) seen_ops.insert("put");
      if (n.find("get") != std::string::npos) seen_ops.insert("get");
      if (n.find("coll hop") != std::string::npos) seen_ops.insert("coll");
      if (n.find("ack") != std::string::npos) seen_ops.insert("ack");
    }
  }
  EXPECT_TRUE(cross_track) << "no flow spans two tracks";
  EXPECT_TRUE(seen_ops.count("put"));
  EXPECT_TRUE(seen_ops.count("get"));
  EXPECT_TRUE(seen_ops.count("coll"));
  EXPECT_TRUE(seen_ops.count("ack"));
  std::remove(path.c_str());
}

TEST(Observability, JsonReportRoundTripsAndCarriesSchema) {
  const std::string path = "/tmp/pgasq_obs_report.json";
  std::remove(path.c_str());
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = 4;
  cfg.machine.obs.links = true;
  armci::World world(cfg);
  world.spmd(mixed_workload);
  armci::write_json_report(world, path);

  const obs::Json doc = load_json(path);
  EXPECT_EQ(doc.at("schema").as_string(), "pgasq.report");
  EXPECT_EQ(doc.at("schema_version").as_int(), armci::kReportSchemaVersion);
  EXPECT_EQ(doc.at("machine").at("ranks").as_int(), 4);
  EXPECT_TRUE(doc.at("metrics").is_array());
  EXPECT_GT(doc.at("metrics").size(), 20u);
  // Parse -> dump -> parse is a fixed point (numbers keep their text).
  const std::string once = doc.dump();
  EXPECT_EQ(obs::Json::parse(once).dump(), once);
  std::remove(path.c_str());
}

TEST(Observability, LinkTotalsReconcile) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = 8;
  cfg.machine.ranks_per_node = 1;
  cfg.machine.obs.links = true;
  armci::World world(cfg);
  world.spmd(mixed_workload);

  const obs::LinkUsage* lu = world.machine().link_usage();
  ASSERT_NE(lu, nullptr);
  EXPECT_GT(lu->transfers(), 0u);
  EXPECT_GT(lu->injected_bytes(), 0u);
  // Every wire transfer crosses >= 1 link, so bytes x hops dominates
  // the injected payload.
  EXPECT_GE(lu->link_bytes_total(), lu->injected_bytes());
  // The JSON export's per-link bucket sums must equal the link totals
  // and add up to link_bytes_total.
  const obs::Json j = lu->to_json();
  std::uint64_t total = 0;
  const obs::Json& links = j.at("links");
  for (std::size_t i = 0; i < links.size(); ++i) {
    const obs::Json& link = links[i];
    std::uint64_t bucket_sum = 0;
    const obs::Json& buckets = link.at("buckets");
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      bucket_sum += buckets[b][1].as_uint();
    }
    EXPECT_EQ(bucket_sum, link.at("bytes").as_uint());
    total += link.at("bytes").as_uint();
  }
  EXPECT_EQ(total, lu->link_bytes_total());
  // Same totals in both noc models (recording is model-independent).
  cfg.machine.network_model = "contention";
  armci::World world2(cfg);
  world2.spmd(mixed_workload);
  EXPECT_EQ(world2.machine().link_usage()->injected_bytes(),
            lu->injected_bytes());
}

TEST(Observability, RegistryAndReportAreDeterministic) {
  auto run = [](std::uint64_t seed) {
    armci::WorldConfig cfg;
    cfg.machine.num_ranks = 4;
    cfg.machine.seed = seed;
    cfg.machine.obs.links = true;
    armci::World world(cfg);
    world.spmd(mixed_workload);
    return armci::render_json_report(world).dump();
  };
  const std::string a = run(42);
  EXPECT_EQ(a, run(42)) << "same seed must dump byte-identical reports";
  // A different seed may move timings but not the metric schema.
  const obs::Json ja = obs::Json::parse(a);
  const obs::Json jb = obs::Json::parse(run(7));
  ASSERT_EQ(ja.at("metrics").size(), jb.at("metrics").size());
  for (std::size_t i = 0; i < ja.at("metrics").size(); ++i) {
    EXPECT_EQ(ja.at("metrics")[i].at("name").as_string(),
              jb.at("metrics")[i].at("name").as_string());
  }
}

TEST(Observability, RecordingNeverChangesVirtualTime) {
  auto elapsed = [](bool observe) {
    armci::WorldConfig cfg;
    cfg.machine.num_ranks = 4;
    if (observe) {
      cfg.machine.trace_json_path = "/tmp/pgasq_obs_identity.json";
      cfg.machine.obs.links = true;
    }
    armci::World world(cfg);
    world.spmd(mixed_workload);
    return world.elapsed();
  };
  EXPECT_EQ(elapsed(false), elapsed(true));
  std::remove("/tmp/pgasq_obs_identity.json");
}

TEST(Observability, TruncationSurfacesInReport) {
  const std::string path = "/tmp/pgasq_obs_trunc.json";
  armci::WorldConfig cfg = traced_config(path);
  cfg.machine.trace_max_events = 32;  // far below what the run emits
  armci::World world(cfg);
  world.spmd(mixed_workload);
  EXPECT_TRUE(world.machine().trace()->truncated());
  EXPECT_EQ(world.machine().trace()->event_count(), 32u);
  const std::string report = armci::render_report(world);
  EXPECT_NE(report.find("trace truncated"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Observability, HeatmapRendersHotLinks) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = 8;
  cfg.machine.ranks_per_node = 1;
  cfg.machine.network_model = "contention";
  cfg.machine.obs.links = true;
  armci::World world(cfg);
  world.spmd(mixed_workload);
  const std::string hm = world.machine().link_usage()->heatmap(
      1.0 / world.machine().params().g_ns_per_byte, 8);
  EXPECT_NE(hm.find("link utilization"), std::string::npos);
  // The report embeds the same heatmap.
  const std::string report = armci::render_report(world);
  EXPECT_NE(report.find("link utilization"), std::string::npos);
}

TEST(Observability, RankSamplingMutesUnsampledTracksAndPrunesFlows) {
  const std::string path = "/tmp/pgasq_obs_sampled.json";
  std::remove(path.c_str());
  armci::WorldConfig cfg = traced_config(path);
  cfg.machine.num_ranks = 8;
  cfg.machine.trace_sample_ranks = 2;  // stride 4 -> ranks {0, 4}
  armci::World world(cfg);
  world.spmd(mixed_workload);
  const sim::TraceRecorder* tr = world.machine().trace();
  ASSERT_NE(tr, nullptr);
  EXPECT_TRUE(tr->sampling());
  // Deterministic stride subset, rank 0 always in it.
  EXPECT_TRUE(world.machine().rank_traced(0));
  EXPECT_TRUE(world.machine().rank_traced(4));
  EXPECT_FALSE(world.machine().rank_traced(1));
  EXPECT_FALSE(world.machine().rank_traced(7));

  const obs::Json doc = load_json(path);
  const obs::Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  // tid -> fiber name from the thread_name metadata rows.
  std::map<std::uint64_t, std::string> names;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& ev = events[i];
    if (ev.at("ph").as_string() == "M") {
      names[ev.at("tid").as_uint()] = ev.at("args").at("name").as_string();
    }
  }
  // Every recorded rank-tagged event sits on a sampled rank's track,
  // and every flow continuation has a recorded start (muted-source
  // arrows are pruned so the trace still validates).
  std::set<std::uint64_t> started;
  std::size_t rank_events = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& ev = events[i];
    const std::string ph = ev.at("ph").as_string();
    if (ph == "M") continue;
    const std::string& track = names[ev.at("tid").as_uint()];
    const std::size_t pos = track.rfind("rank");
    if (pos != std::string::npos) {
      int r = 0;
      bool digits = false;
      for (std::size_t k = pos + 4; k < track.size() && std::isdigit(
               static_cast<unsigned char>(track[k])); ++k) {
        r = r * 10 + (track[k] - '0');
        digits = true;
      }
      if (digits) {
        ++rank_events;
        EXPECT_TRUE(world.machine().rank_traced(r))
            << "event on muted track '" << track << "'";
      }
    }
    if (ph == "s") started.insert(ev.at("id").as_uint());
    if (ph == "t" || ph == "f") {
      EXPECT_TRUE(started.count(ev.at("id").as_uint()))
          << "orphan flow continuation on '" << track << "'";
    }
  }
  EXPECT_GT(rank_events, 0u) << "sampled ranks recorded nothing";

  // The human report and the JSON report both flag the sampling.
  const std::string report = armci::render_report(world);
  EXPECT_NE(report.find("sampled"), std::string::npos);
  EXPECT_NE(report.find("trace.sample_ranks=2"), std::string::npos);

  // Sampling strictly shrinks the event stream vs. a full trace.
  armci::WorldConfig full = traced_config(path);
  full.machine.num_ranks = 8;
  armci::World world_full(full);
  world_full.spmd(mixed_workload);
  EXPECT_LT(tr->event_count(), world_full.machine().trace()->event_count());
  EXPECT_FALSE(world_full.machine().trace()->sampling());
  std::remove(path.c_str());
}

TEST(Observability, ConfigNamespacesRejectTypos) {
  pami::MachineConfig mc;
  EXPECT_THROW(pami::configure_observability(
                   cfg_of({{"trace.json_pth", "/tmp/x.json"}}), mc),
               Error);
  EXPECT_THROW(pami::configure_observability(cfg_of({{"obs.lnks", "1"}}), mc),
               Error);
  EXPECT_THROW(armci::json_report_path_from_config(
                   cfg_of({{"report.jsonpath", "/tmp/x.json"}})),
               Error);
  pami::configure_observability(cfg_of({{"trace.json_path", "/tmp/x.json"},
                                        {"trace.max_events", "64"},
                                        {"trace.sample_ranks", "2"},
                                        {"obs.links", "1"},
                                        {"obs.link_bucket_us", "10"}}),
                                mc);
  EXPECT_EQ(mc.trace_json_path, "/tmp/x.json");
  EXPECT_EQ(mc.trace_max_events, 64u);
  EXPECT_EQ(mc.trace_sample_ranks, 2);
  EXPECT_TRUE(mc.obs.links);
  EXPECT_EQ(mc.obs.link_bucket, from_us(10));
  EXPECT_EQ(armci::json_report_path_from_config(
                cfg_of({{"report.json_path", "/tmp/r.json"}})),
            "/tmp/r.json");
}

}  // namespace
}  // namespace pgasq
