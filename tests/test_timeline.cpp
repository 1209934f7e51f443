// Timeline + critical-path observability: bucket determinism across
// reruns and seeds, the zero-cost-when-disabled byte-identity
// guarantee, the exact segment-sum attribution identity, series-cap
// truncation, and obs.timeline* config typo rejection.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "coll/coll.hpp"
#include "core/comm.hpp"
#include "core/report.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/timeline.hpp"
#include "pami/machine.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace pgasq {
namespace {

/// Small mixed workload touching the instrumented paths: rdma put /
/// get, fetch_add, a collective, async-thread progress.
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

armci::WorldConfig timeline_config(std::uint64_t seed = 42) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = 4;
  cfg.machine.seed = seed;
  cfg.machine.obs.timeline = true;
  cfg.machine.obs.timeline_bucket = from_us(25);
  cfg.machine.obs.critpath = true;
  cfg.armci.progress = armci::ProgressMode::kAsyncThread;
  cfg.armci.contexts_per_rank = 2;
  return cfg;
}

/// Config from "key=value" pairs (the CLI parser minus the CLI).
Config cfg_of(std::initializer_list<std::pair<std::string, std::string>> kvs) {
  Config c;
  for (const auto& [k, v] : kvs) c.set(k, v);
  return c;
}

TEST(Timeline, BucketsAreDeterministicAcrossRerunsAndSeeds) {
  // Same seed, two runs: the exported timeline is byte-identical.
  armci::World a(timeline_config());
  a.spmd(mixed_workload);
  armci::World b(timeline_config());
  b.spmd(mixed_workload);
  const obs::Timeline* ta = a.machine().timeline();
  const obs::Timeline* tb = b.machine().timeline();
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  EXPECT_GT(ta->num_series(), 0u);
  EXPECT_EQ(ta->to_json().dump(), tb->to_json().dump());
  EXPECT_EQ(ta->to_csv(), tb->to_csv());

  // A different machine seed may shift values, but the structure —
  // bucket width and which series exist — is workload-determined.
  armci::World c(timeline_config(/*seed=*/7));
  c.spmd(mixed_workload);
  const obs::Timeline* tc = c.machine().timeline();
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(tc->bucket_width(), ta->bucket_width());
  const auto names_of = [](const obs::Json& doc) {
    std::set<std::string> names;
    const obs::Json& series = doc.at("series");
    for (std::size_t i = 0; i < series.size(); ++i)
      names.insert(series[i].at("name").as_string());
    return names;
  };
  EXPECT_EQ(names_of(ta->to_json()), names_of(tc->to_json()));
  // Bucket indices reconstruct virtual time: none may exceed the run.
  const obs::Json doc = ta->to_json();
  const obs::Json& series = doc.at("series");
  for (std::size_t i = 0; i < series.size(); ++i) {
    const obs::Json& buckets = series[i].at("buckets");
    std::int64_t prev = -1;
    for (std::size_t j = 0; j < buckets.size(); ++j) {
      const std::int64_t idx = buckets[j][0].as_int();
      EXPECT_GT(idx, prev) << "buckets out of order in series "
                           << series[i].at("name").as_string();
      prev = idx;
      EXPECT_LE(idx * ta->bucket_width(), a.elapsed());
    }
  }
}

TEST(Timeline, DisabledRunsAreByteIdenticalAndTimingUnchanged) {
  armci::WorldConfig off_cfg = timeline_config();
  off_cfg.machine.obs.timeline = false;
  off_cfg.machine.obs.critpath = false;

  // Off twice: the hooks are single pointer compares, and both the
  // human and the JSON report are byte-identical across reruns (the
  // in-process form of the bench_fig stdout identity, which check.sh's
  // timeline_gate asserts end to end on the real binaries).
  armci::World off1(off_cfg);
  off1.spmd(mixed_workload);
  armci::World off2(off_cfg);
  off2.spmd(mixed_workload);
  EXPECT_EQ(off1.machine().timeline(), nullptr);
  EXPECT_EQ(off1.machine().critpath(), nullptr);
  EXPECT_EQ(armci::render_report(off1), armci::render_report(off2));
  EXPECT_EQ(armci::render_json_report(off1).dump(),
            armci::render_json_report(off2).dump());
  const obs::Json off_doc = armci::render_json_report(off1);
  EXPECT_THROW(off_doc.at("timeline"), Error);
  EXPECT_THROW(off_doc.at("critpath"), Error);

  // On: observation is pure — virtual time and every metric are
  // unchanged; the report only gains the timeline/critpath sections.
  armci::World on(timeline_config());
  on.spmd(mixed_workload);
  EXPECT_EQ(on.elapsed(), off1.elapsed());
  const obs::Json on_doc = armci::render_json_report(on);
  EXPECT_EQ(on_doc.at("metrics").dump(), off_doc.at("metrics").dump());
  EXPECT_EQ(on_doc.at("timeline").at("schema").as_string(),
            "pgasq.timeline");
  EXPECT_EQ(on_doc.at("timeline").at("schema_version").as_int(),
            obs::Timeline::kSchemaVersion);
  EXPECT_EQ(on_doc.at("critpath").at("schema").as_string(),
            "pgasq.critpath");
}

TEST(Timeline, CritPathSegmentsSumToMeasuredLatency) {
  armci::World world(timeline_config());
  world.spmd(mixed_workload);
  const obs::CritPath* cp = world.machine().critpath();
  ASSERT_NE(cp, nullptr);
  EXPECT_GT(cp->legs(), 0u);
  // The attribution is an identity, not an estimate: inject-wait +
  // ser + wire + ack over all legs equals the measured sum of
  // (arrive - requested), in exact integer picoseconds.
  EXPECT_EQ(cp->segment_sum(), cp->total_latency());
  EXPECT_GE(cp->wire_wait_total(), cp->degraded_wire_wait());
  // No faults injected here, so no leg rode a degraded link.
  EXPECT_EQ(cp->degraded_wire_wait(), 0);
  const std::string table = cp->render();
  EXPECT_NE(table.find("critical path:"), std::string::npos);
}

TEST(Timeline, SeriesCapTruncatesWithWarn) {
  obs::Timeline tl(from_us(10), /*max_series=*/2);
  const auto a = tl.series("q.a", obs::Timeline::Kind::kGauge);
  const auto b = tl.series("q.b", obs::Timeline::Kind::kCounter);
  EXPECT_NE(a, obs::Timeline::kNone);
  EXPECT_NE(b, obs::Timeline::kNone);
  EXPECT_FALSE(tl.truncated());
  // Third registration hits the cap: WARNs once, flags truncated(),
  // and returns the no-op sentinel.
  const auto c = tl.series("q.c", obs::Timeline::Kind::kGauge);
  EXPECT_EQ(c, obs::Timeline::kNone);
  EXPECT_TRUE(tl.truncated());
  EXPECT_EQ(tl.num_series(), 2u);
  // Existing names still resolve after truncation; sampling into the
  // sentinel is a no-op, not a crash.
  EXPECT_EQ(tl.series("q.a", obs::Timeline::Kind::kGauge), a);
  tl.sample(c, from_us(1), 3.0);
  tl.count(c, from_us(1));
  tl.sample(a, from_us(1), 3.0);
  EXPECT_EQ(tl.gauge_peak("q.a"), 3.0);
  EXPECT_FALSE(tl.has("q.c"));
  // The export records the truncation so readers know the set is
  // incomplete.
  EXPECT_TRUE(tl.to_json().at("truncated").as_bool());
}

TEST(Timeline, ConfigTyposRejected) {
  pami::MachineConfig mc;
  EXPECT_THROW(
      pami::configure_observability(cfg_of({{"obs.timelin", "1"}}), mc),
      Error);
  EXPECT_THROW(pami::configure_observability(
                   cfg_of({{"obs.timeline_bucket_uss", "10"}}), mc),
               Error);
  EXPECT_THROW(
      pami::configure_observability(cfg_of({{"timeline.bucket_us", "10"}}),
                                    mc),
      Error);
  EXPECT_THROW(
      pami::configure_observability(cfg_of({{"obs.critpath_topk", "4"}}), mc),
      Error);
  pami::configure_observability(
      cfg_of({{"obs.timeline", "1"},
              {"obs.timeline_bucket_us", "25"},
              {"obs.timeline_max_series", "64"},
              {"obs.timeline_top", "4"},
              {"obs.timeline_csv", "/tmp/tl.csv"},
              {"obs.critpath", "1"},
              {"obs.critpath_top", "3"}}),
      mc);
  EXPECT_TRUE(mc.obs.timeline);
  EXPECT_EQ(mc.obs.timeline_bucket, from_us(25));
  EXPECT_EQ(mc.obs.timeline_max_series, 64);
  EXPECT_EQ(mc.obs.timeline_top, 4);
  EXPECT_EQ(mc.obs.timeline_csv, "/tmp/tl.csv");
  EXPECT_TRUE(mc.obs.critpath);
  EXPECT_EQ(mc.obs.critpath_top, 3);
}

}  // namespace
}  // namespace pgasq
