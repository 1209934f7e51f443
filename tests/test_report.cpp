// The post-run communication report: content sanity, histogram
// plumbing through CommStats, and byte-exact golden text and JSON
// reports over worlds that light every statistics section.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "async/async.hpp"
#include "coll/coll.hpp"
#include "coll/nbc.hpp"
#include "core/comm.hpp"
#include "core/report.hpp"
#include "ft/liveness.hpp"
#include "ft/recovery.hpp"
#include "kvs/kvs.hpp"
#include "obs/critpath.hpp"
#include "obs/timeline.hpp"
#include "sim/trace.hpp"

namespace pgasq::armci {
namespace {

TEST(Report, ContainsTheRunsTraffic) {
  WorldConfig cfg;
  cfg.machine.num_ranks = 4;
  World world(cfg);
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(8192);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(8192));
    const int peer = (comm.rank() + 1) % comm.nprocs();
    comm.put(buf, mem.at(peer), 4096);
    comm.get(mem.at(peer), buf, 64);
    std::vector<double> v(8, 1.0);
    comm.acc(1.0, v.data(), mem.at(peer), 8);
    comm.fetch_add(mem.at(0).offset(8000), 1);
    comm.barrier();
  });
  const std::string report = render_report(world);
  EXPECT_NE(report.find("pgasq communication report"), std::string::npos);
  EXPECT_NE(report.find("4 ranks"), std::string::npos);
  EXPECT_NE(report.find("rmw (fetch&add etc.)"), std::string::npos);
  EXPECT_NE(report.find("put sizes (log2 buckets):"), std::string::npos);
  EXPECT_NE(report.find("fence calls"), std::string::npos);
}

TEST(Report, HistogramsCountEveryOperation) {
  WorldConfig cfg;
  cfg.machine.num_ranks = 2;
  World world(cfg);
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(1 << 16);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(1 << 16));
    if (comm.rank() == 0) {
      comm.put(buf, mem.at(1), 100);
      comm.put(buf, mem.at(1), 5000);
      comm.get(mem.at(1), buf, 256);
      EXPECT_EQ(comm.stats().put_sizes.total(), 2u);
      EXPECT_EQ(comm.stats().get_sizes.total(), 1u);
    }
    comm.barrier();
  });
  const CommStats total = world.total_stats();
  EXPECT_EQ(total.put_sizes.total(), 2u);
  EXPECT_EQ(total.get_sizes.total(), 1u);
}

// ---------------------------------------------------------------------------
// Golden reports. Each case renders the text report and the JSON report
// of one small deterministic run and compares them byte for byte with
// tests/golden/<case>.txt and <case>.json. Set PGASQ_UPDATE_GOLDEN=1 to
// rewrite the files from the current code instead of comparing.

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Empty when equal; otherwise the first differing line of each side.
std::string first_difference(const std::string& want, const std::string& got) {
  std::istringstream a(want), b(got);
  std::string la, lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) return want == got ? "" : "trailing newline differs";
    if (more_a != more_b || la != lb) {
      return "line " + std::to_string(line) + ":\n  golden: " +
             (more_a ? la : "<end of file>") + "\n  actual: " +
             (more_b ? lb : "<end of file>");
    }
  }
}

void expect_golden(const std::string& file, const std::string& actual) {
  const std::string path = std::string(PGASQ_GOLDEN_DIR) + "/" + file;
  if (std::getenv("PGASQ_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    return;
  }
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << path;
  const std::string diff = first_difference(golden, actual);
  EXPECT_TRUE(diff.empty()) << file << " differs from the golden at " << diff;
}

void expect_golden_reports(const std::string& name, const World& world) {
  expect_golden(name + ".txt", render_report(world));
  expect_golden(name + ".json", render_json_report(world).dump() + "\n");
}

TEST(Report, GoldenTextAndJson) {
  {
    // Operations of every kind, fences, blocked-in times, size
    // histograms, per-link accounting, and world plus per-group
    // collectives: 16 ranks, 8 per node, with the hardware collectives
    // off, so the two-level schedules run over their node and leader
    // groups.
    WorldConfig cfg;
    cfg.machine.num_ranks = 16;
    cfg.machine.ranks_per_node = 8;
    cfg.machine.obs.links = true;
    cfg.armci.coll = {{"hw", "0"}};
    World world(cfg);
    world.spmd([](Comm& comm) {
      auto& mem = comm.malloc_collective(8192);
      auto* buf = static_cast<std::byte*>(comm.malloc_local(8192));
      auto* x = static_cast<double*>(comm.malloc_local(64 * sizeof(double)));
      for (int i = 0; i < 64; ++i) x[i] = comm.rank() + i;
      const int peer = (comm.rank() + 1) % comm.nprocs();
      comm.put(buf, mem.at(peer), 4096);
      comm.get(mem.at(peer), buf, 64);
      comm.acc(1.0, x, mem.at(peer), 8);
      comm.put_strided(buf, mem.at(peer), StridedSpec::rect2d(16, 64, 128, 128));
      comm.fetch_add(mem.at(0).offset(8000), 1);
      comm.fence(peer);
      auto& engine = coll::CollEngine::of(comm);
      engine.allreduce_sum(x, 64);
      engine.broadcast(buf, 1024, 0);
      engine.barrier();
    });
    expect_golden_reports("traffic", world);
  }
  {
    // Packet loss and corruption under transport CRC verification, with
    // a one-credit flow window backpressuring the non-blocking puts.
    WorldConfig cfg;
    cfg.machine.num_ranks = 4;
    cfg.machine.ranks_per_node = 1;
    cfg.machine.dims = topo::Coord5{4, 1, 1, 1, 1};
    cfg.machine.fault.seed = 5;
    cfg.machine.fault.drop_prob = 0.05;
    cfg.machine.fault.corrupt_prob = 0.05;
    cfg.machine.integrity.configured = true;
    cfg.machine.flow.configured = true;
    cfg.machine.flow.credits = 1;
    World world(cfg);
    world.spmd([](Comm& comm) {
      constexpr std::size_t kBytes = 2048;
      auto& mem = comm.malloc_collective(4 * kBytes);
      auto* src = static_cast<std::byte*>(comm.malloc_local(4 * kBytes));
      const RankId dst = (comm.rank() + 1) % comm.nprocs();
      for (int round = 0; round < 8; ++round) {
        Handle h[4];
        for (int i = 0; i < 4; ++i) {
          const std::size_t off = static_cast<std::size_t>(i) * kBytes;
          comm.nb_put(src + off, mem.at(dst, off), kBytes, h[i]);
        }
        for (auto& hh : h) comm.wait(hh);
      }
      comm.get(mem.at(dst), src, kBytes);
      comm.barrier();
    });
    expect_golden_reports("faults", world);
  }
  {
    // A node death during a barrier loop: detection, quarantine and one
    // rollback of the seven survivors.
    WorldConfig cfg;
    cfg.machine.num_ranks = 8;
    cfg.machine.ranks_per_node = 1;
    cfg.machine.dims = topo::Coord5{2, 2, 2, 1, 1};
    cfg.machine.fault.node_fails.push_back({/*node=*/4, from_ms(15)});
    World world(cfg);
    world.spmd([](Comm& comm) {
      coll::CollEngine::of(comm);
      ft::Runtime rt(comm, {}, std::vector<ga::GlobalArray*>{});
      int i = 0;
      while (i < 2000) {
        try {
          comm.compute(from_us(10));
          comm.barrier();
          ++i;
        } catch (const ft::PeerDeadError&) {
          bool alive = true;
          while (true) {
            try {
              alive = rt.recover();
              break;
            } catch (const ft::PeerDeadError&) {
            }
          }
          if (!alive) return;
        }
      }
    });
    ASSERT_NE(world.machine().monitor(), nullptr);
    EXPECT_EQ(world.machine().monitor()->stats().detections, 1u);
    expect_golden_reports("failstop", world);
  }
  {
    // Application metrics published by the key-value service.
    WorldConfig cfg;
    cfg.machine.num_ranks = 7;
    World world(cfg);
    kvs::KvConfig kc;
    kc.keys = 256;
    kc.requests = 8;
    kc.get_ratio = 0.5;
    kc.faa_ratio = 0.2;
    kc.zipf_theta = 0.99;
    const kvs::KvResult r = kvs::run_workload(world, kc);
    kvs::export_metrics(world.app_metrics(), r, {{"mix", "zipfian"}});
    expect_golden_reports("kvs", world);
  }
}

// ---------------------------------------------------------------------------
// Golden observability outputs. Two small runs with every sink on (trace
// recorder, timeline, link usage, critical path), one per network model,
// pin the trace JSON, the pgasq.timeline JSON, the link CSV and the
// pgasq.critpath JSON byte for byte: the trace-track and series
// registration order included, since the contention run caps the series
// count and so keeps only the first ones registered.

void expect_golden_observability(const std::string& name, const World& world) {
  const pami::Machine& m = world.machine();
  ASSERT_NE(m.trace(), nullptr);
  ASSERT_NE(m.timeline(), nullptr);
  ASSERT_NE(m.link_usage(), nullptr);
  ASSERT_NE(m.critpath(), nullptr);
  expect_golden(name + "_trace.json", m.trace()->to_json());
  expect_golden(name + "_timeline.json", m.timeline()->to_json().dump() + "\n");
  expect_golden(name + "_links.csv", m.link_usage()->to_csv());
  expect_golden(name + "_critpath.json", m.critpath()->to_json().dump() + "\n");
}

WorldConfig all_sinks_on(const std::string& name) {
  WorldConfig cfg;
  cfg.machine.trace_json_path = ::testing::TempDir() + name + ".trace.json";
  cfg.machine.obs.links = true;
  cfg.machine.obs.timeline = true;
  cfg.machine.obs.timeline_bucket = from_us(50);
  cfg.machine.obs.critpath = true;
  return cfg;
}

TEST(Report, GoldenObservabilityOutputs) {
  {
    // LogGP: an open-loop key-value service under packet loss and
    // corruption, with a one-credit flow window, deadlines and AIMD
    // admission control.
    WorldConfig cfg = all_sinks_on("obs_loggp");
    cfg.machine.num_ranks = 4;
    cfg.machine.fault.seed = 3;
    cfg.machine.fault.drop_prob = 0.05;
    cfg.machine.fault.corrupt_prob = 0.05;
    cfg.machine.integrity.configured = true;
    cfg.machine.flow.configured = true;
    cfg.machine.flow.credits = 1;
    cfg.machine.flow.deadline_us = 40.0;
    cfg.machine.flow.admit = true;
    cfg.machine.flow.init_limit = 2;
    cfg.machine.flow.low_prio_frac = 0.3;
    World world(cfg);
    kvs::KvConfig kc;
    kc.keys = 64;
    kc.requests = 16;
    kc.get_ratio = 0.5;
    kc.faa_ratio = 0.2;
    kc.value_bytes = 128;
    kc.arrival_rate = 100000.0;
    kc.verify = false;
    kvs::run_workload(world, kc);
    ASSERT_NE(world.machine().injector(), nullptr);
    const fault::FaultStats& fs = world.machine().injector()->stats();
    EXPECT_GT(fs.packets_dropped, 0u);
    EXPECT_GT(fs.packets_corrupted, 0u);
    const flow::FlowStats& st = world.machine().flow()->stats();
    EXPECT_GT(st.expired_client + st.expired_server, 0u);
    EXPECT_GT(st.shed_low_prio + st.shed_high_prio, 0u);
    expect_golden_observability("obs_loggp", world);
  }
  {
    // Link contention: a burst of non-blocking puts through a
    // one-credit flow window, a software allreduce, an iallreduce on
    // the async runtime, then a node death during a barrier loop and
    // the survivors' rollback.
    WorldConfig cfg = all_sinks_on("obs_contention");
    cfg.machine.num_ranks = 4;
    cfg.machine.network_model = "contention";
    cfg.machine.dims = topo::Coord5{2, 2, 1, 1, 1};
    cfg.machine.obs.timeline_max_series = 20;
    cfg.machine.fault.node_fails.push_back({/*node=*/2, from_us(5800)});
    cfg.machine.flow.configured = true;
    cfg.machine.flow.credits = 1;
    cfg.armci.coll = {{"algo.allreduce", "recdbl"}};
    World world(cfg);
    world.spmd([](Comm& comm) {
      constexpr std::size_t kBytes = 1024;
      auto& mem = comm.malloc_collective(4 * kBytes);
      auto* src = static_cast<std::byte*>(comm.malloc_local(4 * kBytes));
      const RankId dst = (comm.rank() + 1) % comm.nprocs();
      Handle h[4];
      for (int k = 0; k < 4; ++k) {
        const std::size_t off = static_cast<std::size_t>(k) * kBytes;
        comm.nb_put(src + off, mem.at(dst, off), kBytes, h[k]);
      }
      for (auto& hh : h) comm.wait(hh);
      double x[8];
      for (int k = 0; k < 8; ++k) x[k] = comm.rank() + k;
      coll::CollEngine::of(comm).allreduce_sum(x, 8);
      double y = comm.rank();
      async::Runtime::of(comm).wait(coll::NbcEngine::of(comm).iallreduce_sum(&y, 1));
      ft::Runtime rt(comm, {}, std::vector<ga::GlobalArray*>{});
      int i = 0;
      while (i < 50) {
        try {
          comm.compute(from_us(10));
          comm.barrier();
          ++i;
        } catch (const ft::PeerDeadError&) {
          bool alive = true;
          while (true) {
            try {
              alive = rt.recover();
              break;
            } catch (const ft::PeerDeadError&) {
            }
          }
          if (!alive) return;
        }
      }
    });
    ASSERT_NE(world.machine().monitor(), nullptr);
    EXPECT_EQ(world.machine().monitor()->stats().detections, 1u);
    EXPECT_GT(world.machine().flow()->stats().credit_stalls, 0u);
    EXPECT_TRUE(world.machine().timeline()->truncated());
    expect_golden_observability("obs_contention", world);
  }
}

TEST(RegionCachePolicy, LruEvictsByRecencyLfuByFrequency) {
  // Direct unit check of the two policies over the same access trace.
  auto region = [](std::uint64_t id) {
    static std::byte arena[1 << 14];
    return pami::MemoryRegion{1, arena + id * 128, 64, id};
  };
  for (const auto policy : {CacheReplacement::kLfu, CacheReplacement::kLru}) {
    RegionCache cache(2, policy);
    cache.insert(1, region(1));
    cache.insert(1, region(2));
    // Heat region 1, then touch region 2 last.
    for (int i = 0; i < 5; ++i) cache.lookup(1, region(1).base, 8);
    cache.lookup(1, region(2).base, 8);
    cache.insert(1, region(3));  // forces an eviction
    if (policy == CacheReplacement::kLfu) {
      // 2 had lower frequency: evicted despite being recent.
      EXPECT_TRUE(cache.lookup(1, region(1).base, 8).has_value());
      EXPECT_FALSE(cache.lookup(1, region(2).base, 8).has_value());
    } else {
      // 1 was less recent at eviction time? No: 1 was touched before 2,
      // so LRU evicts 1.
      EXPECT_FALSE(cache.lookup(1, region(1).base, 8).has_value());
      EXPECT_TRUE(cache.lookup(1, region(2).base, 8).has_value());
    }
  }
}

TEST(RegionCachePolicy, WorldOptionSelectsPolicy) {
  WorldConfig cfg;
  cfg.machine.num_ranks = 2;
  cfg.armci.region_cache_policy = CacheReplacement::kLru;
  World world(cfg);
  world.spmd([](Comm& comm) {
    EXPECT_EQ(comm.region_cache().policy(), CacheReplacement::kLru);
    comm.barrier();
  });
}

}  // namespace
}  // namespace pgasq::armci
