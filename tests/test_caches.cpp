// Unit tests for the endpoint cache and the LFU remote-region cache,
// plus integration of the region-query miss protocol.
#include <gtest/gtest.h>

#include "core/caches.hpp"
#include "core/comm.hpp"

namespace pgasq::armci {
namespace {

pami::MemoryRegion region(RankId owner, std::uint64_t id, std::size_t size = 64) {
  static std::byte arena[1 << 16];
  return pami::MemoryRegion{owner, arena + id * 256, size, id};
}

TEST(EndpointCache, MarksOncePerRankContext) {
  EndpointCache cache(4, 2);
  EXPECT_FALSE(cache.lookup_or_mark(1, 0));
  EXPECT_TRUE(cache.lookup_or_mark(1, 0));
  EXPECT_FALSE(cache.lookup_or_mark(1, 1));  // other context distinct
  EXPECT_FALSE(cache.lookup_or_mark(3, 0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_THROW(cache.lookup_or_mark(4, 0), Error);
}

TEST(EndpointCache, OutOfRangeContextDoesNotAliasAnotherRank) {
  EndpointCache cache(4, 2);
  // (1, 2) flattens to (2, 0) and (1, -1) to (0, 1): each must be
  // rejected, not silently mark another rank's endpoint.
  EXPECT_THROW(cache.lookup_or_mark(1, 2), Error);
  EXPECT_THROW(cache.lookup_or_mark(1, -1), Error);
  EXPECT_THROW(cache.lookup_or_mark(-1, 0), Error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup_or_mark(2, 0));
  EXPECT_FALSE(cache.lookup_or_mark(0, 1));
}

TEST(EndpointCache, SizeCountsOnlyTouchedPairsOfALargeClique) {
  EndpointCache cache(1 << 20, 2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup_or_mark(0, 0));
  EXPECT_FALSE(cache.lookup_or_mark(12345, 1));
  EXPECT_FALSE(cache.lookup_or_mark((1 << 20) - 1, 0));
  EXPECT_TRUE(cache.lookup_or_mark(12345, 1));
  EXPECT_FALSE(cache.lookup_or_mark(12345, 0));
  EXPECT_EQ(cache.size(), 4u);  // zeta = 3 peers, one of them on both contexts
  EXPECT_THROW(cache.lookup_or_mark(1 << 20, 0), Error);
  EXPECT_THROW(cache.lookup_or_mark(0, 2), Error);
}

TEST(RegionCache, HitBumpsFrequencyMissCounts) {
  RegionCache cache(4);
  cache.insert(1, region(1, 10));
  EXPECT_TRUE(cache.lookup(1, region(1, 10).base, 8).has_value());
  EXPECT_FALSE(cache.lookup(1, region(1, 11).base, 8).has_value());
  EXPECT_FALSE(cache.lookup(2, region(1, 10).base, 8).has_value());  // wrong owner
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(RegionCache, LfuEvictsColdestEntry) {
  RegionCache cache(3);
  cache.insert(1, region(1, 1));
  cache.insert(1, region(1, 2));
  cache.insert(1, region(1, 3));
  // Heat up 1 and 3.
  for (int i = 0; i < 5; ++i) {
    cache.lookup(1, region(1, 1).base, 8);
    cache.lookup(1, region(1, 3).base, 8);
  }
  cache.insert(1, region(1, 4));  // must evict region 2 (frequency 1)
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup(1, region(1, 1).base, 8).has_value());
  EXPECT_FALSE(cache.lookup(1, region(1, 2).base, 8).has_value());
  EXPECT_TRUE(cache.lookup(1, region(1, 3).base, 8).has_value());
  EXPECT_TRUE(cache.lookup(1, region(1, 4).base, 8).has_value());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(RegionCache, DuplicateInsertRefreshesInPlace) {
  RegionCache cache(2);
  cache.insert(1, region(1, 5));
  cache.insert(1, region(1, 5));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RegionCache, InvalidateByRankAndId) {
  RegionCache cache(8);
  cache.insert(1, region(1, 1));
  cache.insert(1, region(1, 2));
  cache.insert(2, region(2, 3));
  cache.invalidate(1, 1);
  EXPECT_EQ(cache.size(), 2u);
  cache.invalidate_rank(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.lookup(2, region(2, 3).base, 8).has_value());
}

TEST(RegionCache, CoverageSemantics) {
  RegionCache cache(2);
  const auto r = region(1, 6, 64);
  cache.insert(1, r);
  EXPECT_TRUE(cache.lookup(1, r.base + 32, 32).has_value());
  EXPECT_FALSE(cache.lookup(1, r.base + 32, 64).has_value());  // spills out
}

TEST(RegionQueryProtocol, MissResolvedViaAmAndCached) {
  // Private buffer published via directory: the first access misses
  // and queries the owner; repeats hit the cache.
  WorldConfig cfg;
  cfg.machine.num_ranks = 2;
  World world(cfg);
  world.spmd([](Comm& comm) {
    auto* priv = static_cast<std::byte*>(comm.malloc_local(1024));
    auto& directory = comm.malloc_collective(sizeof(std::byte*));
    *reinterpret_cast<std::byte**>(directory.local(comm.rank())) = priv;
    if (comm.rank() == 1) priv[7] = std::byte{0x5A};
    comm.barrier();
    if (comm.rank() == 0) {
      std::byte* remote = nullptr;
      comm.get(directory.at(1), &remote, sizeof remote);
      std::byte back[16] = {};
      comm.get(RemotePtr{1, remote}, back, 16);
      EXPECT_EQ(back[7], std::byte{0x5A});
      EXPECT_EQ(comm.stats().region_queries_sent, 1u);
      comm.get(RemotePtr{1, remote}, back, 16);
      EXPECT_EQ(comm.stats().region_queries_sent, 1u) << "second access must hit";
      EXPECT_GE(comm.region_cache().hits(), 1u);
    }
    comm.barrier();
  });
}

TEST(RegionQueryProtocol, UnregisteredRemoteBufferFallsBack) {
  // The target's buffer is NOT registered (region limit 1 eaten by the
  // directory): the query returns not-found and the op falls back.
  WorldConfig cfg;
  cfg.machine.num_ranks = 2;
  cfg.machine.max_memregions_per_rank = 1;
  World world(cfg);
  world.spmd([](Comm& comm) {
    auto& directory = comm.malloc_collective(sizeof(std::byte*));  // takes region #1
    static std::byte private_bufs[2][256];
    std::byte* priv = private_bufs[comm.rank()];
    *reinterpret_cast<std::byte**>(directory.local(comm.rank())) = priv;
    if (comm.rank() == 1) priv[3] = std::byte{0x77};
    comm.barrier();
    if (comm.rank() == 0) {
      std::byte* remote = nullptr;
      comm.get(directory.at(1), &remote, sizeof remote);
      std::byte back[8] = {};
      comm.get(RemotePtr{1, remote}, back, 8);
      EXPECT_EQ(back[3], std::byte{0x77});
      EXPECT_GE(comm.stats().fallback_gets, 1u);
    }
    comm.barrier();
  });
}

}  // namespace
}  // namespace pgasq::armci
