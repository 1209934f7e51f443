// Endpoint and remote-memory-region caches (S III-B).
//
// Endpoints: creation is local and cheap (beta = 0.3 us, alpha = 4 B),
// so ARMCI creates one per clique member on first communication and
// caches it for the application lifetime (M_e = zeta * alpha * rho).
// The cache holds only the (rank, context) pairs touched, so its host
// memory follows zeta, not the clique size p.
//
// Remote memory regions: region metadata for the whole clique would
// cost sigma * zeta * gamma bytes, prohibitive under strong scaling on
// a memory-limited machine, so non-collective regions live in a
// bounded cache with least-frequently-used replacement; misses are
// served by an active message to the owner.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/types.hpp"
#include "pami/memregion.hpp"
#include "pami/types.hpp"

namespace pgasq::armci {

/// Tracks which destination endpoints this rank has created, so beta
/// is paid once per clique member per context.
class EndpointCache {
 public:
  EndpointCache(int num_ranks, int contexts_per_rank);

  /// Returns true if (rank, context) is already cached; otherwise
  /// marks it cached and returns false (caller pays creation cost).
  /// Throws pgasq::Error if rank or context is out of range.
  bool lookup_or_mark(RankId rank, int context);

  /// Number of cached endpoints: zeta * rho, the touched clique times
  /// the contexts used per member.
  std::size_t size() const { return created_.size(); }

 private:
  int num_ranks_;
  int contexts_per_rank_;
  std::unordered_set<std::uint64_t> created_;  // rank * contexts + ctx
};

/// Bounded remote-region cache with LFU (default) or LRU replacement.
class RegionCache {
 public:
  explicit RegionCache(std::size_t capacity,
                       CacheReplacement policy = CacheReplacement::kLfu);

  /// Finds a cached region of `rank` covering [addr, addr+bytes);
  /// bumps its use frequency on hit.
  std::optional<pami::MemoryRegion> lookup(RankId rank, const std::byte* addr,
                                           std::size_t bytes);

  /// Inserts a region, evicting the least-frequently-used entry when
  /// full. Duplicate (rank, id) entries are refreshed in place.
  void insert(RankId rank, const pami::MemoryRegion& region);

  /// Drops all entries owned by `rank` (used at collective free).
  void invalidate_rank(RankId rank);
  /// Drops one region by owner id.
  void invalidate(RankId rank, std::uint64_t region_id);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

  CacheReplacement policy() const { return policy_; }

 private:
  struct Entry {
    RankId rank;
    pami::MemoryRegion region;
    std::uint64_t frequency = 1;
    std::uint64_t last_use = 0;
  };

  std::size_t capacity_;
  CacheReplacement policy_;
  std::uint64_t use_clock_ = 0;
  std::vector<Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace pgasq::armci
