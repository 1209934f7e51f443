#include "core/caches.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pgasq::armci {

EndpointCache::EndpointCache(int num_ranks, int contexts_per_rank)
    : num_ranks_(num_ranks), contexts_per_rank_(contexts_per_rank) {
  PGASQ_CHECK(num_ranks >= 1 && contexts_per_rank >= 1);
}

bool EndpointCache::lookup_or_mark(RankId rank, int context) {
  PGASQ_CHECK(rank >= 0 && rank < num_ranks_ && context >= 0 &&
                  context < contexts_per_rank_,
              << "endpoint (" << rank << "," << context << ") outside " << num_ranks_
              << " ranks x " << contexts_per_rank_ << " contexts");
  const auto key = static_cast<std::uint64_t>(rank) *
                       static_cast<std::uint64_t>(contexts_per_rank_) +
                   static_cast<std::uint64_t>(context);
  return !created_.insert(key).second;
}

RegionCache::RegionCache(std::size_t capacity, CacheReplacement policy)
    : capacity_(capacity), policy_(policy) {
  PGASQ_CHECK(capacity_ >= 1);
}

std::optional<pami::MemoryRegion> RegionCache::lookup(RankId rank,
                                                      const std::byte* addr,
                                                      std::size_t bytes) {
  for (auto& e : entries_) {
    if (e.rank == rank && e.region.covers(addr, bytes)) {
      ++e.frequency;
      e.last_use = ++use_clock_;
      ++hits_;
      return e.region;
    }
  }
  ++misses_;
  return std::nullopt;
}

void RegionCache::insert(RankId rank, const pami::MemoryRegion& region) {
  for (auto& e : entries_) {
    if (e.rank == rank && e.region.id == region.id) {
      e.region = region;
      ++e.frequency;
      e.last_use = ++use_clock_;
      return;
    }
  }
  if (entries_.size() >= capacity_) {
    // Pick the victim per policy; ties evict the oldest entry (lowest
    // index, since min_element keeps the first minimum).
    auto victim = std::min_element(
        entries_.begin(), entries_.end(), [this](const Entry& a, const Entry& b) {
          if (policy_ == CacheReplacement::kLfu) return a.frequency < b.frequency;
          return a.last_use < b.last_use;
        });
    entries_.erase(victim);
    ++evictions_;
  }
  entries_.push_back(Entry{rank, region, 1, ++use_clock_});
}

void RegionCache::invalidate_rank(RankId rank) {
  std::erase_if(entries_, [rank](const Entry& e) { return e.rank == rank; });
}

void RegionCache::invalidate(RankId rank, std::uint64_t region_id) {
  std::erase_if(entries_, [rank, region_id](const Entry& e) {
    return e.rank == rank && e.region.id == region_id;
  });
}

}  // namespace pgasq::armci
