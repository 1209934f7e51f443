#include "core/consistency.hpp"

#include "util/error.hpp"

namespace pgasq::armci {

ConflictTracker::ConflictTracker(ConsistencyMode mode, int num_ranks)
    : mode_(mode), num_ranks_(num_ranks) {
  PGASQ_CHECK(num_ranks >= 1, << "num_ranks = " << num_ranks);
}

void ConflictTracker::check_target(RankId target) const {
  PGASQ_CHECK(target >= 0 && target < num_ranks_,
              << "target " << target << " outside [0, " << num_ranks_ << ")");
}

std::uint64_t ConflictTracker::pack(RankId target, std::uint64_t region_id) {
  PGASQ_CHECK(region_id < (1ULL << 32), << "region id " << region_id);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(target)) << 32) |
         region_id;
}

ConflictTracker::Key ConflictTracker::on_write_initiated(RankId target,
                                                         std::uint64_t region_id) {
  check_target(target);
  ++per_target_[target];
  ++total_;
  if (mode_ == ConsistencyMode::kPerRegion) {
    ++per_region_[pack(target, region_id)];
  }
  return Key{target, region_id, gen_};
}

void ConflictTracker::on_write_acked(const Key& key) {
  if (key.gen != gen_) return;  // write forgotten by reset_outstanding()
  check_target(key.target);
  const auto t = per_target_.find(key.target);
  PGASQ_CHECK(t != per_target_.end(),
              << "write ack underflow for target " << key.target);
  if (--t->second == 0) per_target_.erase(t);
  PGASQ_CHECK(total_ > 0);
  --total_;
  if (mode_ == ConsistencyMode::kPerRegion) {
    const auto it = per_region_.find(pack(key.target, key.region_id));
    PGASQ_CHECK(it != per_region_.end() && it->second > 0,
                << "region ack underflow for target " << key.target << " region "
                << key.region_id);
    if (--it->second == 0) per_region_.erase(it);
  }
}

void ConflictTracker::reset_outstanding() {
  per_target_.clear();
  per_region_.clear();
  total_ = 0;
  ++gen_;
}

bool ConflictTracker::read_requires_fence(RankId target,
                                          std::uint64_t region_id) const {
  if (mode_ == ConsistencyMode::kPerTarget) {
    return outstanding_to(target) > 0;
  }
  // Region id 0 ("unknown") conservatively conflicts with any
  // outstanding write on this target.
  if (region_id == 0) return outstanding_to(target) > 0;
  // A pending unknown-region write also aliases everything.
  if (outstanding_to_region(target, 0) > 0) return true;
  return outstanding_to_region(target, region_id) > 0;
}

std::uint64_t ConflictTracker::outstanding_to(RankId target) const {
  check_target(target);
  const auto it = per_target_.find(target);
  return it == per_target_.end() ? 0 : it->second;
}

std::uint64_t ConflictTracker::outstanding_to_region(RankId target,
                                                     std::uint64_t region_id) const {
  if (mode_ == ConsistencyMode::kPerTarget) return outstanding_to(target);
  check_target(target);
  const auto it = per_region_.find(pack(target, region_id));
  return it == per_region_.end() ? 0 : it->second;
}

std::uint8_t ConflictTracker::status(RankId target, std::uint64_t region_id) const {
  std::uint8_t s = 0;
  if (mode_ == ConsistencyMode::kPerTarget) {
    if (outstanding_to(target) > 0) s |= StatusBits::kWrite;
  } else {
    if (outstanding_to_region(target, region_id) > 0) s |= StatusBits::kWrite;
  }
  return s;
}

}  // namespace pgasq::armci
