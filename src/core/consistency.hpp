// Conflicting-memory-access tracking for location consistency (S III-E).
//
// ARMCI guarantees location consistency: a read (get) of a location
// must observe any earlier write (put/accumulate) this process issued
// to that location. The runtime enforces it by fencing outstanding
// writes to a target before servicing a read from it.
//
//  * kPerTarget (naive): one read/write status per clique member —
//    Theta(zeta) space but false positives: a get of matrix A forces a
//    fence of pending accumulates to matrix C on the same target even
//    though the structures are disjoint (the paper's dgemm example).
//  * kPerRegion: an 8-bit status per (distributed structure, target) —
//    Theta(sigma * zeta) space; reads fence only writes to the same
//    memory region.
//
// The tracker maintains outstanding-write counts keyed accordingly;
// remote acknowledgements (NIC-level for RDMA puts, post-apply for
// accumulates) decrement them. Counts exist only for targets (and
// regions) with writes in flight, so host memory follows the touched
// clique zeta, not the clique size p.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/types.hpp"

namespace pgasq::armci {

/// 8-bit communication-status word per tracked unit (cs_mr / cs_tgt).
struct StatusBits {
  static constexpr std::uint8_t kRead = 0x1;
  static constexpr std::uint8_t kWrite = 0x2;
};

class ConflictTracker {
 public:
  ConflictTracker(ConsistencyMode mode, int num_ranks);

  /// Key identifying the written structure. Region id 0 means
  /// "unknown region" and conservatively aliases everything on that
  /// target.
  struct Key {
    RankId target;
    std::uint64_t region_id;
    /// Quiesce generation the write was initiated in; acks from an
    /// earlier generation are stale and ignored.
    std::uint64_t gen = 0;
  };

  /// Records an initiated write; returns the key the eventual ack must
  /// be reported with.
  Key on_write_initiated(RankId target, std::uint64_t region_id);
  /// Records a write acknowledgement.
  void on_write_acked(const Key& key);

  /// Forgets every in-flight write and bumps the quiesce generation
  /// (fail-stop recovery: writes toward a dead peer will never ack, and
  /// late acks from before the quiesce must not debit new writes).
  void reset_outstanding();

  /// True if a read of (target, region_id) conflicts with outstanding
  /// writes under the configured mode — the caller must fence first.
  bool read_requires_fence(RankId target, std::uint64_t region_id) const;

  /// Outstanding writes to a target (any region).
  std::uint64_t outstanding_to(RankId target) const;
  /// Outstanding writes to one region of a target (per-region mode).
  std::uint64_t outstanding_to_region(RankId target, std::uint64_t region_id) const;
  /// Outstanding writes to every target.
  std::uint64_t outstanding_total() const { return total_; }

  /// 8-bit status word for diagnostics/tests (cs_mr or cs_tgt).
  std::uint8_t status(RankId target, std::uint64_t region_id) const;

  ConsistencyMode mode() const { return mode_; }

 private:
  static std::uint64_t pack(RankId target, std::uint64_t region_id);
  void check_target(RankId target) const;

  ConsistencyMode mode_;
  int num_ranks_;
  /// Outstanding write count per target with writes in flight (both
  /// modes need the per-target total for fence(target)); an entry is
  /// erased when its count drops to zero.
  std::unordered_map<RankId, std::uint64_t> per_target_;
  /// Outstanding write count per (target, region) — per-region mode.
  std::unordered_map<std::uint64_t, std::uint64_t> per_region_;
  std::uint64_t total_ = 0;
  std::uint64_t gen_ = 0;
};

}  // namespace pgasq::armci
