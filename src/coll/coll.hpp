// CollEngine — topology-aware collective operations for the ARMCI
// runtime.
//
// One engine attaches lazily to each rank's Comm (in the Comm's opaque
// coll slot) the first time a collective is invoked; creation is itself
// collective, so the attach happens at the same program point on every
// rank. The engine owns
//
//   * a persistent scratch arena (one collective allocation, grown
//     geometrically) instead of the malloc/free-per-call pattern —
//     on BG/Q every registration costs a ~43 us memregion_create
//     (Table I), so reusing the arena is itself a measurable win;
//   * a slot/flag transport on that arena: each message is one put of
//     [flag word | payload], delivered atomically by the simulator,
//     with per-invocation-unique slots and an epoch-monotone flag so
//     fault-induced skew (retransmit backoff) can never alias a stale
//     message into the current invocation;
//   * software schedules on the torus — binomial/dissemination trees,
//     recursive doubling with the non-power-of-two fold, and
//     per-torus-dimension ring (bucket) pipelines driven by
//     topo::Torus5D neighbour geometry;
//   * a calibrated model of the BG/Q collective-logic hardware
//     (kHw): contributions combine in rank order at a shared
//     rendezvous and every participant releases after
//     startup + 2 * diameter * hop + bytes / 2 GB/s, the way the
//     real spanning-tree logic behaves (S II-A);
//   * the selection table (selection.hpp) choosing between all of the
//     above per invocation, and per-(op, algorithm) statistics that
//     core renders into the communication report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coll/selection.hpp"
#include "coll/slot.hpp"
#include "core/comm.hpp"
#include "sim/trace.hpp"

namespace pgasq::coll {

struct HwShared;

/// Membership + labelling of a group-mode engine (process groups from
/// src/grp, and the hierarchy's internal node/leader groups).
/// Construction is collective over ALL live world ranks — including
/// ranks that are not members: they pass the same `control_slots`
/// (arena sizing must be uniform) and get a non-member engine whose
/// collective calls are rejected.
struct GroupSpec {
  /// World ranks in schedule order; empty for a non-member engine.
  std::vector<int> members;
  /// Stats / trace key (e.g. "node", "leaders", "g3"). Per-group
  /// CollStats land in Comm::group_coll_stats(label).
  std::string label;
  /// Width of the per-rank control arena in address-table slots; must
  /// be >= the largest member count of any group constructed at this
  /// collective point. 0 means members.size().
  std::size_t control_slots = 0;
};

class CollEngine {
 public:
  /// The engine attached to `comm`, created (collectively!) on first
  /// use. All ranks must make their first engine-backed call at the
  /// same collective program point.
  static CollEngine& of(armci::Comm& comm);

  explicit CollEngine(armci::Comm& comm);
  /// Shrunk-clique engine (fail-stop recovery): schedules run over
  /// `members` (ascending surviving world ranks) only. Members address
  /// each other by member-list position; the torus ring and hardware
  /// collective-logic schedules are unselectable (a survivor set has
  /// no clean torus decomposition).
  CollEngine(armci::Comm& comm, std::vector<int> members);
  /// Group-mode engine (see GroupSpec): schedules run over the group's
  /// members only, on a private two-tier arena — a world-collective
  /// control arena (software-barrier words + member address table) and
  /// per-member registered data areas whose bases are re-exchanged
  /// through the control arena on growth. The hardware collective
  /// logic is unselectable; torus rings survive when the member set
  /// decomposes into an axis-aligned box of (coordinate, slot) tuples.
  CollEngine(armci::Comm& comm, const GroupSpec& spec);
  ~CollEngine();
  CollEngine(const CollEngine&) = delete;
  CollEngine& operator=(const CollEngine&) = delete;

  /// Replaces `comm`'s attached engine with a fresh one over the
  /// surviving `members` (fail-stop communicator shrink). The old
  /// engine's arena is dropped freed-but-kept, so in-flight slot
  /// writes from the previous epoch land in dead memory harmlessly.
  static void rebuild_shrunk(armci::Comm& comm, std::vector<int> members);

  // --- Collective operations (all ranks must call, in order) -----------------

  void barrier();
  /// Root's buffer replicated everywhere.
  void broadcast(void* data, std::size_t bytes, armci::RankId root);
  /// Elementwise sum of every rank's x[0..n); result lands at root
  /// (other ranks' buffers are unspecified afterwards).
  void reduce_sum(double* x, std::size_t n, armci::RankId root);
  /// Elementwise sum, result replicated (bitwise identically) on every
  /// rank regardless of the algorithm chosen.
  void allreduce_sum(double* x, std::size_t n);
  /// Every rank contributes `bytes`; out[r*bytes ..] receives rank r's
  /// contribution. `out` is p * bytes.
  void allgather(const void* in, std::size_t bytes, void* out);
  /// Personalized exchange: in[r*bytes ..] goes to rank r, which
  /// stores it at out[me*bytes ..]. Both buffers are p * bytes.
  void alltoall(const void* in, std::size_t bytes, void* out);

  // --- Introspection ----------------------------------------------------------

  const CollConfig& config() const { return config_; }
  const Geometry& geometry() const { return geometry_; }
  /// What the selection table would run for `op` on `bytes` of payload.
  Algo algo_for(Op op, std::uint64_t bytes) const {
    return config_.choose(op, bytes, geometry_);
  }
  /// Group-mode membership: true except for a non-member group engine.
  bool is_member() const { return member_; }
  /// My schedule position (dense group rank in group mode, world rank
  /// in full mode, member index after a shrink); -1 for a non-member.
  int group_rank() const { return me_; }
  /// The schedule's member list (world ranks). Empty in full-clique
  /// mode, where position v IS world rank v.
  const std::vector<int>& group_members() const { return members_; }

 private:
  /// One ring the torus decomposes this clique into: a torus dimension
  /// of extent > 1, or the within-node T dimension.
  struct RingDim {
    int torus_dim;  ///< 0..4, or -1 for T
    int size;       ///< ring extent m
    int digit;      ///< my position on the ring
    int next;       ///< rank one step in +1 direction
    int prev;       ///< rank one step in -1 direction
  };

  class OpTimer;

  // Scratch arena & slot transport (coll.cpp).
  bool ensure_scratch(std::size_t data_bytes);
  /// Opens a data-moving invocation: sizes the slot layout, isolates
  /// it from the previous epoch (hardware-barrier rendezvous in full
  /// mode, software group rendezvous in group mode, zeroing the slots
  /// when the layout changed), and advances the epoch.
  void begin_data_op(std::size_t slot_payload, std::size_t n_slots);
  /// Group mode: quiesce the previous epoch without touching the
  /// world-wide hardware barrier (fence + dissemination over the
  /// control-arena words; same delivery guarantee for members).
  void group_rendezvous();
  /// Group mode: replace the data area with a fresh zero-filled
  /// registered allocation of >= `need` bytes and re-exchange member
  /// base addresses through the control arena. The old area is kept
  /// (never freed), so straggler writes and stale remote region
  /// handles stay harmless. Callers are synchronized (begin_data_op).
  void group_grow(std::size_t need);
  /// Where slot `slot` of member `to` / of me lives this epoch.
  armci::RemotePtr slot_remote(int to, std::size_t slot);
  std::byte* slot_local(std::size_t slot);
  void send(int to, std::size_t slot, const void* data, std::size_t bytes);
  /// Non-blocking send for all-to-all overlap; `stage` must stay live
  /// (hdr() + bytes capacity) until the next epoch's rendezvous — under
  /// slot checksums the receiver may re-fetch the payload from it.
  void send_nb(int to, std::size_t slot, const void* data, std::size_t bytes,
               std::byte* stage, armci::Handle& handle);
  /// Blocks until this epoch's message lands in `slot`; returns its
  /// payload (valid until the next invocation), verified and repaired
  /// under slot checksums (SlotTransport::open).
  const std::byte* recv_wait(std::size_t slot, std::size_t bytes);
  /// The schedule hop interface (schedule.hpp) over send / recv_wait.
  class Blocking;
  /// Aborts unless this engine is a member of its group.
  void require_member() const;

  // Barrier-word transport (fixed region at the base of the arena).
  void put_word(int to, int word, std::uint64_t value);
  void wait_word(int word, std::uint64_t at_least);

  // Barrier schedules (coll.cpp).
  void run_barrier(Algo algo);
  void barrier_dissemination();
  void barrier_tree();
  void barrier_ring();

  // Software data schedules (algorithms.cpp).
  void bcast_binomial(std::byte* data, std::size_t bytes, int root);
  /// Chain-tree broadcast; `seg > 0` pipelines the payload down the
  /// chains in `seg`-byte segments (one slot per segment), so a hop
  /// forwards segment s while still receiving s+1. seg == 0 keeps the
  /// whole-payload-per-hop schedule.
  void bcast_ring(std::byte* data, std::size_t bytes, int root, std::size_t seg);
  void reduce_binomial(double* x, std::size_t n, int root);
  void allreduce_recdbl(double* x, std::size_t n);
  void allreduce_rab(double* x, std::size_t n);
  void allreduce_ring(double* x, std::size_t n);
  void allgather_binomial(const std::byte* in, std::size_t bytes, std::byte* out);
  void allgather_recdbl(const std::byte* in, std::size_t bytes, std::byte* out);
  void allgather_ring(const std::byte* in, std::size_t bytes, std::byte* out);
  void alltoall_pairwise_xor(const std::byte* in, std::size_t bytes, std::byte* out);
  void alltoall_torus(const std::byte* in, std::size_t bytes, std::byte* out);

  // Hierarchical node-aware schedules (hier.cpp): intra-node combine
  // over the shared-memory path, inter-node step via the leaders
  // group, pipelined intra-node fan-out.
  void ensure_hier();
  void hier_barrier();
  void hier_broadcast(std::byte* data, std::size_t bytes, int root);
  void hier_reduce_sum(double* x, std::size_t n, int root, bool all);
  void hier_allgather(const std::byte* in, std::size_t bytes, std::byte* out);
  /// Runs a specific broadcast schedule (bypassing selection) — the
  /// hierarchy's fan-out primitive on the node group.
  void broadcast_with(Algo algo, std::byte* data, std::size_t bytes, int root,
                      std::size_t seg);
  /// Effective fan-out segment size: the configured
  /// coll.bcast_segment_bytes, or the built-in default when unset.
  std::size_t fanout_segment() const;

  // Hardware collective-logic model (coll.cpp).
  void hw_broadcast(std::byte* data, std::size_t bytes, int root);
  void hw_reduce_sum(double* x, std::size_t n, int root, bool all);
  /// Rendezvous: contribute `bytes` of data, the last arrival runs
  /// `fold` (rank-order deterministic), and every participant releases
  /// after the modelled latency for `model_bytes`.
  void hw_rendezvous(const void* contribution, std::size_t bytes,
                     std::size_t model_bytes,
                     const std::function<void(HwShared&)>& fold);
  Time hw_latency(std::size_t bytes) const;

  // Geometry helpers.
  std::vector<int> digits_of(int rank) const;
  int rank_of_digits(const std::vector<int>& digits) const;

  armci::Comm& comm_;
  CollConfig config_;
  Geometry geometry_;
  /// Empty in full-clique mode; else the surviving world ranks (shrunk
  /// mode) or group members (group mode) this engine schedules over.
  std::vector<int> members_;
  /// This rank's schedule position: comm_.rank() in full mode, the
  /// member-list index after a shrink or in a group (-1: non-member).
  int me_ = 0;
  /// World rank behind schedule position `v`.
  int wrank(int v) const {
    return members_.empty() ? v : members_[static_cast<std::size_t>(v)];
  }
  std::vector<RingDim> rings_;
  std::shared_ptr<HwShared> hw_;

  // Group mode (see GroupSpec).
  bool group_ = false;
  bool member_ = true;
  std::string label_;
  /// Per-ring digit tuple of each member / tuple -> member position,
  /// for the boxy-group ring schedules (full mode derives digits from
  /// the machine mapping instead).
  std::vector<std::vector<int>> member_digits_;
  std::map<std::vector<int>, int> digit_index_;
  /// Registered data area (slots) + each member's published base.
  std::byte* data_local_ = nullptr;
  std::size_t data_cap_ = 0;
  std::vector<std::byte*> peer_data_;
  /// Where OpTimer accounts this engine's ops: the world CollStats, or
  /// the per-group table keyed by label_.
  armci::CollStats* stats_ = nullptr;
  // Hierarchy children, built lazily at the first hier-selected
  // collective (a collective point, so construction lines up).
  std::unique_ptr<CollEngine> hier_node_;
  std::unique_ptr<CollEngine> hier_leaders_;

  armci::GlobalMem* scratch_ = nullptr;
  std::size_t layout_ = 0;  ///< slot_bytes the arena is currently keyed to
  std::size_t slot_bytes_ = 0;
  std::size_t n_slots_ = 0;
  /// Slot codec, retained-stage pool and trace track. Stages retire at
  /// each epoch's rendezvous and are never freed, so straggler
  /// re-fetches after a rebuild_shrunk still read live memory.
  SlotTransport slots_;
  std::uint64_t epoch_ = 0;       ///< flag value of the open invocation
  std::uint64_t barrier_seq_ = 0; ///< software-barrier flag value
  bool in_alloc_ = false;  ///< inside malloc/free_collective: the
                           ///< barrier hook must not re-enter the engine
  /// Registered (malloc_local) staging buffers so collective messages
  /// take the RDMA path: a reusable one for blocking sends (rput
  /// snapshots the source at injection) and a per-message area for
  /// the non-blocking all-to-all fan-out.
  std::byte* grow_local(std::byte*& buf, std::size_t& capacity, std::size_t need);
  std::byte* send_buf_ = nullptr;
  std::size_t send_cap_ = 0;
  std::byte* stage_all_ = nullptr;
  std::size_t stage_cap_ = 0;
};

}  // namespace pgasq::coll
