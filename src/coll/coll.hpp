// CollEngine — topology-aware collective operations for the ARMCI
// runtime, blocking and non-blocking.
//
// One engine attaches lazily to each rank's Comm (in the Comm's opaque
// coll slot) the first time a collective is invoked; creation is itself
// collective, so the attach happens at the same program point on every
// rank. The engine owns
//
//   * two slot arenas (slot.hpp), one fresh block of slots per op and
//     a rendezvous only when an arena wraps: the blocking one, built
//     with the engine, and the non-blocking one, built at the first
//     i-op, so a blocking op never forces open i-ops home. Reusing
//     registered arenas is itself a measurable win on BG/Q, where
//     every registration costs a ~43 us memregion_create (Table I);
//   * software schedules on the torus — dissemination/tree/ring
//     barriers, binomial trees, recursive doubling with the
//     non-power-of-two fold, Rabenseifner, and per-torus-dimension
//     ring (bucket) pipelines — over the hop interface of
//     schedule.hpp, whose step functions ibarrier / ibcast /
//     iallreduce advance from the async runtime's progress passes;
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

#include "async/async.hpp"
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
  /// members only. Its arena is a per-member registered area whose
  /// bases are exchanged through a world-collective control block,
  /// which also carries the wrap's rendezvous. The hardware collective
  /// logic is unselectable; torus rings survive when the member set
  /// decomposes into an axis-aligned box of (coordinate, slot) tuples.
  CollEngine(armci::Comm& comm, const GroupSpec& spec);
  ~CollEngine();
  CollEngine(const CollEngine&) = delete;
  CollEngine& operator=(const CollEngine&) = delete;

  /// Replaces `comm`'s attached engine with a fresh one over the
  /// surviving `members` (fail-stop communicator shrink). The old
  /// engine's arena is dropped freed-but-kept, so in-flight slot
  /// writes from before the shrink land in dead memory harmlessly.
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

  // --- Non-blocking collectives (collective initiation order!) -------------
  //
  // World (or shrunk) engine only. Each future is fulfilled when this
  // rank's part completes (receives consumed, sends locally drained);
  // keep the buffer alive and untouched until then. Ops advance from
  // every progress pass. The first i-op creates the async runtime and
  // the non-blocking arena.

  fut::Future<fut::Unit> ibarrier();
  /// Binomial-tree broadcast of root's buffer.
  fut::Future<fut::Unit> ibcast(void* data, std::size_t bytes, armci::RankId root);
  /// In-place elementwise sum, bitwise equal on every rank to the
  /// blocking recursive-doubling allreduce.
  fut::Future<fut::Unit> iallreduce_sum(double* x, std::size_t n);

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
  /// Non-blocking collectives open / completed, and the hops they sent.
  std::size_t open_ops() const;
  std::uint64_t ops_completed() const;
  std::uint64_t hops_sent() const;
  /// Wraps of the blocking and of the non-blocking arena so far.
  std::uint64_t blocking_wraps() const { return slots_.wraps(); }
  std::uint64_t nbc_wraps() const;

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
  struct IOp;
  struct Nbc;

  // Arenas (coll.cpp).
  /// Opens the next block of `slots` slots of `payload` bytes in `a`,
  /// wrapping it first when the block does not fit.
  Block open_block(SlotArena& a, Op op, const char* name, std::size_t payload,
                   std::size_t slots);
  /// Opens a block in the blocking arena and returns its hops.
  BlockHops begin(Op op, std::size_t payload, std::size_t slots);
  /// The wrap: drive open i-ops home (non-blocking arena), wipe, one
  /// fenced rendezvous, rewind — or grow when `need` exceeds capacity.
  void wrap(SlotArena& a, std::size_t need, std::size_t pitch);
  /// The growing wrap: a fresh zero-filled area of >= `need` bytes.
  /// World arenas re-allocate collectively (the free/malloc barriers
  /// are the rendezvous); a group rendezvouses, allocates locally and
  /// exchanges bases over the control block.
  void grow(SlotArena& a, std::size_t need);
  /// The wrap's rendezvous: the hardware barrier, or in group mode a
  /// fenced dissemination over the control block, whose two halves
  /// alternate so a fast member's next rendezvous cannot overwrite a
  /// signal a slow one has not consumed.
  void rendezvous();
  /// Aborts unless this engine is a member of its group.
  void require_member() const;

  // Non-blocking collectives (coll.cpp).
  fut::Future<fut::Unit> start(Op kind, const char* name, std::byte* data,
                               std::size_t bytes, int root, std::size_t slots);
  /// Steps every open op in initiation order; completed ops fulfill
  /// their futures. Re-entrancy-guarded (a checksum re-fetch blocks
  /// briefly, and its progress re-enters here).
  void step_all();
  /// Advances one op; true when complete.
  bool step(IOp& op);
  void sample_gauge();

  // Dispatch (coll.cpp).
  void run_barrier(Algo algo);
  /// reduce_sum (result at `root`) or allreduce_sum (`op` says which).
  void reduce(Op op, double* x, std::size_t n, int root);

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
  /// Targets in send (and receive) order: XOR-pairwise (kRecdbl) or
  /// torus-hop nearest-first (kTorusRing).
  std::vector<int> alltoall_order(Algo algo) const;
  /// Personalized exchange in `order`; slot = source position.
  void alltoall_exchange(const std::byte* in, std::size_t bytes, std::byte* out,
                         const std::vector<int>& order);

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
  /// Where OpTimer accounts this engine's ops: the world CollStats, or
  /// the per-group table keyed by label_.
  armci::CollStats* stats_ = nullptr;
  // Hierarchy children, built lazily at the first hier-selected
  // collective (a collective point, so construction lines up).
  std::unique_ptr<CollEngine> hier_node_;
  std::unique_ptr<CollEngine> hier_leaders_;

  /// The blocking arena, its slot codec and stage pool, and the
  /// engine's trace track. The engine never releases the pool, so
  /// straggler re-fetches after a rebuild_shrunk still read live memory.
  SlotArena slots_;
  /// Group mode: the world-collective control block (two rendezvous
  /// halves, then the member address slots), staging in slots_'s pool,
  /// and its sequence number.
  std::unique_ptr<SlotArena> ctl_;
  std::uint32_t ctl_rounds_ = 0;
  std::uint32_t ctl_seq_ = 0;
  bool in_alloc_ = false;  ///< inside malloc/free_collective: the
                           ///< barrier hook must not re-enter the engine

  /// The non-blocking side, built at the first i-op. (The engine's
  /// size sets where later heap blocks land, and address-keyed
  /// registration makes virtual time depend on that: DESIGN.md §5.)
  std::unique_ptr<Nbc> nbc_;
};

}  // namespace pgasq::coll
