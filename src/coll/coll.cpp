#include "coll/coll.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "fault/integrity.hpp"
#include "util/error.hpp"

namespace pgasq::coll {

namespace {

// Scratch arena layout: a fixed barrier-word region at the base (its
// words live at stable addresses forever, so software-barrier flags
// stay monotone across data-op epochs), data slots after it. A group
// engine's world-collective arena is control-only: barrier words plus
// a member address table (word kBarrierWords + i holds member i's
// current data-area base); its data slots live in per-member
// registered local areas instead.
constexpr std::size_t kBarrierWords = 64;
constexpr std::size_t kBarrierBytes = kBarrierWords * 8;
constexpr std::size_t kInitialDataBytes = 4096;
constexpr int kAddrWord0 = static_cast<int>(kBarrierWords);

// Barrier-word assignments (disjoint per schedule, so mixing schedules
// across invocations is safe).
constexpr int kDissemWord0 = 0;    // dissemination round r -> word r
constexpr int kTreeUpWord0 = 20;   // child joining via bit k -> word 20+k
constexpr int kTreeDownWord = 40;  // release signal (one per rank)
constexpr int kRingTokenWord = 48;
constexpr int kRingReleaseWord = 49;

// Virtual compute time between two polls of a flag or word.
constexpr Time kPollSlice = from_ns(200);

constexpr SlotNames kSlotNames{"collective slot", "coll hop", "coll hop recv",
                               "coll slot refetch"};

}  // namespace

/// Cross-rank state of the hardware collective-logic model, owned by
/// World::coll_shared(). One invocation is in flight at a time (engine
/// ops are strictly ordered); `generation` counts completed ones.
struct HwShared {
  explicit HwShared(int p) : contrib(static_cast<std::size_t>(p)) {}
  std::uint64_t generation = 0;
  int arrived = 0;
  std::vector<std::vector<std::byte>> contrib;  // per source rank
  std::vector<std::byte> result;
};

// ---------------------------------------------------------------------------
// Per-(op, algorithm) accounting
// ---------------------------------------------------------------------------

class CollEngine::OpTimer {
 public:
  OpTimer(CollEngine& e, Op op, Algo algo, std::uint64_t bytes)
      : e_(e),
        op_(static_cast<int>(op)),
        algo_(static_cast<int>(algo)),
        bytes_(bytes),
        t0_(e.comm_.now()) {
    if (sim::TraceRecorder* trace = e_.slots_.trace()) {
      trace->instant(e_.slots_.track(),
                     std::string(op_name(op)) + "/" + algo_name(algo), t0_);
      trace->begin_slice(e_.slots_.track(), t0_);
    }
  }

  ~OpTimer() {
    const Time t1 = e_.comm_.now();
    armci::CollStats& s = *e_.stats_;
    ++s.count[op_][algo_];
    s.bytes[op_][algo_] += bytes_;
    s.time[op_][algo_] += t1 - t0_;
    if (sim::TraceRecorder* t = e_.slots_.trace()) t->end_slice(e_.slots_.track(), t1);
  }

  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  CollEngine& e_;
  int op_, algo_;
  std::uint64_t bytes_;
  Time t0_;
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

CollEngine& CollEngine::of(armci::Comm& comm) {
  std::shared_ptr<void>& slot = comm.coll_slot();
  if (!slot) slot = std::make_shared<CollEngine>(comm);
  return *static_cast<CollEngine*>(slot.get());
}

CollEngine::CollEngine(armci::Comm& comm) : CollEngine(comm, std::vector<int>{}) {}

CollEngine::CollEngine(armci::Comm& comm, std::vector<int> members)
    : comm_(comm),
      config_(CollConfig::from_options(comm.options())),
      members_(std::move(members)),
      stats_(&comm.coll_stats()),
      slots_(comm, kSlotNames, comm.next_coll_engine_salt(),
             [&comm] { return "coll/r" + std::to_string(comm.rank()); }) {
  pami::Machine& machine = comm.world().machine();
  const topo::Torus5D& torus = machine.torus();
  const topo::RankMapping& map = machine.mapping();
  const bool shrunk = !members_.empty();
  const int p = shrunk ? static_cast<int>(members_.size()) : comm.nprocs();
  if (!shrunk) PGASQ_CHECK(map.num_ranks() == p);

  geometry_.p = p;
  geometry_.pow2 = std::has_single_bit(static_cast<unsigned>(p));
  geometry_.diameter = torus.diameter();
  geometry_.shrunk = shrunk;
  const fault::Injector* injector = machine.injector();
  geometry_.link_faults = injector != nullptr && injector->has_link_faults();
  geometry_.corruption = injector != nullptr && injector->plan().corrupt_prob > 0.0;
  if (!shrunk) {
    geometry_.ppn = map.ranks_per_node();
    geometry_.nodes = torus.num_nodes();
    geometry_.hier = geometry_.ppn > 1 && geometry_.nodes > 1;
  }

  const int me = comm.rank();
  me_ = me;
  if (shrunk) {
    // A survivor clique has no clean torus decomposition: schedules
    // address members by list position and the ring / hardware
    // algorithms stay unselectable (torus_dims == 0).
    const auto it = std::find(members_.begin(), members_.end(), me);
    PGASQ_CHECK(it != members_.end(),
                << "rank " << me << " is not a member of the shrunk clique");
    me_ = static_cast<int>(it - members_.begin());
  } else {
    const int node = map.node_of_rank(me);
    const int slot = map.slot_of_rank(me);
    const topo::Coord5 coord = torus.coord_of(node);
    for (int d = 0; d < topo::kDims; ++d) {
      const int m = torus.dims()[d];
      if (m <= 1) continue;
      topo::Coord5 up = coord, down = coord;
      up[d] = (coord[d] + 1) % m;
      down[d] = (coord[d] - 1 + m) % m;
      rings_.push_back({d, m, coord[d], map.rank_of(torus.node_of(up), slot),
                        map.rank_of(torus.node_of(down), slot)});
    }
    if (map.ranks_per_node() > 1) {
      const int m = map.ranks_per_node();
      rings_.push_back({-1, m, slot, map.rank_of(node, (slot + 1) % m),
                        map.rank_of(node, (slot - 1 + m) % m)});
    }
  }
  geometry_.torus_dims = static_cast<int>(rings_.size());

  std::shared_ptr<void>& shared = comm.world().coll_shared();
  if (!shared) shared = std::make_shared<HwShared>(p);
  hw_ = std::static_pointer_cast<HwShared>(shared);

  // Collective: every rank constructs its engine at the same program
  // point, so the arena rendezvous lines up. The barrier hook is
  // installed only afterwards — the allocation's internal barriers
  // must not dispatch into a half-built engine.
  ensure_scratch(kInitialDataBytes);
  comm.set_barrier_hook([this] {
    if (in_alloc_) {
      comm_.barrier_hw();
      return;
    }
    barrier();
  });
}

CollEngine::CollEngine(armci::Comm& comm, const GroupSpec& spec)
    : comm_(comm),
      config_(CollConfig::from_options(comm.options())),
      members_(spec.members),
      group_(true),
      member_(std::find(members_.begin(), members_.end(), comm.rank()) != members_.end()),
      label_(spec.label),
      slots_(comm, kSlotNames, comm.next_coll_engine_salt(), [this, &comm] {
        return member_ ? "grp/" + label_ + "/r" + std::to_string(comm.rank()) : "";
      }) {
  pami::Machine& machine = comm.world().machine();
  const topo::Torus5D& torus = machine.torus();
  const topo::RankMapping& map = machine.mapping();
  const int me = comm.rank();
  const auto it = std::find(members_.begin(), members_.end(), me);
  me_ = member_ ? static_cast<int>(it - members_.begin()) : -1;

  geometry_.p = static_cast<int>(members_.size());
  geometry_.pow2 = !members_.empty() &&
                   std::has_single_bit(static_cast<unsigned>(members_.size()));
  geometry_.diameter = torus.diameter();
  geometry_.group = true;
  const fault::Injector* injector = machine.injector();
  geometry_.link_faults = injector != nullptr && injector->has_link_faults();
  geometry_.corruption = injector != nullptr && injector->plan().corrupt_prob > 0.0;

  // Ring schedules survive grouping when the member set is an
  // axis-aligned box in (A..E coordinate, slot) space — the canonical
  // node group (one node's slots: a T-extent box) and leaders group
  // (slot 0 everywhere: the full torus at one slot) both are. Digits
  // are indices into the per-axis sorted value lists; neighbours are
  // looked up by digit tuple.
  if (member_ && members_.size() > 1) {
    const std::size_t n = members_.size();
    std::vector<std::array<int, topo::kDims + 1>> tuples(n);
    for (std::size_t i = 0; i < n; ++i) {
      const topo::Coord5 c = torus.coord_of(map.node_of_rank(members_[i]));
      for (int d = 0; d < topo::kDims; ++d) tuples[i][d] = c[d];
      tuples[i][topo::kDims] = map.slot_of_rank(members_[i]);
    }
    std::array<std::vector<int>, topo::kDims + 1> values;
    for (int a = 0; a <= topo::kDims; ++a) {
      std::vector<int>& v = values[a];
      v.reserve(n);
      for (const auto& t : tuples) v.push_back(t[a]);
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    std::size_t box = 1;
    for (const auto& v : values) box *= v.size();
    if (box == n) {  // distinct tuples + matching volume = full box
      std::vector<int> axes;
      for (int a = 0; a <= topo::kDims; ++a) {
        if (values[a].size() > 1) axes.push_back(a);
      }
      member_digits_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<int>& dg = member_digits_[i];
        dg.resize(axes.size());
        for (std::size_t k = 0; k < axes.size(); ++k) {
          const std::vector<int>& v = values[static_cast<std::size_t>(axes[k])];
          dg[k] = static_cast<int>(
              std::lower_bound(v.begin(), v.end(),
                               tuples[i][static_cast<std::size_t>(axes[k])]) -
              v.begin());
        }
        digit_index_[dg] = static_cast<int>(i);
      }
      const std::vector<int>& mine = member_digits_[static_cast<std::size_t>(me_)];
      for (std::size_t k = 0; k < axes.size(); ++k) {
        const int a = axes[k];
        const int m = static_cast<int>(values[static_cast<std::size_t>(a)].size());
        std::vector<int> up = mine, down = mine;
        up[k] = (up[k] + 1) % m;
        down[k] = (down[k] - 1 + m) % m;
        rings_.push_back({a < topo::kDims ? a : -1, m, mine[k],
                          digit_index_.at(up), digit_index_.at(down)});
      }
    }
  }
  geometry_.torus_dims = static_cast<int>(rings_.size());

  if (member_) {
    stats_ = &comm.group_coll_stats(label_);
  } else {
    stats_ = &comm.coll_stats();  // never written: ops reject non-members
  }

  // One uniform world-collective control arena per engine: barrier
  // words plus the member address table. Every live world rank — even
  // a non-member — constructs its engine here, so the allocation
  // rendezvous lines up. Data slots are attached lazily (group_grow)
  // at the first data-moving op. No barrier hook, no hardware-model
  // attach: those belong to the world engine alone.
  const std::size_t control_slots =
      spec.control_slots == 0 ? members_.size() : spec.control_slots;
  PGASQ_CHECK(!member_ || control_slots >= members_.size());
  peer_data_.assign(members_.size(), nullptr);
  scratch_ = &comm_.malloc_collective(kBarrierBytes + control_slots * 8);
}

CollEngine::~CollEngine() = default;

void CollEngine::rebuild_shrunk(armci::Comm& comm, std::vector<int> members) {
  // Detach first: the replacement engine's collective allocation
  // barriers must not dispatch into the old (pre-shrink) engine, and
  // the old engine must not deregister shared state after the new one
  // registered. The old arena stays freed-but-kept, so straggler slot
  // writes from the dead epoch land in dead memory.
  comm.set_barrier_hook(nullptr);
  comm.coll_slot().reset();
  const std::vector<int> survivors = members;
  comm.coll_slot() = std::make_shared<CollEngine>(comm, std::move(members));
  // Process groups are built on top of the engine: let the registry
  // (src/grp) mark every group stale and rebuild the derived node /
  // leaders groups over the survivor clique. This point is collective
  // over survivors (recovery re-aligned the allocation sequence just
  // before the rebuild), which group reconstruction requires.
  if (comm.shrink_hook()) comm.shrink_hook()(survivors);
}

// ---------------------------------------------------------------------------
// Scratch arena & slot transport
// ---------------------------------------------------------------------------

bool CollEngine::ensure_scratch(std::size_t data_bytes) {
  PGASQ_CHECK(!group_);  // group data slots live in group_grow areas
  const std::size_t needed = kBarrierBytes + data_bytes;
  if (scratch_ != nullptr && scratch_->bytes_per_rank() >= needed) return false;
  in_alloc_ = true;
  std::size_t capacity = kBarrierBytes + kInitialDataBytes;
  if (scratch_ != nullptr) {
    capacity = scratch_->bytes_per_rank();
    // free/malloc rendezvous below drain every in-flight slot write
    // before the old arena goes away (their barriers fence first).
    comm_.free_collective(*scratch_);
    ++comm_.coll_stats().scratch_reallocs;
  }
  while (capacity < needed) capacity *= 2;
  scratch_ = &comm_.malloc_collective(capacity);
  in_alloc_ = false;
  // The fresh arena is zero-filled: software-barrier flags restart
  // from zero (every rank reallocates at this same collective point),
  // and any slot layout finds clean flag words.
  barrier_seq_ = 0;
  layout_ = 0;
  return true;
}

void CollEngine::begin_data_op(std::size_t slot_payload, std::size_t n_slots) {
  PGASQ_CHECK(n_slots > 0);
  slot_bytes_ = slots_.hdr() + ((slot_payload + 7) & ~std::size_t{7});
  n_slots_ = n_slots;
  if (group_) {
    // Group epochs rendezvous over the control arena, never the
    // world-wide hardware barrier (non-members are elsewhere).
    ++epoch_;
    group_rendezvous();  // all previous-epoch traffic delivered
    slots_.retire_stages();       // ... so no re-fetch can still target a stage
    const std::size_t need = slot_bytes_ * n_slots;
    if (data_cap_ < need) {
      group_grow(need);  // fresh zero-filled area; publish + rendezvous
      layout_ = slot_bytes_;
    } else if (layout_ != slot_bytes_) {
      // Flag words move when the slot pitch changes; wipe between two
      // rendezvous so no new-epoch write races the memset.
      std::memset(data_local_, 0, data_cap_);
      group_rendezvous();
      layout_ = slot_bytes_;
    }
    return;
  }
  const bool grew = ensure_scratch(slot_bytes_ * n_slots);
  ++epoch_;
  if (grew) {
    slots_.retire_stages();  // the reallocation's rendezvous quiesced everything
    layout_ = slot_bytes_;
    return;  // the reallocation's own rendezvous isolated this epoch
  }
  if (layout_ != slot_bytes_) {
    // Flag words move when the slot pitch changes; stale payload bytes
    // from the old layout could alias the new flag positions. Quiesce,
    // wipe, and only then let anyone inject the new epoch.
    comm_.barrier_hw();
    slots_.retire_stages();
    std::memset(scratch_->local(comm_.rank()) + kBarrierBytes, 0,
                scratch_->bytes_per_rank() - kBarrierBytes);
    comm_.barrier_hw();
    layout_ = slot_bytes_;
  } else {
    // Same layout: flags are epoch-monotone, but invocation N+1 slot
    // writes must not land while a skewed rank still polls epoch N
    // (retransmit backoff can delay its message arbitrarily). The
    // rendezvous guarantees all epoch-N traffic delivered first.
    comm_.barrier_hw();
    slots_.retire_stages();
  }
}

void CollEngine::group_rendezvous() {
  if (geometry_.p <= 1) return;
  comm_.fence_all();
  ++barrier_seq_;
  barrier_dissemination();
}

void CollEngine::group_grow(std::size_t need) {
  std::size_t cap = data_cap_ == 0 ? kInitialDataBytes : data_cap_;
  while (cap < need) cap *= 2;
  // The old area is abandoned in place (Comm keeps the registered
  // allocation until finalize): straggler writes from the epoch just
  // quiesced and stale remote region-cache entries both stay harmless,
  // and the fresh area arrives zero-filled.
  data_local_ = static_cast<std::byte*>(comm_.malloc_local(cap));
  data_cap_ = cap;
  const auto base = reinterpret_cast<std::uint64_t>(data_local_);
  for (int j = 0; j < geometry_.p; ++j) {
    if (j == me_) continue;
    put_word(j, kAddrWord0 + me_, base);
  }
  peer_data_[static_cast<std::size_t>(me_)] = data_local_;
  // Delivery + arrival of every member's address word, then read the
  // table (plain loads: the values are not monotone, so wait_word does
  // not apply — the rendezvous is the synchronization).
  group_rendezvous();
  const std::byte* table = scratch_->local(comm_.rank());
  for (int j = 0; j < geometry_.p; ++j) {
    if (j == me_) continue;
    std::uint64_t v = 0;
    std::memcpy(&v, table + static_cast<std::size_t>(kAddrWord0 + j) * 8, 8);
    peer_data_[static_cast<std::size_t>(j)] = reinterpret_cast<std::byte*>(v);
  }
}

armci::RemotePtr CollEngine::slot_remote(int to, std::size_t slot) {
  if (group_) {
    return {wrank(to), peer_data_[static_cast<std::size_t>(to)] + slot * slot_bytes_};
  }
  return scratch_->at(wrank(to), kBarrierBytes + slot * slot_bytes_);
}

std::byte* CollEngine::slot_local(std::size_t slot) {
  if (group_) return data_local_ + slot * slot_bytes_;
  return scratch_->local(comm_.rank()) + kBarrierBytes + slot * slot_bytes_;
}

std::byte* CollEngine::grow_local(std::byte*& buf, std::size_t& capacity,
                                  std::size_t need) {
  if (capacity >= need) return buf;
  std::size_t grown = capacity == 0 ? 4096 : capacity * 2;
  while (grown < need) grown *= 2;
  if (buf != nullptr) comm_.free_local(buf);
  buf = static_cast<std::byte*>(comm_.malloc_local(grown));
  capacity = grown;
  return buf;
}

void CollEngine::send(int to, std::size_t slot, const void* data,
                      std::size_t bytes) {
  const std::size_t hdr = slots_.hdr();
  PGASQ_CHECK(slot < n_slots_ && bytes + hdr <= slot_bytes_);
  // Under slot checksums the stage is retained for the whole epoch so
  // the receiver can re-fetch a corrupted payload; otherwise the
  // reusable buffer suffices (the put snapshots it at injection).
  std::byte* stage = hdr == 8 ? grow_local(send_buf_, send_cap_, 8 + bytes)
                              : slots_.stage(bytes);
  slots_.seal(stage, epoch_, data, bytes);
  slots_.trace_send(wrank(to), epoch_, slot, bytes);
  // One put carries flag + payload: the simulator delivers it in a
  // single atomic copy, so a raised flag implies a complete payload.
  comm_.put(stage, slot_remote(to, slot), hdr + bytes);
}

void CollEngine::send_nb(int to, std::size_t slot, const void* data,
                         std::size_t bytes, std::byte* stage,
                         armci::Handle& handle) {
  PGASQ_CHECK(slot < n_slots_ && bytes + slots_.hdr() <= slot_bytes_);
  slots_.seal(stage, epoch_, data, bytes);
  slots_.trace_send(wrank(to), epoch_, slot, bytes);
  comm_.nb_put(stage, slot_remote(to, slot), slots_.hdr() + bytes, handle);
}

const std::byte* CollEngine::recv_wait(std::size_t slot, std::size_t bytes) {
  PGASQ_CHECK(slot < n_slots_ && bytes + slots_.hdr() <= slot_bytes_);
  std::byte* base = slot_local(slot);
  const volatile std::uint64_t* flag =
      reinterpret_cast<const volatile std::uint64_t*>(base);
  comm_.poll_until([flag, this] { return *flag >= epoch_; }, kPollSlice);
  PGASQ_CHECK(*flag == epoch_,
              << "collective slot " << slot << " flagged epoch " << *flag
              << ", expected " << epoch_);
  return slots_.open(base, epoch_, slot, bytes);
}

void CollEngine::put_word(int to, int word, std::uint64_t value) {
  std::byte* stage = grow_local(send_buf_, send_cap_, 8);
  std::memcpy(stage, &value, 8);
  comm_.put(stage, scratch_->at(wrank(to), static_cast<std::size_t>(word) * 8), 8);
}

void CollEngine::wait_word(int word, std::uint64_t at_least) {
  const volatile std::uint64_t* w = reinterpret_cast<const volatile std::uint64_t*>(
      scratch_->local(comm_.rank()) + static_cast<std::size_t>(word) * 8);
  comm_.poll_until([w, at_least] { return *w >= at_least; }, kPollSlice);
}

// ---------------------------------------------------------------------------
// Barrier schedules
// ---------------------------------------------------------------------------

void CollEngine::require_member() const {
  PGASQ_CHECK(!group_ || member_,
              << "rank " << comm_.rank() << " is not a member of group '"
              << label_ << "': collective call rejected");
}

void CollEngine::barrier() {
  require_member();
  const Algo algo = config_.choose(Op::kBarrier, 0, geometry_);
  OpTimer timer(*this, Op::kBarrier, algo, 0);
  run_barrier(algo);
}

void CollEngine::run_barrier(Algo algo) {
  if (geometry_.p == 1) return;
  if (algo == Algo::kHw) {
    PGASQ_CHECK(!group_, << "hw barrier on a process group");
    comm_.barrier_hw();  // the global-interrupt network (fences first)
    return;
  }
  if (algo == Algo::kHier) {
    hier_barrier();
    return;
  }
  comm_.fence_all();
  ++barrier_seq_;
  switch (algo) {
    case Algo::kRecdbl:
      barrier_dissemination();
      break;
    case Algo::kBinomial:
      barrier_tree();
      break;
    case Algo::kTorusRing:
      barrier_ring();
      break;
    default:
      PGASQ_CHECK(false, << "bad barrier algorithm");
  }
}

void CollEngine::barrier_dissemination() {
  const int p = geometry_.p, me = me_;
  for (int r = 0; (1 << r) < p; ++r) {
    PGASQ_CHECK(r < kTreeUpWord0 - kDissemWord0);
    put_word((me + (1 << r)) % p, kDissemWord0 + r, barrier_seq_);
    wait_word(kDissemWord0 + r, barrier_seq_);
  }
}

void CollEngine::barrier_tree() {
  const int p = geometry_.p, me = me_;
  // Gather up the binomial tree rooted at 0: absorb each child
  // (me + 2^k, arriving on its own word), then report to the parent.
  int mask = 1;
  while (mask < p) {
    if (me & mask) {
      put_word(me - mask, kTreeUpWord0 + std::countr_zero(static_cast<unsigned>(mask)),
               barrier_seq_);
      break;
    }
    if (me + mask < p) {
      wait_word(kTreeUpWord0 + std::countr_zero(static_cast<unsigned>(mask)),
                barrier_seq_);
    }
    mask <<= 1;
  }
  // Release back down the same tree.
  if (me != 0) wait_word(kTreeDownWord, barrier_seq_);
  const int limit = me == 0 ? p : (me & -me);
  for (int m = 1; m < limit; m <<= 1) {
    if (me + m < p) put_word(me + m, kTreeDownWord, barrier_seq_);
  }
}

void CollEngine::barrier_ring() {
  const int p = geometry_.p, me = me_;
  // A token circulates 0 -> 1 -> ... -> p-1 -> 0, then a release pass
  // chases it. O(p) latency: the ablation baseline.
  if (me == 0) {
    put_word(1, kRingTokenWord, barrier_seq_);
    wait_word(kRingTokenWord, barrier_seq_);
    put_word(1, kRingReleaseWord, barrier_seq_);
  } else {
    wait_word(kRingTokenWord, barrier_seq_);
    put_word((me + 1) % p, kRingTokenWord, barrier_seq_);
    wait_word(kRingReleaseWord, barrier_seq_);
    if (me != p - 1) put_word(me + 1, kRingReleaseWord, barrier_seq_);
  }
}

// ---------------------------------------------------------------------------
// Hardware collective-logic model
// ---------------------------------------------------------------------------

Time CollEngine::hw_latency(std::size_t bytes) const {
  // Arm/fire + an up-and-down sweep of the embedded spanning tree +
  // streaming the payload through the combine logic at ~2 GB/s.
  return from_ns(config_.hw_startup_us * 1000.0 +
                 2.0 * geometry_.diameter * config_.hw_hop_ns +
                 static_cast<double>(bytes) / config_.hw_gbps);
}

void CollEngine::hw_rendezvous(const void* contribution, std::size_t bytes,
                               std::size_t model_bytes,
                               const std::function<void(HwShared&)>& fold) {
  // The hardware combine logic spans the whole partition; a shrunk
  // clique must never be routed here (selection guarantees this).
  PGASQ_CHECK(!geometry_.shrunk, << "hw collective on a shrunk clique");
  HwShared& hw = *hw_;
  const std::uint64_t generation = hw.generation;
  auto& mine = hw.contrib[static_cast<std::size_t>(comm_.rank())];
  if (bytes > 0) {
    const auto* src = static_cast<const std::byte*>(contribution);
    mine.assign(src, src + bytes);
  } else {
    mine.clear();
  }
  if (++hw.arrived == geometry_.p) {
    hw.arrived = 0;
    fold(hw);  // rank-order deterministic, independent of arrival order
    std::shared_ptr<HwShared> shared = hw_;
    comm_.world().machine().engine().schedule_after(
        hw_latency(model_bytes), [shared] { ++shared->generation; });
  }
  comm_.poll_until([&hw, generation] { return hw.generation != generation; },
                   kPollSlice);
}

void CollEngine::hw_broadcast(std::byte* data, std::size_t bytes, int root) {
  const bool is_root = comm_.rank() == root;
  hw_rendezvous(is_root ? data : nullptr, is_root ? bytes : 0, bytes,
                [root](HwShared& hw) {
                  hw.result = hw.contrib[static_cast<std::size_t>(root)];
                });
  if (!is_root) std::memcpy(data, hw_->result.data(), bytes);
}

void CollEngine::hw_reduce_sum(double* x, std::size_t n, int root, bool all) {
  const int p = geometry_.p;
  hw_rendezvous(x, n * 8, n * 8, [n, p](HwShared& hw) {
    hw.result.assign(n * 8, std::byte{0});
    auto* out = reinterpret_cast<double*>(hw.result.data());
    for (int r = 0; r < p; ++r) {
      const auto* c = reinterpret_cast<const double*>(hw.contrib[r].data());
      for (std::size_t i = 0; i < n; ++i) out[i] += c[i];
    }
  });
  if (all || comm_.rank() == root) std::memcpy(x, hw_->result.data(), n * 8);
}

// ---------------------------------------------------------------------------
// Public collective operations
// ---------------------------------------------------------------------------

void CollEngine::broadcast(void* data, std::size_t bytes, armci::RankId root) {
  require_member();
  PGASQ_CHECK(data != nullptr && bytes > 0 && root >= 0 && root < geometry_.p);
  if (geometry_.p == 1) return;
  const Algo algo = config_.choose(Op::kBroadcast, bytes, geometry_);
  broadcast_with(algo, static_cast<std::byte*>(data), bytes, root,
                 config_.bcast_segment_bytes);
}

void CollEngine::broadcast_with(Algo algo, std::byte* d, std::size_t bytes,
                                int root, std::size_t seg) {
  OpTimer timer(*this, Op::kBroadcast, algo, bytes);
  switch (algo) {
    case Algo::kBinomial:
      bcast_binomial(d, bytes, root);
      break;
    case Algo::kTorusRing:
      bcast_ring(d, bytes, root, seg);
      break;
    case Algo::kHw:
      hw_broadcast(d, bytes, root);
      break;
    case Algo::kHier:
      hier_broadcast(d, bytes, root);
      break;
    default:
      PGASQ_CHECK(false, << "bad broadcast algorithm");
  }
}

void CollEngine::reduce_sum(double* x, std::size_t n, armci::RankId root) {
  require_member();
  PGASQ_CHECK(x != nullptr && n > 0 && root >= 0 && root < geometry_.p);
  if (geometry_.p == 1) return;
  const Algo algo = config_.choose(Op::kReduce, n * 8, geometry_);
  OpTimer timer(*this, Op::kReduce, algo, n * 8);
  switch (algo) {
    case Algo::kBinomial:
      reduce_binomial(x, n, root);
      break;
    case Algo::kTorusRing:
      allreduce_ring(x, n);  // every rank ends with the result; fine
      break;
    case Algo::kHw:
      hw_reduce_sum(x, n, root, /*all=*/false);
      break;
    case Algo::kHier:
      hier_reduce_sum(x, n, root, /*all=*/false);
      break;
    default:
      PGASQ_CHECK(false, << "bad reduce algorithm");
  }
}

void CollEngine::allreduce_sum(double* x, std::size_t n) {
  require_member();
  PGASQ_CHECK(x != nullptr && n > 0);
  if (geometry_.p == 1) return;
  const Algo algo = config_.choose(Op::kAllreduce, n * 8, geometry_);
  OpTimer timer(*this, Op::kAllreduce, algo, n * 8);
  switch (algo) {
    case Algo::kBinomial:
      reduce_binomial(x, n, 0);
      bcast_binomial(reinterpret_cast<std::byte*>(x), n * 8, 0);
      break;
    case Algo::kRecdbl:
      allreduce_recdbl(x, n);
      break;
    case Algo::kRab:
      allreduce_rab(x, n);
      break;
    case Algo::kTorusRing:
      allreduce_ring(x, n);
      break;
    case Algo::kHw:
      hw_reduce_sum(x, n, 0, /*all=*/true);
      break;
    case Algo::kHier:
      hier_reduce_sum(x, n, 0, /*all=*/true);
      break;
    default:
      PGASQ_CHECK(false, << "bad allreduce algorithm");
  }
}

void CollEngine::allgather(const void* in, std::size_t bytes, void* out) {
  require_member();
  PGASQ_CHECK(in != nullptr && out != nullptr && bytes > 0);
  auto* o = static_cast<std::byte*>(out);
  const auto* i = static_cast<const std::byte*>(in);
  if (geometry_.p == 1) {
    std::memcpy(o, i, bytes);
    return;
  }
  const Algo algo = config_.choose(Op::kAllgather, bytes, geometry_);
  OpTimer timer(*this, Op::kAllgather, algo, bytes);
  switch (algo) {
    case Algo::kBinomial:
      allgather_binomial(i, bytes, o);
      break;
    case Algo::kRecdbl:
      allgather_recdbl(i, bytes, o);
      break;
    case Algo::kTorusRing:
      allgather_ring(i, bytes, o);
      break;
    case Algo::kHier:
      hier_allgather(i, bytes, o);
      break;
    default:
      PGASQ_CHECK(false, << "bad allgather algorithm");
  }
}

void CollEngine::alltoall(const void* in, std::size_t bytes, void* out) {
  require_member();
  PGASQ_CHECK(in != nullptr && out != nullptr && bytes > 0);
  auto* o = static_cast<std::byte*>(out);
  const auto* i = static_cast<const std::byte*>(in);
  if (geometry_.p == 1) {
    std::memcpy(o, i, bytes);
    return;
  }
  const Algo algo = config_.choose(Op::kAlltoall, bytes, geometry_);
  OpTimer timer(*this, Op::kAlltoall, algo, bytes);
  switch (algo) {
    case Algo::kRecdbl:
      alltoall_pairwise_xor(i, bytes, o);
      break;
    case Algo::kTorusRing:
      alltoall_torus(i, bytes, o);
      break;
    default:
      PGASQ_CHECK(false, << "bad alltoall algorithm");
  }
}

// ---------------------------------------------------------------------------
// Geometry helpers
// ---------------------------------------------------------------------------

// Both helpers operate in schedule-position space: `v` is a world rank
// in full mode and a member index in group mode, matching what send()
// and the RingDim neighbour fields use.

std::vector<int> CollEngine::digits_of(int v) const {
  if (group_) return member_digits_[static_cast<std::size_t>(v)];
  const pami::Machine& machine = comm_.world().machine();
  const topo::RankMapping& map = machine.mapping();
  const topo::Coord5 c = machine.torus().coord_of(map.node_of_rank(v));
  std::vector<int> digits(rings_.size());
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    digits[i] =
        rings_[i].torus_dim >= 0 ? c[rings_[i].torus_dim] : map.slot_of_rank(v);
  }
  return digits;
}

int CollEngine::rank_of_digits(const std::vector<int>& digits) const {
  if (group_) return digit_index_.at(digits);
  const pami::Machine& machine = comm_.world().machine();
  topo::Coord5 c{};
  int slot = 0;
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    if (rings_[i].torus_dim >= 0) {
      c[rings_[i].torus_dim] = digits[i];
    } else {
      slot = digits[i];
    }
  }
  return machine.mapping().rank_of(machine.torus().node_of(c), slot);
}

}  // namespace pgasq::coll
