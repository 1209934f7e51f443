#include "coll/coll.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <string>

#include "fault/integrity.hpp"
#include "pami/machine.hpp"
#include "util/error.hpp"

namespace pgasq::coll {

namespace {

// First capacities of the blocking and the non-blocking arena; both
// double until a block fits.
constexpr std::size_t kArenaBytes = 4608;
constexpr std::size_t kNbcArenaBytes = 64 * 1024;

// Flag kinds: an op's is its Op value + 1; a group's address slots
// carry their own.
std::uint64_t kind(Op op) { return static_cast<std::uint64_t>(op) + 1; }
constexpr std::uint64_t kAddressKind = 7;

constexpr SlotNames kSlotNames{"collective slot", "coll hop", "coll hop recv",
                               "coll slot refetch"};
constexpr SlotNames kNbcSlotNames{"nbc slot", "nbc hop", "nbc hop recv",
                                  "nbc slot refetch"};

/// The geometry facts every engine mode shares, for p participants.
Geometry base_geometry(const pami::Machine& machine, int p) {
  Geometry g;
  g.p = p;
  g.pow2 = p > 0 && std::has_single_bit(static_cast<unsigned>(p));
  g.diameter = machine.torus().diameter();
  const fault::Injector* injector = machine.injector();
  g.link_faults = injector != nullptr && injector->has_link_faults();
  g.corruption = injector != nullptr && injector->plan().corrupt_prob > 0.0;
  return g;
}

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
      : e_(e), op_(static_cast<int>(op)), algo_(static_cast<int>(algo)),
        bytes_(bytes), t0_(e.comm_.now()) {
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

/// One open non-blocking collective: its block, its schedule's program
/// counter, and the promise its future hangs off.
struct CollEngine::IOp {
  IOp(Op k, const char* n, fut::Scheduler& sched, std::byte* d, std::size_t b, int r)
      : kind(k), name(n), promise(sched), data(d), bytes(b), root(r) {}

  Op kind;
  const char* name;
  Block block;
  fut::Promise<fut::Unit> promise;
  armci::Handle sends;  ///< aggregates every hop this op injected
  bool schedule_done = false;
  StepState state;
  std::byte* data;  ///< ibcast payload, iallreduce vector
  std::size_t bytes;
  int root;
};

/// The non-blocking side: the async runtime, whose progress passes
/// step every open op, the non-blocking arena (its memory comes with
/// its first block) and the open ops in initiation order.
struct CollEngine::Nbc {
  explicit Nbc(CollEngine& e)
      : rt(async::Runtime::of(e.comm_)),
        arena(e.comm_, e.members_, kNbcSlotNames, e.comm_.next_coll_engine_salt(),
              [&e] { return "coll-nbc/r" + std::to_string(e.comm_.rank()); }),
        poller(rt.register_poller([&e] { e.step_all(); })),
        open_series(e.comm_.world().machine().sinks().timeline->series(
            "async.nbc_open_ops", obs::Timeline::Kind::kGauge)) {}

  async::Runtime& rt;
  SlotArena arena;
  std::size_t poller;
  obs::Timeline::SeriesId open_series;
  std::deque<std::unique_ptr<IOp>> open;
  bool stepping = false;
  std::uint64_t completed = 0;
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
      slots_(comm, members_, kSlotNames, comm.next_coll_engine_salt(),
             [&comm] { return "coll/r" + std::to_string(comm.rank()); }) {
  pami::Machine& machine = comm.world().machine();
  const topo::Torus5D& torus = machine.torus();
  const topo::RankMapping& map = machine.mapping();
  const bool shrunk = !members_.empty();
  const int p = shrunk ? static_cast<int>(members_.size()) : comm.nprocs();
  if (!shrunk) PGASQ_CHECK(map.num_ranks() == p);

  geometry_ = base_geometry(machine, p);
  geometry_.shrunk = shrunk;
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
  // point, so the arena's allocation lines up. The barrier hook is
  // installed only afterwards — the allocation's internal barriers
  // must not dispatch into a half-built engine.
  grow(slots_, 0);
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
      slots_(comm, members_, kSlotNames, comm.next_coll_engine_salt(), [this, &comm] {
        return member_ ? "grp/" + label_ + "/r" + std::to_string(comm.rank()) : "";
      }) {
  pami::Machine& machine = comm.world().machine();
  const topo::Torus5D& torus = machine.torus();
  const topo::RankMapping& map = machine.mapping();
  const int me = comm.rank();
  const auto it = std::find(members_.begin(), members_.end(), me);
  me_ = member_ ? static_cast<int>(it - members_.begin()) : -1;

  geometry_ = base_geometry(machine, static_cast<int>(members_.size()));
  geometry_.group = true;

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

  // One uniform world-collective control block per engine: two
  // rendezvous halves of ceil(log2 control_slots) slots, then one
  // address slot per possible member. Every live world rank — even a
  // non-member — constructs its engine here, so the allocation
  // rendezvous lines up. The data area is attached at the first op.
  // No barrier hook, no hardware-model attach: those belong to the
  // world engine alone.
  const std::size_t control_slots =
      spec.control_slots == 0 ? members_.size() : spec.control_slots;
  PGASQ_CHECK(!member_ || control_slots >= members_.size());
  ctl_ = std::make_unique<SlotArena>(slots_);
  ctl_rounds_ = static_cast<std::uint32_t>(ceil_log2(static_cast<int>(control_slots)));
  ctl_->attach(comm_.malloc_collective(2 * ctl_rounds_ * ctl_->hdr() +
                                       control_slots * (ctl_->hdr() + 8)));
}

CollEngine::~CollEngine() {
  // Open i-ops at teardown stay counted as pending futures: the
  // runtime's finalize quiescence check turns them into a diagnostic
  // abort. Never throw from here.
  if (!nbc_) return;
  nbc_->rt.unregister_poller(nbc_->poller);
  nbc_->arena.release_stages();
}

std::size_t CollEngine::open_ops() const { return nbc_ ? nbc_->open.size() : 0; }
std::uint64_t CollEngine::ops_completed() const { return nbc_ ? nbc_->completed : 0; }
std::uint64_t CollEngine::hops_sent() const { return nbc_ ? nbc_->arena.hops() : 0; }
std::uint64_t CollEngine::nbc_wraps() const { return nbc_ ? nbc_->arena.wraps() : 0; }

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
// Arenas
// ---------------------------------------------------------------------------

Block CollEngine::open_block(SlotArena& a, Op op, const char* name,
                             std::size_t payload, std::size_t slots) {
  const std::size_t need = a.block_bytes(payload, slots);
  if (!a.fits(need)) wrap(a, need, need / slots);
  return a.open(kind(op), name, payload, slots);
}

BlockHops CollEngine::begin(Op op, std::size_t payload, std::size_t slots) {
  return BlockHops(slots_, open_block(slots_, op, op_name(op), payload, slots));
}

void CollEngine::wrap(SlotArena& a, std::size_t need, std::size_t pitch) {
  if (&a != &slots_ && a.capacity() > 0) {
    // Drive every open op home: each progress pass runs the poller,
    // and every rank reaches this same wrap before initiating the op
    // that overflowed the cursor.
    comm_.progress_until([this] { return nbc_->open.empty(); });
  }
  if (need > a.capacity()) {
    grow(a, need);
    return;
  }
  // Every rank consumed every message of the cycle before getting
  // here, so nothing lands in my part until the rendezvous lets the
  // next cycle start.
  a.wipe(pitch, need);
  rendezvous();
  a.rewind();  // no re-fetch can target a stage past the rendezvous
}

void CollEngine::grow(SlotArena& a, std::size_t need) {
  std::size_t cap = a.capacity() > 0 ? a.capacity()
                    : &a == &slots_    ? kArenaBytes
                                       : kNbcArenaBytes;
  while (cap < need) cap *= 2;
  if (!group_) {
    in_alloc_ = true;
    if (a.mem() != nullptr) {
      comm_.free_collective(*a.mem());
      if (&a == &slots_) ++comm_.coll_stats().scratch_reallocs;
    }
    a.attach(comm_.malloc_collective(cap));
    in_alloc_ = false;
    a.rewind();
    return;
  }
  if (a.capacity() > 0) rendezvous();
  a.rewind();
  auto* area = static_cast<std::byte*>(comm_.malloc_local(cap));
  // Publish my base to every member through the control block's
  // address slots, and collect theirs. The previous exchange was
  // consumed everywhere before the rendezvous above completed.
  const std::size_t hdr = ctl_->hdr();
  const auto p = static_cast<std::size_t>(geometry_.p);
  BlockHops hops(*ctl_, {((ctl_seq_ + std::uint64_t{1}) << 4) | kAddressKind,
                         2 * ctl_rounds_ * hdr, hdr + 8, p, "group address exchange"});
  for (int j = 0; j < geometry_.p; ++j) {
    if (j != me_) hops.send(j, static_cast<std::size_t>(me_), &area, sizeof area);
  }
  std::vector<std::byte*> peers(p, area);
  for (std::size_t j = 0; j < p; ++j) {
    if (j != static_cast<std::size_t>(me_)) std::memcpy(&peers[j], hops.recv(j, 8), 8);
  }
  a.attach(area, cap, std::move(peers));
}

void CollEngine::rendezvous() {
  if (!group_) {
    comm_.barrier_hw();  // fences first
    return;
  }
  if (geometry_.p <= 1) return;
  comm_.fence_all();
  ++ctl_seq_;
  const std::size_t hdr = ctl_->hdr();
  BlockHops hops(*ctl_, {(std::uint64_t{ctl_seq_} << 4) | kind(Op::kBarrier),
                         (ctl_seq_ % 2) * ctl_rounds_ * hdr, hdr, ctl_rounds_,
                         "group rendezvous"});
  StepState s;
  barrier_dissemination_step(hops, s, geometry_.p, me_);
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
  const int p = geometry_.p;
  if (p == 1) return;
  if (algo == Algo::kHw) {
    PGASQ_CHECK(!group_, << "hw barrier on a process group");
    comm_.barrier_hw();  // the global-interrupt network (fences first)
    return;
  }
  if (algo == Algo::kHier) {
    hier_barrier();
    return;
  }
  PGASQ_CHECK(algo == Algo::kRecdbl || algo == Algo::kBinomial ||
                  algo == Algo::kTorusRing,
              << "bad barrier algorithm");
  const bool tree = algo == Algo::kBinomial;
  const bool ring = algo == Algo::kTorusRing;
  const auto rounds = static_cast<std::size_t>(ceil_log2(p));
  comm_.fence_all();
  BlockHops hops = begin(Op::kBarrier, 0, ring ? 2 : tree ? rounds + 1 : rounds);
  StepState s;
  (ring   ? barrier_ring_step
   : tree ? barrier_tree_step
          : barrier_dissemination_step)(hops, s, p, me_);
}

// ---------------------------------------------------------------------------
// Non-blocking collectives
// ---------------------------------------------------------------------------

fut::Future<fut::Unit> CollEngine::ibarrier() {
  return start(Op::kBarrier, "ibarrier", nullptr, 0, 0,
               static_cast<std::size_t>(ceil_log2(geometry_.p)));
}

fut::Future<fut::Unit> CollEngine::ibcast(void* data, std::size_t bytes,
                                          armci::RankId root) {
  PGASQ_CHECK(data != nullptr && bytes > 0 && root >= 0 && root < geometry_.p);
  return start(Op::kBroadcast, "ibcast", static_cast<std::byte*>(data), bytes,
               static_cast<int>(root), 1);
}

fut::Future<fut::Unit> CollEngine::iallreduce_sum(double* x, std::size_t n) {
  PGASQ_CHECK(x != nullptr && n > 0);
  return start(Op::kAllreduce, "iallreduce", reinterpret_cast<std::byte*>(x),
               n * 8, 0, allreduce_recdbl_slots(geometry_.p));
}

fut::Future<fut::Unit> CollEngine::start(Op kind, const char* name,
                                         std::byte* data, std::size_t bytes,
                                         int root, std::size_t slots) {
  PGASQ_CHECK(!group_, << name << " on a process group: non-blocking "
                       "collectives run on the world engine");
  if (!nbc_) nbc_ = std::make_unique<Nbc>(*this);
  Nbc& n = *nbc_;
  if (geometry_.p == 1) return fut::make_ready(n.rt, fut::Unit{});
  auto op = std::make_unique<IOp>(kind, name, n.rt, data, bytes, root);
  op->block = open_block(n.arena, kind, name, bytes, slots);
  // An open op counts as a pending future: an abandoned one (rank
  // divergence, a dropped future) is caught by the runtime's finalize
  // quiescence check instead of hanging silently. It is also a poll
  // source — its arrival flags are one-sided writes, so blocking waits
  // must poll rather than park while it is open.
  n.rt.note_pending(+1);
  n.rt.note_poll_source(+1);
  if (sim::TraceRecorder* trace = n.arena.trace()) {
    trace->instant(n.arena.track(), std::string(name) + " start", comm_.now());
  }
  fut::Future<fut::Unit> f = op->promise.future();
  n.open.push_back(std::move(op));
  sample_gauge();
  // Step immediately: the first rounds' send hops go out at
  // initiation, not at the next progress pass.
  step_all();
  return f;
}

void CollEngine::step_all() {
  Nbc& n = *nbc_;
  if (n.stepping) return;
  n.stepping = true;
  for (std::size_t i = 0; i < n.open.size();) {
    if (!step(*n.open[i])) {
      ++i;
      continue;
    }
    const std::unique_ptr<IOp> done = std::move(n.open[i]);
    n.open.erase(n.open.begin() + static_cast<std::ptrdiff_t>(i));
    ++n.completed;
    n.rt.note_pending(-1);
    n.rt.note_poll_source(-1);
    if (sim::TraceRecorder* trace = n.arena.trace()) {
      trace->instant(n.arena.track(), std::string(done->name) + " done", comm_.now());
    }
    sample_gauge();
    // Continuations do NOT run inline here: fulfill enqueues them on
    // the runtime's FIFO queue, drained after the poller pass, so
    // chained work observes a deterministic order.
    done->promise.fulfill(fut::Unit{});
  }
  n.stepping = false;
}

bool CollEngine::step(IOp& op) {
  if (!op.schedule_done) {
    BlockHops hops(nbc_->arena, op.block, &op.sends);
    const int p = geometry_.p;
    switch (op.kind) {
      case Op::kBarrier:
        op.schedule_done = barrier_dissemination_step(hops, op.state, p, me_);
        break;
      case Op::kBroadcast:
        op.schedule_done =
            bcast_binomial_step(hops, p, me_, op.root, 0, op.data, op.bytes);
        break;
      default:
        op.schedule_done = allreduce_recdbl_step(
            hops, op.state, p, me_, reinterpret_cast<double*>(op.data), op.bytes / 8);
        break;
    }
  }
  // Completion: the schedule consumed every receive AND every injected
  // hop drained locally. (Stages stay retained for re-fetch until the
  // next wrap regardless; the drain condition rate-limits initiation.)
  return op.schedule_done && (!op.sends.used() || op.sends.done());
}

void CollEngine::sample_gauge() {
  comm_.world().machine().sinks().timeline->sample(
      nbc_->open_series, comm_.now(), static_cast<double>(nbc_->open.size()));
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
                   armci::Comm::kPollSlice);
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
  reduce(Op::kReduce, x, n, static_cast<int>(root));
}

void CollEngine::allreduce_sum(double* x, std::size_t n) {
  reduce(Op::kAllreduce, x, n, 0);
}

void CollEngine::reduce(Op op, double* x, std::size_t n, int root) {
  require_member();
  PGASQ_CHECK(x != nullptr && n > 0 && root >= 0 && root < geometry_.p);
  if (geometry_.p == 1) return;
  const bool all = op == Op::kAllreduce;
  const Algo algo = config_.choose(op, n * 8, geometry_);
  OpTimer timer(*this, op, algo, n * 8);
  switch (algo) {
    case Algo::kBinomial:
      reduce_binomial(x, n, root);
      if (all) bcast_binomial(reinterpret_cast<std::byte*>(x), n * 8, 0);
      break;
    case Algo::kRecdbl:
      allreduce_recdbl(x, n);
      break;
    case Algo::kRab:
      allreduce_rab(x, n);
      break;
    case Algo::kTorusRing:
      allreduce_ring(x, n);  // every rank ends with the result; fine
      break;
    case Algo::kHw:
      hw_reduce_sum(x, n, root, all);
      break;
    case Algo::kHier:
      hier_reduce_sum(x, n, root, all);
      break;
    default:
      PGASQ_CHECK(false, << "bad " << op_name(op) << " algorithm");
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
  PGASQ_CHECK(algo == Algo::kRecdbl || algo == Algo::kTorusRing,
              << "bad alltoall algorithm");
  OpTimer timer(*this, Op::kAlltoall, algo, bytes);
  alltoall_exchange(i, bytes, o, alltoall_order(algo));
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
