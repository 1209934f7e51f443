// NbcEngine — incremental non-blocking collective schedules stepped
// from the progress loop. See nbc.hpp for the transport design.
#include "coll/nbc.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "coll/schedule.hpp"
#include "pami/machine.hpp"
#include "util/error.hpp"

namespace pgasq::coll {

namespace {

constexpr std::size_t kInitialArenaBytes = 64 * 1024;
constexpr SlotNames kSlotNames{"nbc slot", "nbc hop", "nbc hop recv",
                               "nbc slot refetch"};

}  // namespace

/// One open non-blocking collective: its slot block, its schedule's
/// program counter, and the promise its future hangs off. Every
/// message of the op carries the flag value (seq << 4) | kind, so a
/// receiver can prove a landed message belongs to the op it is
/// stepping.
struct NbcEngine::Op {
  enum Kind : int { kBarrier = 1, kBcast = 2, kAllreduce = 3 };

  Op(int k, fut::Scheduler& sched) : kind(k), promise(sched) {}

  int kind;
  std::uint64_t seq = 0;
  std::size_t base = 0;     ///< arena byte offset of slot 0
  std::size_t pitch = 0;    ///< slot stride (hdr + pad8(payload))
  std::size_t payload = 0;  ///< max payload bytes per slot
  fut::Promise<fut::Unit> promise;
  armci::Handle sends;  ///< aggregates every hop this op injected
  bool schedule_done = false;

  // ibarrier.
  int round = 0;      ///< current dissemination round
  bool sent = false;  ///< current round's send already issued
  int rounds = 0;

  // ibcast.
  std::byte* data = nullptr;
  std::size_t bytes = 0;
  int root = 0;

  // iallreduce.
  double* x = nullptr;
  std::size_t n = 0;
  RecdblState recdbl;

  std::uint64_t flag() const {
    return (seq << 4) | static_cast<std::uint64_t>(kind);
  }
  const char* name() const {
    switch (kind) {
      case kBarrier:
        return "ibarrier";
      case kBcast:
        return "ibcast";
      default:
        return "iallreduce";
    }
  }
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

NbcEngine& NbcEngine::of(armci::Comm& comm) {
  std::shared_ptr<void>& slot = comm.nbc_slot();
  if (!slot) slot = std::make_shared<NbcEngine>(comm);
  return *static_cast<NbcEngine*>(slot.get());
}

NbcEngine::NbcEngine(armci::Comm& comm)
    : comm_(comm),
      rt_(async::Runtime::of(comm)),
      p_(comm.nprocs()),
      me_(comm.rank()),
      slots_(comm, kSlotNames, comm.next_coll_engine_salt(),
             [&comm] { return "coll-nbc/r" + std::to_string(comm.rank()); }),
      timeline_(comm.world().machine().sinks().timeline),
      open_series_(timeline_->series("async.nbc_open_ops", obs::Timeline::Kind::kGauge)) {
  poller_id_ = rt_.register_poller([this] { step_all(); });
}

NbcEngine::~NbcEngine() {
  // Open ops at teardown stay counted as pending futures: the
  // runtime's finalize quiescence check turns them into a diagnostic
  // abort. Never throw from here.
  rt_.unregister_poller(poller_id_);
  slots_.release_stages();
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

void NbcEngine::ensure_arena(std::size_t need) {
  std::size_t cap = kInitialArenaBytes;
  while (cap < need) cap *= 2;
  // Collective and zero-filled: every rank allocates at its first nbc
  // initiation (and at a growing wrap), which the collective-initiation
  // contract aligns.
  arena_ = &comm_.malloc_collective(cap);
  cap_ = cap;
}

void NbcEngine::wrap(std::size_t need) {
  ++wraps_;
  // Drive every open op home: each progress pass runs the poller,
  // and every rank reaches this same wrap before initiating the op
  // that overflowed the cursor.
  comm_.progress_until([this] { return open_.empty(); });
  // Fences first: every slot write is delivered before anyone wipes.
  comm_.barrier_hw();
  if (need > cap_) {
    comm_.free_collective(*arena_);
    ensure_arena(need);  // fresh zero-filled slab
  } else {
    std::memset(arena_->local(me_), 0, cap_);
    comm_.barrier_hw();  // nobody injects the new cycle into a mid-wipe peer
  }
  slots_.retire_stages();  // no re-fetch can target a stage past the rendezvous
  cursor_ = 0;
}

void NbcEngine::open_slots(Op& op, std::size_t slots, std::size_t payload) {
  op.payload = payload;
  op.pitch = slots_.hdr() + ((payload + 7) & ~std::size_t{7});
  const std::size_t need = op.pitch * slots;
  if (arena_ == nullptr) {
    ensure_arena(need);
  } else if (cursor_ + need > cap_) {
    wrap(need);
  }
  op.base = cursor_;
  cursor_ += need;
}

// ---------------------------------------------------------------------------
// Hop transport
// ---------------------------------------------------------------------------

void NbcEngine::send_hop(Op& op, int to, std::size_t slot, const void* data,
                         std::size_t bytes) {
  PGASQ_CHECK(bytes <= op.payload);
  std::byte* stage = slots_.stage(bytes);
  slots_.seal(stage, op.flag(), data, bytes);
  slots_.trace_send(to, op.seq, slot, bytes, op.name());
  // One put carries flag + payload, delivered atomically, so a raised
  // flag implies a complete payload. The op's handle aggregates every
  // hop; completion requires them locally drained.
  comm_.nb_put(stage, arena_->at(to, op.base + slot * op.pitch),
               slots_.hdr() + bytes, op.sends);
  ++hops_sent_;
}

const std::byte* NbcEngine::hop_payload(Op& op, std::size_t slot,
                                        std::size_t bytes) {
  std::byte* base = arena_->local(me_) + op.base + slot * op.pitch;
  const volatile std::uint64_t* flag =
      reinterpret_cast<const volatile std::uint64_t*>(base);
  const std::uint64_t got = *flag;
  if (got == 0) return nullptr;  // not landed yet — step again later
  PGASQ_CHECK(got == op.flag(),
              << "nbc slot " << slot << " of " << op.name() << " #" << op.seq
              << " holds flag " << got << ", expected " << op.flag()
              << " — ranks initiated different non-blocking collective "
                 "sequences (divergence)");
  return slots_.open(base, op.seq, slot, bytes);
}

/// One op's side of the schedule hop interface: recv never blocks, so
/// a shared schedule step yields at the first message still in flight.
class NbcEngine::OpHops final : public Hops {
 public:
  OpHops(NbcEngine& e, Op& op) : e_(e), op_(op) {}
  void send(int to, std::size_t slot, const void* data,
            std::size_t bytes) override {
    e_.send_hop(op_, to, slot, data, bytes);
  }
  const std::byte* recv(std::size_t slot, std::size_t bytes) override {
    return e_.hop_payload(op_, slot, bytes);
  }

 private:
  NbcEngine& e_;
  Op& op_;
};

// ---------------------------------------------------------------------------
// Initiation
// ---------------------------------------------------------------------------

fut::Future<fut::Unit> NbcEngine::start(std::unique_ptr<Op> op) {
  ++ops_started_;
  // An open op counts as a pending future: an abandoned one (rank
  // divergence, a dropped future) is caught by the runtime's finalize
  // quiescence check instead of hanging silently. It is also a poll
  // source — its arrival flags are one-sided writes, so blocking waits
  // must poll rather than park while it is open.
  rt_.note_pending(+1);
  rt_.note_poll_source(+1);
  if (sim::TraceRecorder* trace = slots_.trace()) {
    trace->instant(slots_.track(), std::string(op->name()) + " start",
                   comm_.now());
  }
  fut::Future<fut::Unit> f = op->promise.future();
  open_.push_back(std::move(op));
  sample_gauge();
  // Step immediately: the first rounds' send hops go out at
  // initiation, not at the next progress pass.
  step_all();
  return f;
}

fut::Future<fut::Unit> NbcEngine::ibarrier() {
  if (p_ == 1) return fut::make_ready(rt_, fut::Unit{});
  auto op = std::make_unique<Op>(Op::kBarrier, rt_);
  op->seq = ++seq_;
  op->rounds = ceil_log2(p_);
  open_slots(*op, static_cast<std::size_t>(op->rounds), 0);
  return start(std::move(op));
}

fut::Future<fut::Unit> NbcEngine::ibcast(void* data, std::size_t bytes,
                                         armci::RankId root) {
  PGASQ_CHECK(data != nullptr && bytes > 0 && root >= 0 && root < p_);
  if (p_ == 1) return fut::make_ready(rt_, fut::Unit{});
  auto op = std::make_unique<Op>(Op::kBcast, rt_);
  op->seq = ++seq_;
  op->data = static_cast<std::byte*>(data);
  op->bytes = bytes;
  op->root = static_cast<int>(root);
  open_slots(*op, 1, bytes);
  return start(std::move(op));
}

fut::Future<fut::Unit> NbcEngine::iallreduce_sum(double* x, std::size_t n) {
  PGASQ_CHECK(x != nullptr && n > 0);
  if (p_ == 1) return fut::make_ready(rt_, fut::Unit{});
  auto op = std::make_unique<Op>(Op::kAllreduce, rt_);
  op->seq = ++seq_;
  op->x = x;
  op->n = n;
  open_slots(*op, allreduce_recdbl_slots(p_), n * 8);
  return start(std::move(op));
}

// ---------------------------------------------------------------------------
// Stepping
// ---------------------------------------------------------------------------

void NbcEngine::step_all() {
  if (stepping_) return;
  stepping_ = true;
  for (std::size_t i = 0; i < open_.size();) {
    if (step(*open_[i])) {
      std::unique_ptr<Op> done = std::move(open_[i]);
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      finish(*done);
    } else {
      ++i;
    }
  }
  stepping_ = false;
}

bool NbcEngine::step(Op& op) {
  if (!op.schedule_done) {
    OpHops hops(*this, op);
    switch (op.kind) {
      case Op::kBarrier:
        op.schedule_done = step_barrier(op);
        break;
      case Op::kBcast:
        op.schedule_done =
            bcast_binomial_step(hops, p_, me_, op.root, 0, op.data, op.bytes);
        break;
      default:
        op.schedule_done =
            allreduce_recdbl_step(hops, op.recdbl, p_, me_, op.x, op.n);
        break;
    }
  }
  // Completion: the schedule consumed every receive AND every injected
  // hop drained locally. (Stages stay retained for re-fetch until the
  // next wrap regardless; the drain condition rate-limits initiation.)
  return op.schedule_done && (!op.sends.used() || op.sends.done());
}

bool NbcEngine::step_barrier(Op& op) {
  // Dissemination: round r sends a flag to (me + 2^r) and consumes one
  // from (me - 2^r); after ceil(log2 p) rounds everyone has
  // transitively heard from everyone.
  while (op.round < op.rounds) {
    const int gap = 1 << op.round;
    if (!op.sent) {
      send_hop(op, (me_ + gap) % p_, static_cast<std::size_t>(op.round),
               nullptr, 0);
      op.sent = true;
    }
    if (hop_payload(op, static_cast<std::size_t>(op.round), 0) == nullptr) {
      return false;
    }
    ++op.round;
    op.sent = false;
  }
  return true;
}

void NbcEngine::finish(Op& op) {
  ++ops_completed_;
  rt_.note_pending(-1);
  rt_.note_poll_source(-1);
  if (sim::TraceRecorder* trace = slots_.trace()) {
    trace->instant(slots_.track(), std::string(op.name()) + " done", comm_.now());
  }
  sample_gauge();
  // Continuations do NOT run inline here: fulfill enqueues them on the
  // runtime's FIFO queue, drained after the poller pass, so chained
  // work observes a deterministic order.
  op.promise.fulfill(fut::Unit{});
}

void NbcEngine::sample_gauge() {
  timeline_->sample(open_series_, comm_.now(),
                    static_cast<double>(open_.size()));
}

}  // namespace pgasq::coll
