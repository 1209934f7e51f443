#include "core/comm.hpp"

#include <cstring>
#include <sstream>

#include "flow/flow.hpp"
#include "ft/liveness.hpp"
#include "util/error.hpp"

namespace pgasq::armci {

namespace {

// Active-message dispatch ids used by the ARMCI protocol layer.
constexpr pami::DispatchId kDispatchAcc = 1;
constexpr pami::DispatchId kDispatchRegionQuery = 2;
constexpr pami::DispatchId kDispatchRegionReply = 3;
constexpr pami::DispatchId kDispatchStridedWrite = 4;
constexpr pami::DispatchId kDispatchStridedGetReq = 5;
constexpr pami::DispatchId kDispatchStridedGetRep = 6;
constexpr pami::DispatchId kDispatchVectorWrite = 7;
constexpr pami::DispatchId kDispatchVectorGetReq = 8;
constexpr pami::DispatchId kDispatchVectorGetRep = 9;
constexpr pami::DispatchId kDispatchNotify = 10;

// --- POD header (de)serialization ------------------------------------------
// Headers travel as byte vectors; because all simulated ranks share one
// OS address space, protocol cookies are raw pointers (the moral
// equivalent of the rendezvous cookies real protocols carry).

template <typename T>
void append_pod(std::vector<std::byte>& buf, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  buf.insert(buf.end(), p, p + sizeof(T));
}

template <typename T>
T read_pod(const std::byte*& p) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

void append_spec(std::vector<std::byte>& buf, const StridedSpec& spec) {
  append_pod<std::uint64_t>(buf, spec.counts().size());
  for (auto c : spec.counts()) append_pod(buf, c);
  for (auto s : spec.src_strides()) append_pod(buf, s);
  for (auto s : spec.dst_strides()) append_pod(buf, s);
}

StridedSpec read_spec(const std::byte*& p) {
  const auto n = read_pod<std::uint64_t>(p);
  std::vector<std::uint64_t> counts(n);
  for (auto& c : counts) c = read_pod<std::uint64_t>(p);
  std::vector<std::uint64_t> src(n - 1), dst(n - 1);
  for (auto& s : src) s = read_pod<std::uint64_t>(p);
  for (auto& s : dst) s = read_pod<std::uint64_t>(p);
  return StridedSpec(std::move(counts), std::move(src), std::move(dst));
}

/// Wire tags for the typed-accumulate datatypes (ARMCI_ACC_*).
enum class AccWireType : std::uint8_t { kInt32, kInt64, kFloat, kDouble, kComplexDouble };

template <typename T>
constexpr AccWireType acc_wire_type();
template <> constexpr AccWireType acc_wire_type<std::int32_t>() { return AccWireType::kInt32; }
template <> constexpr AccWireType acc_wire_type<std::int64_t>() { return AccWireType::kInt64; }
template <> constexpr AccWireType acc_wire_type<float>() { return AccWireType::kFloat; }
template <> constexpr AccWireType acc_wire_type<double>() { return AccWireType::kDouble; }
template <> constexpr AccWireType acc_wire_type<std::complex<double>>() {
  return AccWireType::kComplexDouble;
}

struct AccHeader {
  std::byte* dst;
  std::uint64_t count;  // elements of the wire type
  AccWireType type;
  std::byte alpha[16];  // raw scale value, sizeof(T) bytes used
  void* ack;
};

template <typename T>
void apply_acc(std::byte* dst_raw, const std::byte* src_raw, std::uint64_t count,
               const std::byte* alpha_raw) {
  T alpha;
  std::memcpy(&alpha, alpha_raw, sizeof(T));
  auto* dst = reinterpret_cast<T*>(dst_raw);
  // The payload buffer is freshly allocated and aligned for any T.
  const T* src = reinterpret_cast<const T*>(src_raw);
  for (std::uint64_t i = 0; i < count; ++i) dst[i] += alpha * src[i];
}

struct RegionQueryHeader {
  const std::byte* addr;
  std::uint64_t bytes;
  void* box;
};

struct RegionReplyHeader {
  void* box;
  pami::MemoryRegion region;
  bool found;
};

struct StridedWriteHeader {  // followed by the serialized spec
  std::byte* dst_base;
  void* ack;
  double alpha;
  std::uint8_t is_acc;
};

struct StridedGetReqHeader {  // followed by the serialized spec
  const std::byte* src_base;
  void* closure;
};

struct StridedGetRepHeader {
  void* closure;
};

struct VectorWriteHeader {  // followed by the remote address list
  std::uint64_t segments;
  std::uint64_t segment_bytes;
  double alpha;
  std::uint8_t is_acc;
  void* ack;
};

struct VectorGetReqHeader {  // followed by the remote address list
  std::uint64_t segments;
  std::uint64_t segment_bytes;
  void* closure;
};

/// Requester-side state for a packed vector get.
struct VectorGetClosure {
  std::shared_ptr<HandleState> state;
  std::vector<std::byte*> local;
  std::uint64_t segment_bytes;
};

/// Requester-side rendezvous for a region query.
struct RegionReplyBox {
  bool done = false;
  bool found = false;
  pami::MemoryRegion region;
};

/// Requester-side state for a packed strided get, kept alive across
/// the wire round-trip.
struct GetReplyClosure {
  std::shared_ptr<HandleState> state;
  std::byte* local_base;
  StridedSpec spec;
};

}  // namespace

/// Write-acknowledgement cookie carried by accumulate / packed-write
/// messages; the target fires it back over a control packet. `extra`
/// is the optional remote-completion callback of the async runtime
/// (Cx::kRemote), fired at the same ack delivery.
struct Comm::AckClosure {
  Comm* source;
  ConflictTracker::Key key;
  pami::Callback extra;
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Comm::Comm(World& world, pami::Process& process)
    : world_(world), process_(process) {}

Comm::~Comm() {
  // As in finalize(), which an aborted SPMD body never reaches: groups,
  // then the collectives engine, go before the async runtime whose
  // poller the engine unregisters.
  grp_slot_.reset();
  coll_slot_.reset();
}

void Comm::init() {
  const Options& opt = options();
  PGASQ_CHECK(opt.contexts_per_rank >= 1 && opt.contexts_per_rank <= 4,
              << "contexts_per_rank = " << opt.contexts_per_rank);
  service_context_index_ =
      (opt.progress == ProgressMode::kAsyncThread && opt.contexts_per_rank >= 2) ? 1
                                                                                 : 0;
  endpoint_cache_ = std::make_unique<EndpointCache>(nprocs(), opt.contexts_per_rank);
  region_cache_ =
      std::make_unique<RegionCache>(opt.region_cache_capacity, opt.region_cache_policy);
  tracker_ = std::make_unique<ConflictTracker>(opt.consistency, nprocs());
  monitor_ = process_.machine().monitor();

  process_.create_client();
  for (int i = 0; i < opt.contexts_per_rank; ++i) {
    register_dispatch(process_.create_context());
  }
  if (opt.progress == ProgressMode::kAsyncThread) start_async_thread();
  barrier();
}

void Comm::finalize() {
  // A rank whose node was declared dead must not synchronize with the
  // survivors — it just tears down.
  if (!ft_failed_) barrier();
  // Detach the group registry first (its group engines sit on top of
  // the collectives engine), then the collectives engine itself: its
  // destructor deregisters from the cross-rank shared state, and no
  // barrier may dispatch through it past this point.
  shrink_hook_ = nullptr;
  grp_slot_.reset();
  barrier_hook_ = nullptr;
  coll_slot_.reset();
  // Async runtime last: the collectives teardown above may still have
  // drained nbc completions through the hook. The quiescence check
  // aborts on abandoned continuations (chained work that can never
  // run); a rank torn down by fail-stop recovery skips it — its
  // futures died with its peers.
  if (async_check_ && !ft_failed_) async_check_();
  async_hook_ = nullptr;
  async_check_ = nullptr;
  async_poll_ = nullptr;
  async_slot_.reset();
  if (async_running_) {
    async_running_ = false;
    service_context().post_completion([] {}, 0);
  }
  // Fold cache counters into the exported statistics.
  stats_.region_cache_hits = region_cache_->hits();
  stats_.region_cache_misses = region_cache_->misses();
  // Fold per-context fault-recovery counters likewise.
  for (int i = 0; i < options().contexts_per_rank; ++i) {
    const auto& cs = process_.context(i).stats();
    stats_.retransmits += cs.retransmits;
    stats_.retransmit_backoff += cs.retransmit_backoff;
  }
}

void Comm::register_dispatch(pami::Context& ctx) {
  ctx.set_dispatch(kDispatchAcc, [this](pami::Context& c, const pami::AmMessage& m) {
    on_acc_message(c, m);
  });
  ctx.set_dispatch(kDispatchRegionQuery,
                   [this](pami::Context& c, const pami::AmMessage& m) {
                     on_region_query(c, m);
                   });
  ctx.set_dispatch(kDispatchRegionReply,
                   [this](pami::Context& c, const pami::AmMessage& m) {
                     on_region_reply(c, m);
                   });
  ctx.set_dispatch(kDispatchStridedWrite,
                   [this](pami::Context& c, const pami::AmMessage& m) {
                     on_strided_put(c, m);
                   });
  ctx.set_dispatch(kDispatchStridedGetReq,
                   [this](pami::Context& c, const pami::AmMessage& m) {
                     on_strided_get_request(c, m);
                   });
  ctx.set_dispatch(kDispatchStridedGetRep,
                   [this](pami::Context& c, const pami::AmMessage& m) {
                     on_strided_get_reply(c, m);
                   });
  ctx.set_dispatch(kDispatchVectorWrite,
                   [this](pami::Context& c, const pami::AmMessage& m) {
                     on_vector_write(c, m);
                   });
  ctx.set_dispatch(kDispatchVectorGetReq,
                   [this](pami::Context& c, const pami::AmMessage& m) {
                     on_vector_get_request(c, m);
                   });
  ctx.set_dispatch(kDispatchVectorGetRep,
                   [this](pami::Context& c, const pami::AmMessage& m) {
                     on_vector_get_reply(c, m);
                   });
  ctx.set_dispatch(kDispatchNotify,
                   [this](pami::Context& c, const pami::AmMessage& m) {
                     on_notify(c, m);
                   });
}

// ---------------------------------------------------------------------------
// Progress & locking
// ---------------------------------------------------------------------------

bool Comm::needs_context_lock() const {
  // Only the shared-context configuration (async thread + rho = 1)
  // multithreads a context (S III-D).
  return options().progress == ProgressMode::kAsyncThread &&
         options().contexts_per_rank == 1;
}

namespace {
/// Acquires the context lock (charging the lock cost) when the
/// configuration shares a context between threads; no-op otherwise or
/// when already held by this fiber (handlers nested under advance).
class ProgressGuard {
 public:
  ProgressGuard(bool needed, pami::Context& ctx, Time lock_cost)
      : ctx_(ctx) {
    if (needed && !ctx.lock().held_by_current()) {
      ctx.process().busy(lock_cost);
      ctx.lock().lock();
      locked_ = true;
    }
  }
  ~ProgressGuard() {
    if (locked_) ctx_.lock().unlock();
  }
  ProgressGuard(const ProgressGuard&) = delete;
  ProgressGuard& operator=(const ProgressGuard&) = delete;

 private:
  pami::Context& ctx_;
  bool locked_ = false;
};
}  // namespace

std::size_t Comm::locked_advance(pami::Context& ctx) {
  ProgressGuard guard(needs_context_lock(), ctx,
                      process_.machine().params().context_lock_cost);
  return ctx.advance();
}

void Comm::progress_until(const std::function<bool()>& pred) {
  pami::Context& ctx = main_context();
  for (;;) {
    if (!deferred_gets_.empty()) flush_deferred_gets();
    bool done;
    {
      ProgressGuard guard(needs_context_lock(), ctx,
                          process_.machine().params().context_lock_cost);
      ctx.advance();
      done = pred();
    }
    // Drain the async runtime outside the context lock: continuations
    // and nbc schedule steps issue communication of their own, and the
    // predicate may only become satisfiable through them.
    if (async_hook_) {
      async_hook_();
      done = pred();
    }
    if (done) return;
    // A declared node death may have made this predicate unsatisfiable
    // — unwind to the recovery runtime rather than park forever.
    ft_check();
    if (ctx.has_work()) continue;
    // Open non-blocking collectives complete through one-sided flag
    // writes that post no context item: parking would sleep through
    // the landing. Poll instead, at the flag-poll cadence.
    if (async_poll_ && async_poll_() == AsyncWork::kPolling) {
      compute(kPollSlice);
      continue;
    }
    // Park (lock released) until the next delivery; every event this
    // predicate can depend on arrives as an item on this context.
    ctx.wait_for_work();
  }
}

bool Comm::idle_pass() {
  return monitor_ == nullptr && deferred_gets_.empty() && !needs_context_lock() &&
         !main_context().has_work() &&
         (!async_poll_ || async_poll_() == AsyncWork::kNone);
}

void Comm::poll_until(const std::function<bool()>& pred, Time slice) {
  const Time poll_cost = process_.machine().params().advance_poll_cost;
  // Each pass is progress() — ft_check, deferred flush, advance (an
  // empty one sleeps poll_cost), async drain — then compute(slice).
  // The engine's phase-0 wake is the advance's return, where only the
  // drain remains; its phase-1 wake is the next pass's pred() and
  // advance.
  const std::function<bool(int)> idle = [this, &pred](int phase) {
    if (!idle_pass()) return false;
    if (phase == 1) {
      if (pred()) return false;
      main_context().count_empty_advance();
    }
    return true;
  };
  sim::Engine& engine = process_.machine().engine();
  while (!pred()) {
    // A zero cost is charged without a sleep, so it has no wake to replay.
    if (poll_cost > 0 && slice > 0 && idle_pass()) {
      main_context().count_empty_advance();
      if (engine.replay_idle_loop(poll_cost, slice, idle) == 1) continue;
      // Resumed where the empty advance returns: finish the pass.
      if (async_hook_) async_hook_();
    } else {
      progress();
    }
    compute(slice);
  }
}

void Comm::ft_check() {
  if (monitor_ == nullptr || ft_failed_) return;
  monitor_->probe(now());
  if (monitor_->node_declared_dead(process_.node())) {
    std::ostringstream os;
    os << "rank " << rank() << " lives on node " << process_.node()
       << ", declared dead at epoch " << monitor_->epoch();
    throw ft::PeerDeadError("self", process_.node(), process_.node(),
                            monitor_->epoch(), os.str());
  }
  if (monitor_->epoch() != ft_acked_epoch_) {
    std::ostringstream os;
    os << "liveness epoch moved " << ft_acked_epoch_ << " -> " << monitor_->epoch()
       << " under rank " << rank() << "; unwinding blocked work for recovery";
    throw ft::PeerDeadError("epoch-change", process_.node(), process_.node(),
                            monitor_->epoch(), os.str());
  }
}

void Comm::ft_accept_epoch() {
  if (monitor_ != nullptr) ft_acked_epoch_ = monitor_->epoch();
}

void Comm::ft_quiesce() {
  tracker_->reset_outstanding();
  implicit_ = Handle{};
}

void Comm::ft_align_collectives() {
  barrier_hw();
  next_collective_seq_ = world_.collective_seq_high_water();
  barrier_hw();
}

void Comm::ft_poke() {
  // A tick can land while this rank is still creating its PAMI
  // objects (init runs for milliseconds of virtual time) — nothing to
  // wake yet.
  if (process_.num_contexts() <= service_context_index_) return;
  main_context().post_completion([] {}, 0);
  if (service_context_index_ != 0) service_context().post_completion([] {}, 0);
}

void Comm::start_async_thread() {
  async_running_ = true;
  pami::Context* ctx = &service_context();
  const Time wake = process_.machine().params().async_wake_latency;
  fault::Injector* inj = process_.machine().injector();
  process_.machine().spawn_thread(process_, "async", [this, ctx, wake, inj] {
    sim::Engine& eng = process_.machine().engine();
    while (async_running_) {
      if (inj != nullptr) {
        // Progress-stall injection: this fiber stops advancing for the
        // window; queued requests sit until it resumes, so forward
        // progress must come from advance_until on the main thread.
        const Time until = inj->stalled_until(static_cast<int>(rank()), eng.now());
        if (until > eng.now()) {
          stats_.progress_stall_time += until - eng.now();
          ++stats_.progress_stalls;
          inj->record_stall(eng.now(), until);
          eng.sleep_until(until);
          continue;
        }
      }
      try {
        const std::size_t serviced = locked_advance(*ctx);
        // Causal trace: each async-progress pass that actually serviced
        // requests is an instant on this rank's net track, making the
        // handoff (main thread computes, async thread advances) visible
        // between the message arrows.
        sim::TraceRecorder* tr = process_.machine().sinks().trace;
        if (tr != nullptr && serviced > 0) {
          tr->instant(process_.machine().rank_track(rank()), "async progress",
                      eng.now(),
                      {{"serviced", std::to_string(serviced)}});
        }
      } catch (const ft::PeerDeadError&) {
        // A serviced request (e.g. a get-reply) targeted a dead peer.
        // The progress thread itself must survive: recovery is driven
        // by the main thread's abort, not by this fiber.
      }
      if (!async_running_) break;
      if (!ctx->has_work()) {
        ctx->wait_for_work();
        process_.busy(wake);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Endpoint & region resolution
// ---------------------------------------------------------------------------

pami::Endpoint Comm::service_endpoint(RankId target) {
  return pami::Endpoint{target, service_context_index_};
}

void Comm::ensure_endpoint(RankId target, int context) {
  if (!options().cache_endpoints) {
    process_.create_endpoint(target, context);
    ++stats_.endpoints_created;
    return;
  }
  if (!endpoint_cache_->lookup_or_mark(target, context)) {
    process_.create_endpoint(target, context);
    ++stats_.endpoints_created;
  }
}

std::optional<pami::MemoryRegion> Comm::resolve_local_region(const void* addr,
                                                             std::size_t bytes) {
  const auto* p = static_cast<const std::byte*>(addr);
  if (auto r = process_.regions().find(p, bytes)) return r;
  // Register this local communication buffer on the fly (the tau
  // buffers of Table I); may fail at the configured limit.
  return process_.create_memregion(const_cast<void*>(addr), bytes);
}

std::optional<pami::MemoryRegion> Comm::resolve_remote_region(RankId target,
                                                              const std::byte* addr,
                                                              std::size_t bytes) {
  if (target == rank()) return resolve_local_region(addr, bytes);
  // 1. Collectively allocated structures: metadata was exchanged at
  //    allocation time, no traffic needed.
  for (const auto& h : world_.heaps()) {
    if (h && !h->freed() && h->contains(target, addr, bytes)) {
      const auto& r = h->region_of(target);
      if (r.valid()) return r;
      return std::nullopt;  // that rank's registration failed
    }
  }
  // 2. Bounded LFU cache of non-collective remote regions.
  if (auto r = region_cache_->lookup(target, addr, bytes)) return r;
  // 3. Miss: ask the owner over an active message (requires the owner
  //    to make progress — another reason the async thread matters).
  ++stats_.region_queries_sent;
  ensure_endpoint(target, service_context_index_);
  // The cookie keeps the rendezvous box alive until the reply lands
  // even if a fail-stop abort unwinds this frame first; the reply
  // handler releases it.
  auto box = std::make_shared<RegionReplyBox>();
  auto* cookie = new std::shared_ptr<RegionReplyBox>(box);
  std::vector<std::byte> header;
  append_pod(header, RegionQueryHeader{addr, bytes, cookie});
  try {
    ProgressGuard guard(needs_context_lock(), main_context(),
                        process_.machine().params().context_lock_cost);
    main_context().send(service_endpoint(target), kDispatchRegionQuery,
                        std::move(header), {}, nullptr, "region query");
  } catch (...) {
    delete cookie;  // the query never left this rank; no reply will come
    throw;
  }
  progress_until([box] { return box->done; });
  if (!box->found) return std::nullopt;
  region_cache_->insert(target, box->region);
  return box->region;
}

std::uint64_t Comm::known_region_id(RankId target, const std::byte* addr,
                                    std::size_t bytes) {
  if (target == rank()) {
    const auto r = process_.regions().find(addr, bytes);
    return r ? r->id : 0;
  }
  for (const auto& h : world_.heaps()) {
    if (h && !h->freed() && h->contains(target, addr, bytes)) {
      const auto& r = h->region_of(target);
      return r.valid() ? r.id : 0;
    }
  }
  if (auto r = region_cache_->lookup(target, addr, bytes)) return r->id;
  return 0;
}

// ---------------------------------------------------------------------------
// Write tracking & consistency
// ---------------------------------------------------------------------------

void Comm::track_write(RankId target, std::uint64_t region_id,
                       ConflictTracker::Key* key_out) {
  *key_out = tracker_->on_write_initiated(target, region_id);
}

pami::Callback Comm::make_ack(const ConflictTracker::Key& key) {
  return [this, key] { tracker_->on_write_acked(key); };
}

void Comm::maybe_fence_before_read(RankId target, std::uint64_t region_id) {
  if (tracker_->read_requires_fence(target, region_id)) {
    ++stats_.forced_fences;
    fence(target);
  }
}

void Comm::notify(RankId target) {
  PGASQ_CHECK(target >= 0 && target < nprocs());
  // armci_notify semantics: the notification is ordered after every
  // write this process issued to the target.
  fence(target);
  ensure_endpoint(target, service_context_index_);
  ProgressGuard guard(needs_context_lock(), main_context(),
                      process_.machine().params().context_lock_cost);
  main_context().send(service_endpoint(target), kDispatchNotify, {}, {}, nullptr,
                      "notify");
}

void Comm::wait_notify(RankId producer, std::uint64_t count) {
  PGASQ_CHECK(producer >= 0 && producer < nprocs());
  progress_until(
      [this, producer, count] { return notifications_from(producer) >= count; });
}

std::uint64_t Comm::notifications_from(RankId producer) const {
  PGASQ_CHECK(producer >= 0 && producer < nprocs(),
              << "producer " << producer << " outside [0, " << nprocs() << ")");
  const auto it = notifications_.find(producer);
  return it == notifications_.end() ? 0 : it->second;
}

void Comm::on_notify(pami::Context& ctx, const pami::AmMessage& msg) {
  ++notifications_[msg.source.rank];
  // The consumer may be parked on its main context.
  main_context().post_completion([] {}, 0);
  (void)ctx;
}

void Comm::fence(RankId target) {
  ++stats_.fence_calls;
  const Time t0 = now();
  progress_until([this, target] { return tracker_->outstanding_to(target) == 0; });
  stats_.time_in_fence += now() - t0;
}

void Comm::fence_all() {
  ++stats_.fence_calls;
  const Time t0 = now();
  progress_until([this] { return tracker_->outstanding_total() == 0; });
  stats_.time_in_fence += now() - t0;
}

void Comm::barrier() {
  const Time t0 = now();
  if (barrier_hook_) {
    barrier_hook_();
  } else {
    barrier_hw();
  }
  stats_.time_in_barrier += now() - t0;
}

void Comm::barrier_hw() {
  fence_all();
  auto& b = world_.barrier_;
  const std::uint64_t generation = b.generation;
  // Under fail-stop recovery the rendezvous completes once every
  // *declared-live* rank arrives (dead ranks never will).
  const auto target = static_cast<std::size_t>(
      monitor_ != nullptr ? monitor_->live_rank_count() : world_.num_ranks());
  if (++b.arrived >= target) {
    b.arrived = 0;
    World* w = &world_;
    world_.machine().engine().schedule_after(
        process_.machine().params().barrier_latency, [w] {
          ++w->barrier_.generation;
          for (Comm* c : w->comms_) {
            if (c != nullptr) c->main_context().post_completion([] {}, 0);
          }
        });
  }
  progress_until([&b, generation] { return b.generation != generation; });
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

void Comm::attach(Handle& handle, int ops) {
  handle.state()->outstanding += ops;
  handle.state()->used = true;
}

pami::Callback Comm::make_done(Handle& handle) {
  auto s = handle.state();
  return [s] { handle_complete_one(*s); };
}

void Comm::wait(Handle& handle) {
  const Time t0 = now();
  progress_until([&handle] { return handle.done(); });
  stats_.time_in_wait += now() - t0;
}

bool Comm::test(Handle& handle) {
  locked_advance(main_context());
  return handle.done();
}

void Comm::idle_until(Time t) {
  if (now() >= t) return;
  auto fired = std::make_shared<bool>(false);
  main_context().post_completion_at(t, [fired] { *fired = true; }, 0);
  progress_until([fired] { return *fired; });
}

bool Comm::wait_until(Handle& handle, Time t) {
  const Time t0 = now();
  if (!handle.done() && now() < t) {
    // The timer must survive an abort unwind of this frame: a fail-stop
    // recovery can leave the posted item pending, and it fires into the
    // shared_ptr, not this stack.
    auto fired = std::make_shared<bool>(false);
    main_context().post_completion_at(t, [fired] { *fired = true; }, 0);
    progress_until([&handle, fired] { return handle.done() || *fired; });
  }
  stats_.time_in_wait += now() - t0;
  return handle.done();
}

bool Comm::wait_any(Handle& a, Handle& b) {
  // Ties go to `a`: wait_some reports completions in index order.
  return wait_some({&a, &b}).front() == 0;
}

std::vector<std::size_t> Comm::wait_some(const std::vector<Handle*>& hs) {
  PGASQ_CHECK(!hs.empty(), << "wait_some over an empty handle set");
  const Time t0 = now();
  progress_until([&hs] {
    for (const Handle* h : hs) {
      if (h->done()) return true;
    }
    return false;
  });
  stats_.time_in_wait += now() - t0;
  std::vector<std::size_t> done;
  for (std::size_t i = 0; i < hs.size(); ++i) {
    if (hs[i]->done()) done.push_back(i);
  }
  return done;
}

bool Comm::test_all(const std::vector<Handle*>& hs) {
  locked_advance(main_context());
  if (async_hook_) async_hook_();
  for (const Handle* h : hs) {
    if (!h->done()) return false;
  }
  return true;
}

void Comm::wait_all() { wait(implicit_); }

// ---------------------------------------------------------------------------
// Collective memory
// ---------------------------------------------------------------------------

GlobalMem& Comm::malloc_collective(std::size_t bytes_per_rank) {
  const std::uint64_t seq = next_collective_seq_++;
  GlobalMem& mem = world_.ensure_heap(seq, bytes_per_rank);
  auto region = process_.create_memregion(mem.slab(rank()), bytes_per_rank);
  mem.set_region(rank(), region.value_or(pami::MemoryRegion{}));
  barrier();  // metadata exchange rendezvous
  return mem;
}

void Comm::free_collective(GlobalMem& mem) {
  ++next_collective_seq_;  // keeps collective sequences aligned
  barrier();
  const auto& r = mem.region_of(rank());
  if (r.valid()) process_.destroy_memregion(r);
  mem.set_region(rank(), pami::MemoryRegion{});
  region_cache_->invalidate_rank(rank());
  barrier();
  if (rank() == 0) mem.mark_freed();
}

void* Comm::malloc_local(std::size_t bytes) {
  PGASQ_CHECK(bytes > 0);
  LocalAllocation alloc;
  alloc.memory = std::make_unique<std::byte[]>(bytes);
  alloc.bytes = bytes;
  alloc.region = process_.create_memregion(alloc.memory.get(), bytes);
  void* p = alloc.memory.get();
  local_allocations_.push_back(std::move(alloc));
  return p;
}

void Comm::free_local(void* ptr) {
  for (auto it = local_allocations_.begin(); it != local_allocations_.end(); ++it) {
    if (it->memory.get() == ptr) {
      if (it->region) process_.destroy_memregion(*it->region);
      local_allocations_.erase(it);
      return;
    }
  }
  PGASQ_CHECK(false, << "free_local of unknown pointer");
}

// ---------------------------------------------------------------------------
// Contiguous RMA
// ---------------------------------------------------------------------------

void Comm::nb_put(const void* src, RemotePtr dst, std::size_t bytes, Handle& handle) {
  nb_put(src, dst, bytes, handle, nullptr);
}

void Comm::nb_put(const void* src, RemotePtr dst, std::size_t bytes, Handle& handle,
                  pami::Callback on_remote) {
  PGASQ_CHECK(src != nullptr && dst.valid() && bytes > 0);
  PGASQ_CHECK(dst.rank < nprocs(), << "put to rank " << dst.rank);
  ++stats_.puts;
  stats_.bytes_put += bytes;
  stats_.put_sizes.add(bytes);
  auto remote = resolve_remote_region(dst.rank, dst.addr, bytes);
  auto local = resolve_local_region(src, bytes);
  ConflictTracker::Key key;
  track_write(dst.rank, remote ? remote->id : 0, &key);
  attach(handle, 1);
  // Remote completion (async runtime, Cx::kRemote) rides the same ack
  // leg the conflict tracker already pays for.
  pami::Callback ack = make_ack(key);
  if (on_remote) {
    ack = [a = std::move(ack), r = std::move(on_remote)] {
      a();
      r();
    };
  }
  const bool rdma = remote.has_value() && local.has_value();
  ensure_endpoint(dst.rank, rdma ? 0 : service_context_index_);
  ProgressGuard guard(needs_context_lock(), main_context(),
                      process_.machine().params().context_lock_cost);
  if (rdma) {
    ++stats_.rdma_puts;
    const auto loff =
        static_cast<std::uint64_t>(static_cast<const std::byte*>(src) - local->base);
    const auto roff = static_cast<std::uint64_t>(dst.addr - remote->base);
    main_context().rput(*local, loff, *remote, roff, bytes, make_done(handle),
                        std::move(ack));
  } else {
    ++stats_.fallback_puts;
    main_context().put(service_endpoint(dst.rank),
                       static_cast<const std::byte*>(src), dst.addr, bytes,
                       make_done(handle), std::move(ack));
  }
}

void Comm::put(const void* src, RemotePtr dst, std::size_t bytes) {
  const Time t0 = now();
  Handle h;
  nb_put(src, dst, bytes, h);
  progress_until([&h] { return h.done(); });
  stats_.time_in_put += now() - t0;
}

void Comm::nb_get(RemotePtr src, void* dst, std::size_t bytes, Handle& handle) {
  PGASQ_CHECK(dst != nullptr && src.valid() && bytes > 0);
  PGASQ_CHECK(src.rank < nprocs(), << "get from rank " << src.rank);
  ++stats_.gets;
  stats_.bytes_got += bytes;
  stats_.get_sizes.add(bytes);
  auto remote = resolve_remote_region(src.rank, src.addr, bytes);
  maybe_fence_before_read(src.rank, remote ? remote->id : 0);
  auto local = resolve_local_region(dst, bytes);
  attach(handle, 1);
  const bool rdma = remote.has_value() && local.has_value();
  ensure_endpoint(src.rank, rdma ? 0 : service_context_index_);
  ProgressGuard guard(needs_context_lock(), main_context(),
                      process_.machine().params().context_lock_cost);
  if (rdma) {
    ++stats_.rdma_gets;
    const auto loff =
        static_cast<std::uint64_t>(static_cast<std::byte*>(dst) - local->base);
    const auto roff = static_cast<std::uint64_t>(src.addr - remote->base);
    main_context().rget(*local, loff, *remote, roff, bytes, make_done(handle));
  } else {
    ++stats_.fallback_gets;
    pami::Callback on_expired;
    if (op_deadline_ != 0) {
      // Server-side shed notification: mark the sticky flag, then
      // complete the handle so the blocking wrapper unblocks and
      // converts the mark into the typed error.
      pami::Callback done = make_done(handle);
      on_expired = [this, done = std::move(done)] {
        deadline_expired_ = true;
        done();
      };
    }
    main_context().get(service_endpoint(src.rank), static_cast<std::byte*>(dst),
                       src.addr, bytes, make_done(handle), op_deadline_,
                       std::move(on_expired));
  }
}

void Comm::get(RemotePtr src, void* dst, std::size_t bytes) {
  const Time t0 = now();
  Handle h;
  nb_get(src, dst, bytes, h);
  progress_until([&h] { return h.done(); });
  stats_.time_in_get += now() - t0;
  if (deadline_expired_) {
    deadline_expired_ = false;
    throw_op_expired("get", src.rank);
  }
}

std::shared_ptr<DeferredGet> Comm::nb_get_deferred(RemotePtr src, void* dst,
                                                   std::size_t bytes) {
  PGASQ_CHECK(dst != nullptr && src.valid() && bytes > 0);
  auto g = std::make_shared<DeferredGet>();
  g->src = src;
  g->dst = dst;
  g->bytes = bytes;
  // One op charged to the handle up front; it retires either through
  // the injected get's completion chain or through revoke_get.
  attach(g->handle, 1);
  deferred_gets_.push_back(g);
  return g;
}

bool Comm::revoke_get(const std::shared_ptr<DeferredGet>& g) {
  PGASQ_CHECK(g != nullptr, << "revoke of a null deferred get");
  if (g->injected || g->revoked) return false;
  g->revoked = true;
  ++stats_.gets_revoked;
  // Completes "empty": no wire leg was generated, no byte counted, the
  // destination buffer is untouched.
  handle_complete_one(*g->handle.state());
  return true;
}

void Comm::flush_deferred_gets() {
  // Swap the queue out first: injecting a get can block in a nested
  // progress loop (region-query round trip), which re-enters here.
  std::vector<std::shared_ptr<DeferredGet>> batch;
  batch.swap(deferred_gets_);
  for (const auto& g : batch) {
    if (g->revoked) continue;
    g->injected = true;
    // The inner handle's completion retires the charge attached at
    // queue time, firing any future bridged over the outer handle.
    Handle inner;
    inner.state()->on_zero = [s = g->handle.state()] { handle_complete_one(*s); };
    nb_get(g->src, g->dst, g->bytes, inner);
  }
}

template <typename T>
void Comm::nb_acc_t(T alpha, const T* src, RemotePtr dst, std::size_t count,
                    Handle& handle, pami::Callback on_remote) {
  PGASQ_CHECK(src != nullptr && dst.valid() && count > 0);
  PGASQ_CHECK(reinterpret_cast<std::uintptr_t>(dst.addr) % alignof(T) == 0,
              << "accumulate target misaligned for the element type");
  ++stats_.accs;
  const std::size_t bytes = count * sizeof(T);
  stats_.bytes_acc += bytes;
  stats_.acc_sizes.add(bytes);
  ConflictTracker::Key key;
  track_write(dst.rank, known_region_id(dst.rank, dst.addr, bytes), &key);
  attach(handle, 1);
  ensure_endpoint(dst.rank, service_context_index_);
  AccHeader h{dst.addr, count, acc_wire_type<T>(), {},
              new AckClosure{this, key, std::move(on_remote)}};
  std::memcpy(h.alpha, &alpha, sizeof(T));
  std::vector<std::byte> header;
  append_pod(header, h);
  std::vector<std::byte> payload(bytes);
  std::memcpy(payload.data(), src, bytes);
  ProgressGuard guard(needs_context_lock(), main_context(),
                      process_.machine().params().context_lock_cost);
  main_context().send(service_endpoint(dst.rank), kDispatchAcc, std::move(header),
                      std::move(payload), make_done(handle), "accumulate",
                      op_deadline_);
}

template <typename T>
void Comm::acc_t(T alpha, const T* src, RemotePtr dst, std::size_t count) {
  const Time t0 = now();
  Handle h;
  nb_acc_t(alpha, src, dst, count, h);
  progress_until([&h] { return h.done(); });
  stats_.time_in_acc += now() - t0;
}

// The ARMCI_ACC_* datatypes.
template void Comm::nb_acc_t<std::int32_t>(std::int32_t, const std::int32_t*,
                                           RemotePtr, std::size_t, Handle&,
                                           pami::Callback);
template void Comm::nb_acc_t<std::int64_t>(std::int64_t, const std::int64_t*,
                                           RemotePtr, std::size_t, Handle&,
                                           pami::Callback);
template void Comm::nb_acc_t<float>(float, const float*, RemotePtr, std::size_t,
                                    Handle&, pami::Callback);
template void Comm::nb_acc_t<double>(double, const double*, RemotePtr, std::size_t,
                                     Handle&, pami::Callback);
template void Comm::nb_acc_t<std::complex<double>>(std::complex<double>,
                                                   const std::complex<double>*,
                                                   RemotePtr, std::size_t, Handle&,
                                                   pami::Callback);
template void Comm::acc_t<std::int32_t>(std::int32_t, const std::int32_t*, RemotePtr,
                                        std::size_t);
template void Comm::acc_t<std::int64_t>(std::int64_t, const std::int64_t*, RemotePtr,
                                        std::size_t);
template void Comm::acc_t<float>(float, const float*, RemotePtr, std::size_t);
template void Comm::acc_t<double>(double, const double*, RemotePtr, std::size_t);
template void Comm::acc_t<std::complex<double>>(std::complex<double>,
                                                const std::complex<double>*,
                                                RemotePtr, std::size_t);

void Comm::nb_acc(double alpha, const double* src, RemotePtr dst, std::size_t count,
                  Handle& handle) {
  nb_acc_t<double>(alpha, src, dst, count, handle);
}

void Comm::nb_acc(double alpha, const double* src, RemotePtr dst, std::size_t count,
                  Handle& handle, pami::Callback on_remote) {
  nb_acc_t<double>(alpha, src, dst, count, handle, std::move(on_remote));
}

void Comm::acc(double alpha, const double* src, RemotePtr dst, std::size_t count) {
  acc_t<double>(alpha, src, dst, count);
}

// ---------------------------------------------------------------------------
// Strided RMA
// ---------------------------------------------------------------------------

StridedProtocol Comm::choose_strided_protocol(const StridedSpec& spec,
                                              bool regions_available) const {
  if (!regions_available) return StridedProtocol::kPackUnpack;
  switch (options().strided) {
    case StridedProtocol::kZeroCopy:
    case StridedProtocol::kTyped:
    case StridedProtocol::kPackUnpack:
      return options().strided;
    case StridedProtocol::kAuto:
      // Tall-skinny patches (tiny l0, many chunks) go through the PAMI
      // typed path (S III-C2); everything else posts one RDMA per
      // contiguous chunk, leaning on network concurrency.
      if (spec.chunk_bytes() < options().tall_skinny_chunk_bytes &&
          spec.num_chunks() >= options().tall_skinny_min_chunks) {
        return StridedProtocol::kTyped;
      }
      return StridedProtocol::kZeroCopy;
  }
  PGASQ_UNREACHABLE("strided protocol");
}

void Comm::strided_zero_copy(Dir dir, std::byte* local,
                             const pami::MemoryRegion& local_mr, RemotePtr remote,
                             const pami::MemoryRegion& remote_mr,
                             const StridedSpec& spec, Handle& handle) {
  const std::uint64_t nchunks = spec.num_chunks();
  const std::uint64_t l0 = spec.chunk_bytes();
  stats_.zero_copy_chunks += nchunks;
  attach(handle, static_cast<int>(nchunks));
  const auto lbase = static_cast<std::uint64_t>(local - local_mr.base);
  const auto rbase = static_cast<std::uint64_t>(remote.addr - remote_mr.base);
  ConflictTracker::Key key{remote.rank, remote_mr.id};
  ProgressGuard guard(needs_context_lock(), main_context(),
                      process_.machine().params().context_lock_cost);
  spec.for_each_chunk([&](std::uint64_t soff, std::uint64_t doff) {
    if (dir == Dir::kPut) {
      // Spec src side is local, dst side is remote.
      tracker_->on_write_initiated(key.target, key.region_id);
      main_context().rput(local_mr, lbase + soff, remote_mr, rbase + doff, l0,
                          make_done(handle), make_ack(key));
    } else {
      // For gets the spec's src side is the remote side.
      main_context().rget(local_mr, lbase + doff, remote_mr, rbase + soff, l0,
                          make_done(handle));
    }
  });
}

void Comm::strided_typed(Dir dir, std::byte* local, const pami::MemoryRegion& local_mr,
                         RemotePtr remote, const pami::MemoryRegion& remote_mr,
                         const StridedSpec& spec, Handle& handle) {
  ++stats_.typed_ops;
  attach(handle, 1);
  const auto lbase = static_cast<std::uint64_t>(local - local_mr.base);
  const auto rbase = static_cast<std::uint64_t>(remote.addr - remote_mr.base);
  std::vector<pami::TypedChunk> chunks;
  chunks.reserve(static_cast<std::size_t>(spec.num_chunks()));
  spec.for_each_chunk([&](std::uint64_t soff, std::uint64_t doff) {
    if (dir == Dir::kPut) {
      chunks.push_back({lbase + soff, rbase + doff, spec.chunk_bytes()});
    } else {
      chunks.push_back({lbase + doff, rbase + soff, spec.chunk_bytes()});
    }
  });
  ProgressGuard guard(needs_context_lock(), main_context(),
                      process_.machine().params().context_lock_cost);
  if (dir == Dir::kPut) {
    ConflictTracker::Key key;
    track_write(remote.rank, remote_mr.id, &key);
    main_context().rput_typed(local_mr, remote_mr, chunks, make_done(handle),
                              make_ack(key), "strided typed put");
  } else {
    main_context().rget_typed(local_mr, remote_mr, chunks, make_done(handle),
                              "strided typed get");
  }
}

void Comm::strided_packed(Dir dir, std::byte* local, RemotePtr remote,
                          const StridedSpec& spec, Handle& handle) {
  ++stats_.packed_ops;
  const auto& p = process_.machine().params();
  const std::uint64_t total = spec.total_bytes();
  attach(handle, 1);
  ensure_endpoint(remote.rank, service_context_index_);
  if (dir == Dir::kPut) {
    ConflictTracker::Key key;
    track_write(remote.rank, known_region_id(remote.rank, remote.addr, 1), &key);
    // Pack at the source (the legacy protocol's first copy).
    process_.busy(from_ns(p.pack_ns_per_byte * static_cast<double>(total)));
    std::vector<std::byte> payload(total);
    std::uint64_t pos = 0;
    spec.for_each_chunk([&](std::uint64_t soff, std::uint64_t) {
      std::memcpy(payload.data() + pos, local + soff, spec.chunk_bytes());
      pos += spec.chunk_bytes();
    });
    std::vector<std::byte> header;
    append_pod(header, StridedWriteHeader{remote.addr, new AckClosure{this, key, nullptr},
                                          0.0, /*is_acc=*/0});
    append_spec(header, spec);
    ProgressGuard guard(needs_context_lock(), main_context(),
                        process_.machine().params().context_lock_cost);
    main_context().send(service_endpoint(remote.rank), kDispatchStridedWrite,
                        std::move(header), std::move(payload), make_done(handle),
                        "strided write");
  } else {
    auto* closure = new GetReplyClosure{handle.state(), local, spec};
    std::vector<std::byte> header;
    append_pod(header, StridedGetReqHeader{remote.addr, closure});
    append_spec(header, spec);
    ProgressGuard guard(needs_context_lock(), main_context(),
                        process_.machine().params().context_lock_cost);
    main_context().send(service_endpoint(remote.rank), kDispatchStridedGetReq,
                        std::move(header), {}, nullptr, "strided get request");
  }
}

void Comm::nb_put_strided(const void* src, RemotePtr dst, const StridedSpec& spec,
                          Handle& handle) {
  PGASQ_CHECK(src != nullptr && dst.valid());
  ++stats_.strided_puts;
  stats_.bytes_put += spec.total_bytes();
  stats_.put_sizes.add(spec.total_bytes());
  auto remote = resolve_remote_region(dst.rank, dst.addr, spec.dst_extent());
  auto local = resolve_local_region(src, spec.src_extent());
  const bool have = remote.has_value() && local.has_value();
  switch (choose_strided_protocol(spec, have)) {
    case StridedProtocol::kZeroCopy:
      ensure_endpoint(dst.rank, 0);
      strided_zero_copy(Dir::kPut, static_cast<std::byte*>(const_cast<void*>(src)),
                        *local, dst, *remote, spec, handle);
      break;
    case StridedProtocol::kTyped:
      ensure_endpoint(dst.rank, 0);
      strided_typed(Dir::kPut, static_cast<std::byte*>(const_cast<void*>(src)),
                    *local, dst, *remote, spec, handle);
      break;
    case StridedProtocol::kPackUnpack:
      strided_packed(Dir::kPut, static_cast<std::byte*>(const_cast<void*>(src)), dst,
                     spec, handle);
      break;
    case StridedProtocol::kAuto:
      PGASQ_UNREACHABLE("auto resolved earlier");
  }
}

void Comm::nb_get_strided(RemotePtr src, void* dst, const StridedSpec& spec,
                          Handle& handle) {
  PGASQ_CHECK(dst != nullptr && src.valid());
  ++stats_.strided_gets;
  stats_.bytes_got += spec.total_bytes();
  stats_.get_sizes.add(spec.total_bytes());
  auto remote = resolve_remote_region(src.rank, src.addr, spec.src_extent());
  maybe_fence_before_read(src.rank, remote ? remote->id : 0);
  auto local = resolve_local_region(dst, spec.dst_extent());
  const bool have = remote.has_value() && local.has_value();
  switch (choose_strided_protocol(spec, have)) {
    case StridedProtocol::kZeroCopy:
      ensure_endpoint(src.rank, 0);
      strided_zero_copy(Dir::kGet, static_cast<std::byte*>(dst), *local, src, *remote,
                        spec, handle);
      break;
    case StridedProtocol::kTyped:
      ensure_endpoint(src.rank, 0);
      strided_typed(Dir::kGet, static_cast<std::byte*>(dst), *local, src, *remote,
                    spec, handle);
      break;
    case StridedProtocol::kPackUnpack:
      strided_packed(Dir::kGet, static_cast<std::byte*>(dst), src, spec, handle);
      break;
    case StridedProtocol::kAuto:
      PGASQ_UNREACHABLE("auto resolved earlier");
  }
}

void Comm::nb_acc_strided(double alpha, const double* src, RemotePtr dst,
                          const StridedSpec& spec, Handle& handle) {
  PGASQ_CHECK(src != nullptr && dst.valid());
  ++stats_.strided_accs;
  const auto& p = process_.machine().params();
  const std::uint64_t total = spec.total_bytes();
  stats_.bytes_acc += total;
  stats_.acc_sizes.add(total);
  PGASQ_CHECK(spec.chunk_bytes() % sizeof(double) == 0,
              << "accumulate chunks must be whole doubles");
  ConflictTracker::Key key;
  track_write(dst.rank, known_region_id(dst.rank, dst.addr, 1), &key);
  attach(handle, 1);
  ensure_endpoint(dst.rank, service_context_index_);
  // Accumulates always travel as active messages (the target must
  // apply the reduction), packed in canonical chunk order.
  process_.busy(from_ns(p.pack_ns_per_byte * static_cast<double>(total)));
  std::vector<std::byte> payload(total);
  std::uint64_t pos = 0;
  const auto* lbase = reinterpret_cast<const std::byte*>(src);
  spec.for_each_chunk([&](std::uint64_t soff, std::uint64_t) {
    std::memcpy(payload.data() + pos, lbase + soff, spec.chunk_bytes());
    pos += spec.chunk_bytes();
  });
  std::vector<std::byte> header;
  append_pod(header, StridedWriteHeader{dst.addr, new AckClosure{this, key, nullptr}, alpha,
                                        /*is_acc=*/1});
  append_spec(header, spec);
  ProgressGuard guard(needs_context_lock(), main_context(),
                      process_.machine().params().context_lock_cost);
  main_context().send(service_endpoint(dst.rank), kDispatchStridedWrite,
                      std::move(header), std::move(payload), make_done(handle),
                      "strided accumulate");
}

void Comm::put_strided(const void* src, RemotePtr dst, const StridedSpec& spec) {
  const Time t0 = now();
  Handle h;
  nb_put_strided(src, dst, spec, h);
  progress_until([&h] { return h.done(); });
  stats_.time_in_put += now() - t0;
}

void Comm::get_strided(RemotePtr src, void* dst, const StridedSpec& spec) {
  const Time t0 = now();
  Handle h;
  nb_get_strided(src, dst, spec, h);
  progress_until([&h] { return h.done(); });
  stats_.time_in_get += now() - t0;
}

void Comm::acc_strided(double alpha, const double* src, RemotePtr dst,
                       const StridedSpec& spec) {
  const Time t0 = now();
  Handle h;
  nb_acc_strided(alpha, src, dst, spec, h);
  progress_until([&h] { return h.done(); });
  stats_.time_in_acc += now() - t0;
}

// ---------------------------------------------------------------------------
// General I/O-vector RMA (S II-B: the third ARMCI data type)
// ---------------------------------------------------------------------------

namespace {
void validate_vector(const Comm::VectorDescriptor& desc) {
  PGASQ_CHECK(desc.segment_bytes > 0, << "empty vector segments");
  PGASQ_CHECK(!desc.local.empty(), << "vector descriptor with no segments");
  PGASQ_CHECK(desc.local.size() == desc.remote.size(),
              << "local/remote segment count mismatch: " << desc.local.size()
              << " vs " << desc.remote.size());
}
}  // namespace

bool Comm::resolve_vector_regions(RankId target, const VectorDescriptor& desc,
                                  std::vector<pami::MemoryRegion>* local_mrs,
                                  std::vector<pami::MemoryRegion>* remote_mrs) {
  local_mrs->clear();
  remote_mrs->clear();
  local_mrs->reserve(desc.count());
  remote_mrs->reserve(desc.count());
  for (std::size_t i = 0; i < desc.count(); ++i) {
    auto l = resolve_local_region(desc.local[i], desc.segment_bytes);
    auto r = resolve_remote_region(target, desc.remote[i], desc.segment_bytes);
    if (!l || !r) return false;
    local_mrs->push_back(*l);
    remote_mrs->push_back(*r);
  }
  return true;
}

void Comm::nb_put_v(RankId target, const VectorDescriptor& desc, Handle& handle) {
  validate_vector(desc);
  ++stats_.puts;
  stats_.bytes_put += desc.total_bytes();
  stats_.put_sizes.add(desc.total_bytes());
  std::vector<pami::MemoryRegion> lmrs, rmrs;
  if (resolve_vector_regions(target, desc, &lmrs, &rmrs)) {
    // Zero-copy: one RDMA per segment, like the strided protocol.
    attach(handle, static_cast<int>(desc.count()));
    stats_.zero_copy_chunks += desc.count();
    ensure_endpoint(target, 0);
    ProgressGuard guard(needs_context_lock(), main_context(),
                        process_.machine().params().context_lock_cost);
    for (std::size_t i = 0; i < desc.count(); ++i) {
      ConflictTracker::Key key;
      track_write(target, rmrs[i].id, &key);
      main_context().rput(
          lmrs[i], static_cast<std::uint64_t>(desc.local[i] - lmrs[i].base),
          rmrs[i], static_cast<std::uint64_t>(desc.remote[i] - rmrs[i].base),
          desc.segment_bytes, make_done(handle), make_ack(key));
    }
    return;
  }
  // Packed fall-back: one AM carrying the address list + payload.
  ++stats_.packed_ops;
  attach(handle, 1);
  ConflictTracker::Key key;
  track_write(target, 0, &key);
  ensure_endpoint(target, service_context_index_);
  const auto& p = process_.machine().params();
  process_.busy(from_ns(p.pack_ns_per_byte * static_cast<double>(desc.total_bytes())));
  std::vector<std::byte> header;
  append_pod(header, VectorWriteHeader{desc.count(), desc.segment_bytes, 0.0,
                                       /*is_acc=*/0, new AckClosure{this, key, nullptr}});
  for (auto* r : desc.remote) append_pod(header, r);
  std::vector<std::byte> payload(desc.total_bytes());
  for (std::size_t i = 0; i < desc.count(); ++i) {
    std::memcpy(payload.data() + i * desc.segment_bytes, desc.local[i],
                desc.segment_bytes);
  }
  ProgressGuard guard(needs_context_lock(), main_context(),
                      process_.machine().params().context_lock_cost);
  main_context().send(service_endpoint(target), kDispatchVectorWrite,
                      std::move(header), std::move(payload), make_done(handle),
                      "vector write");
}

void Comm::nb_get_v(RankId target, const VectorDescriptor& desc, Handle& handle) {
  validate_vector(desc);
  ++stats_.gets;
  stats_.bytes_got += desc.total_bytes();
  stats_.get_sizes.add(desc.total_bytes());
  std::vector<pami::MemoryRegion> lmrs, rmrs;
  if (resolve_vector_regions(target, desc, &lmrs, &rmrs)) {
    for (std::size_t i = 0; i < desc.count(); ++i) {
      maybe_fence_before_read(target, rmrs[i].id);
    }
    attach(handle, static_cast<int>(desc.count()));
    stats_.zero_copy_chunks += desc.count();
    ensure_endpoint(target, 0);
    ProgressGuard guard(needs_context_lock(), main_context(),
                        process_.machine().params().context_lock_cost);
    for (std::size_t i = 0; i < desc.count(); ++i) {
      main_context().rget(
          lmrs[i], static_cast<std::uint64_t>(desc.local[i] - lmrs[i].base),
          rmrs[i], static_cast<std::uint64_t>(desc.remote[i] - rmrs[i].base),
          desc.segment_bytes, make_done(handle));
    }
    return;
  }
  maybe_fence_before_read(target, 0);
  ++stats_.packed_ops;
  attach(handle, 1);
  ensure_endpoint(target, service_context_index_);
  auto* closure = new VectorGetClosure{handle.state(), desc.local,
                                       desc.segment_bytes};
  std::vector<std::byte> header;
  append_pod(header, VectorGetReqHeader{desc.count(), desc.segment_bytes, closure});
  for (auto* r : desc.remote) append_pod(header, r);
  ProgressGuard guard(needs_context_lock(), main_context(),
                      process_.machine().params().context_lock_cost);
  main_context().send(service_endpoint(target), kDispatchVectorGetReq,
                      std::move(header), {}, nullptr, "vector get request");
}

void Comm::nb_acc_v(double alpha, RankId target, const VectorDescriptor& desc,
                    Handle& handle) {
  validate_vector(desc);
  PGASQ_CHECK(desc.segment_bytes % sizeof(double) == 0,
              << "acc_v segments must be whole doubles");
  ++stats_.accs;
  stats_.bytes_acc += desc.total_bytes();
  stats_.acc_sizes.add(desc.total_bytes());
  // Accumulates always go through the target's reduction handler.
  attach(handle, 1);
  ConflictTracker::Key key;
  track_write(target, 0, &key);
  ensure_endpoint(target, service_context_index_);
  const auto& p = process_.machine().params();
  process_.busy(from_ns(p.pack_ns_per_byte * static_cast<double>(desc.total_bytes())));
  std::vector<std::byte> header;
  append_pod(header, VectorWriteHeader{desc.count(), desc.segment_bytes, alpha,
                                       /*is_acc=*/1, new AckClosure{this, key, nullptr}});
  for (auto* r : desc.remote) append_pod(header, r);
  std::vector<std::byte> payload(desc.total_bytes());
  for (std::size_t i = 0; i < desc.count(); ++i) {
    std::memcpy(payload.data() + i * desc.segment_bytes, desc.local[i],
                desc.segment_bytes);
  }
  ProgressGuard guard(needs_context_lock(), main_context(),
                      process_.machine().params().context_lock_cost);
  main_context().send(service_endpoint(target), kDispatchVectorWrite,
                      std::move(header), std::move(payload), make_done(handle),
                      "vector accumulate");
}

void Comm::put_v(RankId target, const VectorDescriptor& desc) {
  const Time t0 = now();
  Handle h;
  nb_put_v(target, desc, h);
  progress_until([&h] { return h.done(); });
  stats_.time_in_put += now() - t0;
}

void Comm::get_v(RankId target, const VectorDescriptor& desc) {
  const Time t0 = now();
  Handle h;
  nb_get_v(target, desc, h);
  progress_until([&h] { return h.done(); });
  stats_.time_in_get += now() - t0;
}

void Comm::acc_v(double alpha, RankId target, const VectorDescriptor& desc) {
  const Time t0 = now();
  Handle h;
  nb_acc_v(alpha, target, desc, h);
  progress_until([&h] { return h.done(); });
  stats_.time_in_acc += now() - t0;
}

void Comm::on_vector_write(pami::Context& ctx, const pami::AmMessage& msg) {
  const std::byte* p = msg.header.data();
  const auto h = read_pod<VectorWriteHeader>(p);
  const auto& params = process_.machine().params();
  const double rate = h.is_acc ? params.acc_apply_ns_per_byte : params.pack_ns_per_byte;
  process_.busy(from_ns(rate * static_cast<double>(h.segments * h.segment_bytes)));
  for (std::uint64_t i = 0; i < h.segments; ++i) {
    auto* dst = read_pod<std::byte*>(p);
    const std::byte* src = msg.payload.data() + i * h.segment_bytes;
    if (h.is_acc) {
      auto* d = reinterpret_cast<double*>(dst);
      const auto* s = reinterpret_cast<const double*>(src);
      for (std::uint64_t k = 0; k < h.segment_bytes / sizeof(double); ++k) {
        d[k] += h.alpha * s[k];
      }
    } else {
      std::memcpy(dst, src, h.segment_bytes);
    }
  }
  auto* closure = static_cast<AckClosure*>(h.ack);
  auto& m = process_.machine();
  const int src_node = m.mapping().node_of_rank(msg.source.rank);
  const auto ack = ctx.wire_control(process_.node(), src_node, now(), "write ack");
  m.engine().schedule_at(ack.arrive, [closure] {
    closure->source->write_acked_from_wire(closure->key);
    if (closure->extra) closure->extra();
    delete closure;
  });
}

void Comm::on_vector_get_request(pami::Context& ctx, const pami::AmMessage& msg) {
  const std::byte* p = msg.header.data();
  const auto h = read_pod<VectorGetReqHeader>(p);
  const auto& params = process_.machine().params();
  process_.busy(from_ns(params.pack_ns_per_byte *
                        static_cast<double>(h.segments * h.segment_bytes)));
  std::vector<std::byte> payload(h.segments * h.segment_bytes);
  for (std::uint64_t i = 0; i < h.segments; ++i) {
    const auto* src = read_pod<std::byte*>(p);
    std::memcpy(payload.data() + i * h.segment_bytes, src, h.segment_bytes);
  }
  std::vector<std::byte> reply;
  append_pod(reply, StridedGetRepHeader{h.closure});  // same shape: a cookie
  ctx.send(msg.source, kDispatchVectorGetRep, std::move(reply), std::move(payload),
           nullptr, "vector get reply");
}

void Comm::on_vector_get_reply(pami::Context& ctx, const pami::AmMessage& msg) {
  const std::byte* p = msg.header.data();
  const auto h = read_pod<StridedGetRepHeader>(p);
  auto* closure = static_cast<VectorGetClosure*>(h.closure);
  const auto& params = process_.machine().params();
  process_.busy(from_ns(params.pack_ns_per_byte *
                        static_cast<double>(msg.payload.size())));
  for (std::size_t i = 0; i < closure->local.size(); ++i) {
    std::memcpy(closure->local[i], msg.payload.data() + i * closure->segment_bytes,
                closure->segment_bytes);
  }
  handle_complete_one(*closure->state);
  delete closure;
  (void)ctx;
}

// ---------------------------------------------------------------------------
// Atomic memory operations
// ---------------------------------------------------------------------------

namespace {
std::int64_t* checked_word(const RemotePtr& p) {
  PGASQ_CHECK(p.valid());
  PGASQ_CHECK(reinterpret_cast<std::uintptr_t>(p.addr) % alignof(std::int64_t) == 0,
              << "rmw target must be 8-byte aligned");
  return reinterpret_cast<std::int64_t*>(p.addr);
}
}  // namespace

void Comm::throw_op_expired(const char* what, RankId target) {
  auto& m = process_.machine();
  if (flow::Controller* fc = m.flow()) fc->note_client_expiry(now());
  const int src_node = process_.node();
  const int dst_node = m.mapping().node_of_rank(target);
  std::ostringstream os;
  os << "flow: " << what << " from rank " << rank() << " to rank " << target
     << " shed — its deadline passed before the server reached it";
  throw flow::DeadlineError(what, src_node, dst_node, 0, os.str());
}

std::int64_t Comm::fetch_add(RemotePtr counter, std::int64_t delta) {
  ++stats_.rmws;
  const Time t0 = now();
  maybe_fence_before_read(counter.rank,
                          known_region_id(counter.rank, counter.addr, 8));
  ensure_endpoint(counter.rank, service_context_index_);
  // Heap-shared completion box: a fail-stop abort can unwind this frame
  // while the reply event is still in flight.
  auto box = std::make_shared<std::pair<bool, std::int64_t>>(false, 0);
  {
    ProgressGuard guard(needs_context_lock(), main_context(),
                        process_.machine().params().context_lock_cost);
    main_context().rmw(service_endpoint(counter.rank), checked_word(counter),
                       pami::RmwOp::kFetchAdd, delta, 0,
                       [box](std::int64_t old) {
                         box->second = old;
                         box->first = true;
                       },
                       op_deadline_);
  }
  progress_until([box] { return box->first; });
  stats_.time_in_rmw += now() - t0;
  if (op_deadline_ != 0 && box->second == flow::kExpiredRmw) {
    throw_op_expired("fetch_add", counter.rank);
  }
  return box->second;
}

std::int64_t Comm::swap(RemotePtr word, std::int64_t value) {
  ++stats_.rmws;
  const Time t0 = now();
  maybe_fence_before_read(word.rank, known_region_id(word.rank, word.addr, 8));
  ensure_endpoint(word.rank, service_context_index_);
  auto box = std::make_shared<std::pair<bool, std::int64_t>>(false, 0);
  {
    ProgressGuard guard(needs_context_lock(), main_context(),
                        process_.machine().params().context_lock_cost);
    main_context().rmw(service_endpoint(word.rank), checked_word(word),
                       pami::RmwOp::kSwap, value, 0,
                       [box](std::int64_t old) {
                         box->second = old;
                         box->first = true;
                       },
                       op_deadline_);
  }
  progress_until([box] { return box->first; });
  stats_.time_in_rmw += now() - t0;
  if (op_deadline_ != 0 && box->second == flow::kExpiredRmw) {
    throw_op_expired("swap", word.rank);
  }
  return box->second;
}

std::int64_t Comm::compare_swap(RemotePtr word, std::int64_t compare,
                                std::int64_t value) {
  ++stats_.rmws;
  const Time t0 = now();
  maybe_fence_before_read(word.rank, known_region_id(word.rank, word.addr, 8));
  ensure_endpoint(word.rank, service_context_index_);
  auto box = std::make_shared<std::pair<bool, std::int64_t>>(false, 0);
  {
    ProgressGuard guard(needs_context_lock(), main_context(),
                        process_.machine().params().context_lock_cost);
    main_context().rmw(service_endpoint(word.rank), checked_word(word),
                       pami::RmwOp::kCompareSwap, value, compare,
                       [box](std::int64_t old) {
                         box->second = old;
                         box->first = true;
                       },
                       op_deadline_);
  }
  progress_until([box] { return box->first; });
  stats_.time_in_rmw += now() - t0;
  if (op_deadline_ != 0 && box->second == flow::kExpiredRmw) {
    throw_op_expired("compare_swap", word.rank);
  }
  return box->second;
}

// ---------------------------------------------------------------------------
// Mutexes
// ---------------------------------------------------------------------------

MutexSet Comm::create_mutexes(int count) {
  PGASQ_CHECK(count >= 1);
  MutexSet set;
  set.count_ = count;
  set.mem_ = &malloc_collective(static_cast<std::size_t>(count) * sizeof(std::int64_t));
  return set;
}

void Comm::lock(MutexSet& set, int mutex, RankId owner) {
  PGASQ_CHECK(set.mem_ != nullptr && mutex >= 0 && mutex < set.count_);
  const RemotePtr word =
      set.mem_->at(owner, static_cast<std::size_t>(mutex) * sizeof(std::int64_t));
  using namespace literals;
  Time backoff = 1_us;
  while (compare_swap(word, 0, 1) != 0) {
    compute(backoff);
    backoff = std::min<Time>(backoff * 2, 64_us);
  }
}

void Comm::unlock(MutexSet& set, int mutex, RankId owner) {
  PGASQ_CHECK(set.mem_ != nullptr && mutex >= 0 && mutex < set.count_);
  const RemotePtr word =
      set.mem_->at(owner, static_cast<std::size_t>(mutex) * sizeof(std::int64_t));
  const std::int64_t old = swap(word, 0);
  PGASQ_CHECK(old == 1, << "unlock of mutex not held (state " << old << ")");
}

// ---------------------------------------------------------------------------
// Dispatch handlers (target side)
// ---------------------------------------------------------------------------

void Comm::on_acc_message(pami::Context& ctx, const pami::AmMessage& msg) {
  const std::byte* p = msg.header.data();
  const auto h = read_pod<AccHeader>(p);
  const auto& params = process_.machine().params();
  // An expired accumulate is shed: the arithmetic (and its daxpy-rate
  // service time) is skipped, but the ack below still flows — the
  // sender's fence accounting must see every write retire.
  if (!msg.expired) {
    process_.busy(from_ns(params.acc_apply_ns_per_byte *
                          static_cast<double>(msg.payload.size())));
    switch (h.type) {
      case AccWireType::kInt32:
        apply_acc<std::int32_t>(h.dst, msg.payload.data(), h.count, h.alpha);
        break;
      case AccWireType::kInt64:
        apply_acc<std::int64_t>(h.dst, msg.payload.data(), h.count, h.alpha);
        break;
      case AccWireType::kFloat:
        apply_acc<float>(h.dst, msg.payload.data(), h.count, h.alpha);
        break;
      case AccWireType::kDouble:
        apply_acc<double>(h.dst, msg.payload.data(), h.count, h.alpha);
        break;
      case AccWireType::kComplexDouble:
        apply_acc<std::complex<double>>(h.dst, msg.payload.data(), h.count,
                                        h.alpha);
        break;
    }
  }
  // NIC-level ack back to the writer for its fence accounting.
  auto* closure = static_cast<AckClosure*>(h.ack);
  auto& m = process_.machine();
  const int src_node = m.mapping().node_of_rank(msg.source.rank);
  const auto ack = ctx.wire_control(process_.node(), src_node, now(), "write ack");
  m.engine().schedule_at(ack.arrive, [closure] {
    closure->source->write_acked_from_wire(closure->key);
    if (closure->extra) closure->extra();
    delete closure;
  });
}

void Comm::write_acked_from_wire(const ConflictTracker::Key& key) {
  tracker_->on_write_acked(key);
  // Wake any fiber fencing on this: the ack is a zero-cost item.
  main_context().post_completion([] {}, 0);
}

void Comm::on_region_query(pami::Context& ctx, const pami::AmMessage& msg) {
  const std::byte* p = msg.header.data();
  const auto h = read_pod<RegionQueryHeader>(p);
  const auto found = process_.regions().find(h.addr, h.bytes);
  std::vector<std::byte> reply;
  append_pod(reply, RegionReplyHeader{h.box, found.value_or(pami::MemoryRegion{}),
                                      found.has_value()});
  ctx.send(msg.source, kDispatchRegionReply, std::move(reply), {}, nullptr,
           "region reply");
}

void Comm::on_region_reply(pami::Context& ctx, const pami::AmMessage& msg) {
  const std::byte* p = msg.header.data();
  const auto h = read_pod<RegionReplyHeader>(p);
  auto* cookie = static_cast<std::shared_ptr<RegionReplyBox>*>(h.box);
  (*cookie)->found = h.found;
  (*cookie)->region = h.region;
  (*cookie)->done = true;
  delete cookie;
  (void)ctx;
}

void Comm::on_strided_put(pami::Context& ctx, const pami::AmMessage& msg) {
  const std::byte* p = msg.header.data();
  const auto h = read_pod<StridedWriteHeader>(p);
  const StridedSpec spec = read_spec(p);
  const auto& params = process_.machine().params();
  const std::uint64_t total = spec.total_bytes();
  const double rate = h.is_acc ? params.acc_apply_ns_per_byte : params.pack_ns_per_byte;
  process_.busy(from_ns(rate * static_cast<double>(total)));
  // Scatter the canonical-order payload through the destination spec.
  std::uint64_t pos = 0;
  spec.for_each_chunk([&](std::uint64_t, std::uint64_t doff) {
    if (h.is_acc) {
      auto* dst = reinterpret_cast<double*>(h.dst_base + doff);
      const auto* src = reinterpret_cast<const double*>(msg.payload.data() + pos);
      for (std::uint64_t i = 0; i < spec.chunk_bytes() / sizeof(double); ++i) {
        dst[i] += h.alpha * src[i];
      }
    } else {
      std::memcpy(h.dst_base + doff, msg.payload.data() + pos, spec.chunk_bytes());
    }
    pos += spec.chunk_bytes();
  });
  auto* closure = static_cast<AckClosure*>(h.ack);
  auto& m = process_.machine();
  const int src_node = m.mapping().node_of_rank(msg.source.rank);
  const auto ack = ctx.wire_control(process_.node(), src_node, now(), "write ack");
  m.engine().schedule_at(ack.arrive, [closure] {
    closure->source->write_acked_from_wire(closure->key);
    if (closure->extra) closure->extra();
    delete closure;
  });
}

void Comm::on_strided_get_request(pami::Context& ctx, const pami::AmMessage& msg) {
  const std::byte* p = msg.header.data();
  const auto h = read_pod<StridedGetReqHeader>(p);
  const StridedSpec spec = read_spec(p);
  const auto& params = process_.machine().params();
  const std::uint64_t total = spec.total_bytes();
  // Pack at the data owner (Eq 8's remote "o" plus copy cost).
  process_.busy(from_ns(params.pack_ns_per_byte * static_cast<double>(total)));
  std::vector<std::byte> payload(total);
  std::uint64_t pos = 0;
  // The get's spec src side addresses this (remote) rank's memory.
  spec.for_each_chunk([&](std::uint64_t soff, std::uint64_t) {
    std::memcpy(payload.data() + pos, h.src_base + soff, spec.chunk_bytes());
    pos += spec.chunk_bytes();
  });
  std::vector<std::byte> reply;
  append_pod(reply, StridedGetRepHeader{h.closure});
  ctx.send(msg.source, kDispatchStridedGetRep, std::move(reply), std::move(payload),
           nullptr, "strided get reply");
}

void Comm::on_strided_get_reply(pami::Context& ctx, const pami::AmMessage& msg) {
  const std::byte* p = msg.header.data();
  const auto h = read_pod<StridedGetRepHeader>(p);
  auto* closure = static_cast<GetReplyClosure*>(h.closure);
  const auto& params = process_.machine().params();
  const std::uint64_t total = closure->spec.total_bytes();
  process_.busy(from_ns(params.pack_ns_per_byte * static_cast<double>(total)));
  std::uint64_t pos = 0;
  closure->spec.for_each_chunk([&](std::uint64_t, std::uint64_t doff) {
    std::memcpy(closure->local_base + doff, msg.payload.data() + pos,
                closure->spec.chunk_bytes());
    pos += closure->spec.chunk_bytes();
  });
  handle_complete_one(*closure->state);
  delete closure;
  (void)ctx;
}

void handle_complete_one(HandleState& s) {
  PGASQ_CHECK(s.outstanding > 0, << "handle completion underflow");
  if (--s.outstanding == 0 && s.on_zero) {
    // Single-shot: the bridge must not survive into a reuse of the
    // handle for later operations.
    auto fire = std::move(s.on_zero);
    s.on_zero = nullptr;
    fire();
  }
}

void CommStats::merge(const CommStats& o) {
  puts += o.puts;
  gets += o.gets;
  accs += o.accs;
  rmws += o.rmws;
  strided_puts += o.strided_puts;
  strided_gets += o.strided_gets;
  strided_accs += o.strided_accs;
  rdma_puts += o.rdma_puts;
  rdma_gets += o.rdma_gets;
  fallback_puts += o.fallback_puts;
  fallback_gets += o.fallback_gets;
  typed_ops += o.typed_ops;
  zero_copy_chunks += o.zero_copy_chunks;
  packed_ops += o.packed_ops;
  bytes_put += o.bytes_put;
  bytes_got += o.bytes_got;
  bytes_acc += o.bytes_acc;
  gets_revoked += o.gets_revoked;
  region_cache_hits += o.region_cache_hits;
  region_cache_misses += o.region_cache_misses;
  region_queries_sent += o.region_queries_sent;
  fence_calls += o.fence_calls;
  forced_fences += o.forced_fences;
  endpoints_created += o.endpoints_created;
  retransmits += o.retransmits;
  retransmit_backoff += o.retransmit_backoff;
  progress_stalls += o.progress_stalls;
  progress_stall_time += o.progress_stall_time;
  time_in_get += o.time_in_get;
  time_in_put += o.time_in_put;
  time_in_acc += o.time_in_acc;
  time_in_rmw += o.time_in_rmw;
  time_in_fence += o.time_in_fence;
  time_in_barrier += o.time_in_barrier;
  time_in_wait += o.time_in_wait;
  put_sizes.merge(o.put_sizes);
  get_sizes.merge(o.get_sizes);
  acc_sizes.merge(o.acc_sizes);
  coll.merge(o.coll);
  for (const auto& [label, gc] : o.group_coll) group_coll[label].merge(gc);
}

std::uint64_t CollStats::total_ops() const {
  std::uint64_t n = 0;
  for (const auto& per_op : count) {
    for (const std::uint64_t c : per_op) n += c;
  }
  return n;
}

Time CollStats::total_time() const {
  Time t = 0;
  for (const auto& per_op : time) {
    for (const Time dt : per_op) t += dt;
  }
  return t;
}

Time CollStats::data_time() const {
  Time t = 0;
  for (int op = 1; op < kOps; ++op) {  // 0 = barrier
    for (const Time dt : time[op]) t += dt;
  }
  return t;
}

void CollStats::merge(const CollStats& o) {
  for (int op = 0; op < kOps; ++op) {
    for (int a = 0; a < kAlgos; ++a) {
      count[op][a] += o.count[op][a];
      bytes[op][a] += o.bytes[op][a];
      time[op][a] += o.time[op][a];
    }
  }
  scratch_reallocs += o.scratch_reallocs;
}

}  // namespace pgasq::armci
