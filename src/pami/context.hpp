// Simulated PAMI communication context.
//
// A context is a threading point (S III-A1): it owns an arrival queue
// of completions, active messages and rmw-service requests, and makes
// progress ONLY when some simulated thread calls advance(). That rule
// is the paper's central mechanic — RDMA (rput/rget) moves data with
// no target-side software, while everything else (AMs, the non-RDMA
// put/get fall-back, read-modify-write) sits in the target's queue
// until the target advances. The asynchronous-progress-thread design
// (S III-D) exists precisely to advance a context promptly while the
// main thread computes.
//
// Initiation costs (o_send) and progress costs (o_completion,
// o_am_dispatch, o_rmw_service) are charged as virtual busy-time on
// the calling fiber, so a fiber that initiates many operations or
// services many requests is genuinely unavailable for other work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "noc/network.hpp"
#include "pami/memregion.hpp"
#include "pami/types.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"
#include "util/time_types.hpp"

namespace pgasq::pami {

class Machine;
class Process;

/// Active-message dispatch handler, executed at the target during
/// advance(). The handler may initiate further operations on `ctx`.
using AmHandler = std::function<void(class Context& ctx, const AmMessage& msg)>;

/// Per-context progress statistics (feeds the Fig 9 / Fig 11 analyses).
struct ContextStats {
  std::uint64_t advance_calls = 0;
  std::uint64_t empty_advances = 0;
  std::uint64_t completions = 0;
  std::uint64_t ams_dispatched = 0;
  std::uint64_t rmws_serviced = 0;
  /// Sum over serviced items of (service start - arrival): how long
  /// requests sat waiting for somebody to advance.
  Time total_service_delay = 0;
  /// Fault recovery (nonzero only under an active fault plan): wire
  /// legs re-sent by this context's ack/timeout protocol, and the
  /// virtual time its operations spent waiting out those timeouts.
  std::uint64_t retransmits = 0;
  Time retransmit_backoff = 0;
};

class Context {
 public:
  Context(Process& process, int index);
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  int index() const { return index_; }
  Process& process() { return process_; }

  /// Registers the handler for a dispatch id (PAMI_Dispatch_set).
  void set_dispatch(DispatchId id, AmHandler handler);

  // --- Progress -----------------------------------------------------------

  /// Processes every queued item, charging per-item costs to the
  /// calling fiber. Returns the number of items processed (0 charges
  /// one empty-poll cost).
  std::size_t advance();

  /// Advances until `pred()` holds, blocking the calling fiber between
  /// arrivals. This is how every blocking wait in the stack is built,
  /// so a waiting thread keeps servicing incoming requests — exactly
  /// the PAMI progress rule.
  void advance_until(const std::function<bool()>& pred);

  /// Counts `n` advance() calls that found the queue empty, without
  /// charging their poll cost: the caller has accounted for that time
  /// (idle passes of a poll loop parked in sim::Engine::poll_idle).
  void count_empty_advance(std::uint64_t n = 1) {
    stats_.advance_calls += n;
    stats_.empty_advances += n;
  }

  /// True when queued items are waiting to be processed.
  bool has_work() const { return !items_.empty(); }

  /// Blocks the calling fiber until an item is (or already is) queued.
  /// Used by progress loops that poll under a lock and park unlocked.
  void wait_for_work();

  /// Per-context lock for the rho=1 shared-context configuration
  /// (S III-D). The ARMCI layer decides when to take it.
  sim::SimMutex& lock() { return *lock_; }

  const ContextStats& stats() const { return stats_; }

  // --- RDMA (one-sided; no target software involved) ----------------------

  /// RDMA put: local_mr[loff .. loff+bytes) -> remote_mr[roff ..).
  /// `on_local_done` fires (during a later advance of this context)
  /// once the source buffer is reusable. `on_remote_ack`, if given, is
  /// posted to this context (zero software cost — a NIC-level ack)
  /// once the data is globally visible at the target; ARMCI fences are
  /// built on it.
  void rput(const MemoryRegion& local_mr, std::uint64_t loff,
            const MemoryRegion& remote_mr, std::uint64_t roff,
            std::uint64_t bytes, Callback on_local_done,
            Callback on_remote_ack = nullptr);

  /// RDMA get: remote_mr[roff ..) -> local_mr[loff ..). `on_done`
  /// fires once the data has landed locally.
  void rget(const MemoryRegion& local_mr, std::uint64_t loff,
            const MemoryRegion& remote_mr, std::uint64_t roff,
            std::uint64_t bytes, Callback on_done);

  /// RDMA put of a chunk list in one typed operation (PAMI typed
  /// data-type path used for tall-skinny strided transfers, S III-C2).
  /// `what` labels the wire leg in fault/integrity errors and traces,
  /// so a retry-budget exhaustion names the failing operation.
  void rput_typed(const MemoryRegion& local_mr, const MemoryRegion& remote_mr,
                  const std::vector<TypedChunk>& chunks, Callback on_local_done,
                  Callback on_remote_ack = nullptr,
                  const char* what = "rput typed data");
  void rget_typed(const MemoryRegion& local_mr, const MemoryRegion& remote_mr,
                  const std::vector<TypedChunk>& chunks, Callback on_done,
                  const char* what = "rget typed data");

  // --- Two-sided / target-progress operations ------------------------------

  /// Active message (PAMI_Send). Header and payload are copied at
  /// initiation (buffer-reuse semantics); the target's handler runs
  /// when the target advances the addressed context. `what` names the
  /// specific operation riding the AM (accumulate, strided write, ...)
  /// in fault/integrity errors.
  /// `deadline` (absolute virtual time, 0 = none) rides the message to
  /// the target, which marks it expired-on-arrival instead of dropping
  /// it — the handler still runs (its ack keeps fences alive) but is
  /// expected to skip the real work (see AmMessage::expired).
  void send(Endpoint dest, DispatchId dispatch, std::vector<std::byte> header,
            std::vector<std::byte> payload, Callback on_local_done,
            const char* what = "active message", Time deadline = 0);

  /// Non-RDMA put (PAMI default RMA): data travels as a payload and is
  /// deposited into target memory when the target advances.
  /// `on_remote_done` (optional) fires locally once the deposit has
  /// been acknowledged.
  void put(Endpoint dest, const std::byte* local, std::byte* remote,
           std::uint64_t bytes, Callback on_local_done, Callback on_remote_done);

  /// Non-RDMA get: a request is queued at the target; when the target
  /// advances, it streams the data back (Eq 8's extra "o"). Not truly
  /// one-sided (S III-D).
  /// With a deadline and `on_expired`, a request the target dequeues
  /// past its deadline is shed server-side: the data is never staged
  /// or shipped — only a control-size notification returns, delivered
  /// to `on_expired` instead of `on_done`.
  void get(Endpoint dest, std::byte* local, const std::byte* remote,
           std::uint64_t bytes, Callback on_done, Time deadline = 0,
           Callback on_expired = nullptr);

  /// Read-modify-write on an aligned 64-bit word at the target.
  /// Serviced by target software during advance() on BG/Q; serviced by
  /// the NIC when BgqParameters::hardware_amo is set. Unordered with
  /// respect to other messages (S III-A4).
  /// With a deadline, a request serviced past it is shed before the
  /// word is touched; the reply carries flow::kExpiredRmw instead of
  /// the old value so the requester can raise its typed error.
  void rmw(Endpoint dest, std::int64_t* remote_word, RmwOp op,
           std::int64_t operand, std::int64_t compare, RmwCallback on_done,
           Time deadline = 0);

  // --- Internal delivery (called by engine events / peer contexts) --------

  /// Posts a ready item and wakes any fiber blocked in advance_until.
  void post_completion(Callback cb, Time cost);
  /// Schedules post_completion at a future virtual time.
  void post_completion_at(Time when, Callback cb, Time cost);
  void post_am(DispatchId dispatch, AmMessage msg);
  void post_rmw_service(std::int64_t* word, RmwOp op, std::int64_t operand,
                        std::int64_t compare, Endpoint reply_to,
                        RmwCallback reply_cb, std::uint64_t flow_id = 0,
                        Time deadline = 0);

  // --- Wire legs with fault recovery --------------------------------------

  /// Times one transfer (or control packet) from src to dst. Under an
  /// active fault injector this is the ack/timeout/retransmit protocol
  /// — a dropped attempt is detected by ack timeout and re-sent with
  /// capped exponential backoff; with transport verification on, a
  /// corrupted attempt is detected by the receiver's CRC pass and
  /// NACKed for an immediate retransmit. Both draw on this context's
  /// retry budget; exhausting it throws pgasq::FaultError (or
  /// pgasq::IntegrityError when the final attempt was corrupted)
  /// naming `what` and the link. Without an injector it is exactly one
  /// network call (plus CRC costs when integrity is configured). Layers above that time their own
  /// wire legs (e.g. AM-handler acks in core::Comm) must come through
  /// here rather than noc::NetworkModel so their packets share the
  /// recovery protocol.
  noc::Transfer wire_transfer(int src_node, int dst_node, std::uint64_t bytes,
                              Time at, noc::TransferOptions opts, const char* what);
  noc::Transfer wire_control(int src_node, int dst_node, Time at, const char* what);

  /// Silent-corruption landing: when the transfer came back corrupted
  /// and transport verification is off, flips the transfer's token-
  /// derived bits into the staged payload (past the protected prefix).
  /// No-op on clean transfers and under verification (which repairs
  /// the leg inside wire_transfer instead).
  void maybe_corrupt(const noc::Transfer& t, std::byte* data, std::uint64_t bytes);

 private:
  struct Item {
    enum class Kind { kCompletion, kAm, kRmwService, kGetRequest, kPutData };
    Kind kind;
    Time posted_at = 0;
    // kCompletion
    Callback callback;
    Time cost = 0;
    // kAm
    DispatchId dispatch = -1;
    AmMessage message;
    // kRmwService
    std::int64_t* word = nullptr;
    RmwOp op = RmwOp::kFetchAdd;
    std::int64_t operand = 0;
    std::int64_t compare = 0;
    Endpoint reply_to;
    RmwCallback rmw_reply;
    // kGetRequest
    std::byte* requester_buffer = nullptr;
    const std::byte* source_data = nullptr;
    std::uint64_t bytes = 0;
    // kPutData
    std::byte* deposit_to = nullptr;
    std::vector<std::byte> deposit_data;
    Callback remote_ack;  // posts back to requester when serviced
    /// Causal-trace flow id carried from initiation to service (0 =
    /// untraced); lets the service side finish the Perfetto arrow.
    std::uint64_t flow_id = 0;
    /// Absolute virtual-time deadline (0 = none): the service side
    /// sheds the item instead of processing it when dequeued late.
    Time deadline = 0;
    /// kGetRequest only: delivered instead of `callback` when the
    /// request was shed server-side (deadline expired).
    Callback on_expired;
  };

  void process_item(Item& item);
  void post(Item item);
  Machine& machine();
  /// Emits one causal-flow endpoint ('s'/'t'/'f' of flow `id`) on
  /// `rank`'s net track. No-op when tracing is off or `id` is 0, so
  /// service paths can call it unconditionally.
  void flow(char phase, RankId rank, const char* name, std::uint64_t id,
            Time at, std::uint64_t bytes = 0, int peer = -1);
  /// Starts flow `name` toward `peer`: emits its 's' point on this
  /// rank at now() and returns its id, or 0 when tracing is off.
  std::uint64_t start_flow(const char* name, std::uint64_t bytes, RankId peer);
  /// Charges busy time on the calling fiber.
  void busy(Time t);
  Time now() const;

  Process& process_;
  int index_;
  std::deque<Item> items_;
  std::unordered_map<DispatchId, AmHandler> dispatch_;
  std::unique_ptr<sim::SimMutex> lock_;
  std::unique_ptr<sim::WaitQueue> arrivals_;
  ContextStats stats_;
  /// Lifetime retransmits charged against the fault plan's retry budget.
  std::uint64_t retries_used_ = 0;
};

}  // namespace pgasq::pami
