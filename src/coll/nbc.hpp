// NbcEngine — non-blocking collectives (ibarrier / ibcast /
// iallreduce) for the ARMCI runtime.
//
// Unlike CollEngine's blocking schedules, which poll inside the call,
// an NbcEngine operation returns a fut::Future immediately and the
// schedule advances incrementally: each progress pass (the async
// runtime's poller hook) steps every open operation as far as its
// arrived messages allow, so schedule hops genuinely interleave with
// application puts/gets between initiation and wait — overlap, not
// wait-at-the-end blocking in disguise.
//
// Transport: a dedicated collective arena, bump-allocated into
// per-operation slot blocks at initiation. Initiations are collective
// and ordered (every rank must start the same nbc ops in the same
// order with the same shapes), so all ranks compute identical slot
// offsets with no extra wire traffic. Each message is one put of
// [header | payload]; the header's flag encodes the operation's global
// sequence number and kind, so a receiver can verify the landed
// message belongs to the op it is stepping — rank divergence aborts
// with a diagnostic instead of silently mixing payloads. When the
// arena cursor wraps, the engine drives every open op to completion,
// quiesces with the hardware barrier, and re-zeroes — rare, blocking,
// and identical on every rank.
//
// Hops travel through SlotTransport (slot.hpp), the codec CollEngine
// uses too, and ibcast / iallreduce step the very schedules the
// blocking binomial broadcast and recursive-doubling allreduce run
// (schedule.hpp), so iallreduce's result is bitwise identical to the
// blocking recdbl allreduce by construction. Only the dissemination
// ibarrier is private to this engine: the blocking barriers signal
// through monotone barrier words instead of slot messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "async/async.hpp"
#include "coll/slot.hpp"
#include "core/comm.hpp"
#include "sim/trace.hpp"

namespace pgasq::coll {

class NbcEngine {
 public:
  /// The engine attached to `comm`, created on first use. Creation —
  /// like every nbc initiation — is collective: all ranks must make
  /// their first call at the same program point (the arena allocation
  /// rendezvouses).
  static NbcEngine& of(armci::Comm& comm);

  explicit NbcEngine(armci::Comm& comm);
  ~NbcEngine();
  NbcEngine(const NbcEngine&) = delete;
  NbcEngine& operator=(const NbcEngine&) = delete;

  // --- Non-blocking collectives (collective initiation order!) -------------
  //
  // Each returns a future fulfilled when this rank's part of the
  // schedule completes (all receives consumed, all sends injected and
  // locally drained). The caller must keep the payload buffer alive
  // and untouched until then (DESIGN.md §5 applies to the whole chain
  // when the future is composed onward).

  fut::Future<fut::Unit> ibarrier();
  /// Root's buffer replicated everywhere (binomial tree).
  fut::Future<fut::Unit> ibcast(void* data, std::size_t bytes,
                                armci::RankId root);
  /// Elementwise sum, replicated bitwise identically on every rank;
  /// in-place on x[0..n). Result bitwise equal to the blocking
  /// recursive-doubling allreduce.
  fut::Future<fut::Unit> iallreduce_sum(double* x, std::size_t n);

  // --- Introspection --------------------------------------------------------

  std::size_t open_ops() const { return open_.size(); }
  std::uint64_t ops_started() const { return ops_started_; }
  std::uint64_t ops_completed() const { return ops_completed_; }
  std::uint64_t hops_sent() const { return hops_sent_; }
  std::uint64_t arena_wraps() const { return wraps_; }

 private:
  struct Op;

  /// Opens the per-op slot block: wraps/grows the arena when the
  /// cursor would overflow, then bump-allocates `slots` slots of
  /// hdr() + pad8(payload) bytes each.
  void open_slots(Op& op, std::size_t slots, std::size_t payload);
  /// Drive every open op to completion, quiesce the fabric, re-zero
  /// the arena (growing to >= `need` data bytes if necessary) and
  /// reset the cursor. Blocking and collective-identical on all ranks.
  void wrap(std::size_t need);
  void ensure_arena(std::size_t need);

  /// One [header | payload] put into slot `slot` of `to`'s block for
  /// this op; the stage is retained until the next wrap so a receiver
  /// can re-fetch a payload that failed its slot checksum.
  void send_hop(Op& op, int to, std::size_t slot, const void* data,
                std::size_t bytes);
  /// Payload of `slot` if this op's message has landed (flag matches),
  /// else nullptr. Verifies + re-fetches under slot checksums; aborts
  /// on a flag from a different op (initiation-order divergence).
  const std::byte* hop_payload(Op& op, std::size_t slot, std::size_t bytes);
  /// The schedule hop interface (schedule.hpp) over one op's hops.
  class OpHops;

  /// Steps every open op in initiation order; completed ops fulfill
  /// their futures and retire. Re-entrancy-guarded (a step may block
  /// briefly in a checksum re-fetch, whose progress re-enters here).
  void step_all();
  /// Advances one op; true when complete.
  bool step(Op& op);
  bool step_barrier(Op& op);

  fut::Future<fut::Unit> start(std::unique_ptr<Op> op);
  void finish(Op& op);
  void sample_gauge();

  armci::Comm& comm_;
  async::Runtime& rt_;
  int p_;
  int me_;

  armci::GlobalMem* arena_ = nullptr;
  std::size_t cap_ = 0;     ///< arena data bytes per rank
  std::size_t cursor_ = 0;  ///< bump cursor (identical on all ranks)
  std::uint64_t seq_ = 0;   ///< per-op sequence (collective, monotone)

  /// Slot codec, retained-stage pool and trace track. Stages retire at
  /// each wrap and are freed with the engine.
  SlotTransport slots_;

  std::deque<std::unique_ptr<Op>> open_;
  std::size_t poller_id_ = 0;
  bool stepping_ = false;

  std::uint64_t ops_started_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t hops_sent_ = 0;
  std::uint64_t wraps_ = 0;

  obs::Timeline* timeline_;
  obs::Timeline::SeriesId open_series_;
};

}  // namespace pgasq::coll
