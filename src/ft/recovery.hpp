// Fail-stop recovery runtime: coordinated checkpoint, communicator
// shrink, and rollback for applications built on GlobalArray or any
// other Shardable state (e.g. the kvs shard tables).
//
// The protocol (classic coordinated checkpoint/restart, shrunk-world
// variant):
//
//  * Checkpoint — at a barrier-consistent point every member saves its
//    own shards into a double-buffered arena carved out of ONE
//    collective allocation made up front (all world ranks participate
//    before any death), and ships a copy to its buddy (the next member
//    cyclically) over ordinary ARMCI puts, so every shard survives any
//    single node loss. Commit metadata is invalidate-before-write:
//    both steps sit between barriers, so a death mid-checkpoint leaves
//    that buffer uncommitted on every survivor and agreement falls
//    back to the other buffer.
//
//  * Recovery — a declared death unwinds every survivor's blocked
//    operation with PeerDeadError (see ft/liveness.hpp). Each survivor
//    calls Runtime::recover(): acknowledge the epoch, quiesce stale
//    write tracking, rendezvous with the other survivors on the
//    live-aware hardware barrier, rebuild the collectives engine over
//    the survivor clique, and agree (deterministically, from lockstep
//    per-rank metadata — no messages needed) on the newest checkpoint
//    buffer whose every shard is still held by a live rank.
//
//  * Restore — the application REBUILDS its state as fresh member-mode
//    collective allocations (stale in-flight traffic from the dead
//    epoch lands in the old, freed-but-kept memory, never in the new
//    state); each survivor pushes the shards it holds (its own, plus
//    its dead predecessor's buddy copy) back via restore_shard().
//
// A rank whose own node is declared dead gets `false` from recover()
// and must simply return from the SPMD body (finalize skips the
// closing barrier for it).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/comm.hpp"
#include "ft/liveness.hpp"
#include "ga/global_array.hpp"
#include "util/config.hpp"

namespace pgasq::fault {
class Integrity;
}  // namespace pgasq::fault

namespace pgasq::ft {

/// Checkpointable application state: one shard per member rank, laid
/// out per-membership. The Runtime moves shards as opaque bytes; the
/// implementor owns the mapping between bytes and live state (and must
/// keep shard sizes within max_shard_bytes for every reachable
/// membership size, which fixes the arena layout up front).
class Shardable {
 public:
  virtual ~Shardable() = default;
  /// Largest single-member shard over any membership of size q.
  virtual std::size_t max_shard_bytes(int q) const = 0;
  /// Size of member v's shard under a membership of size q.
  virtual std::size_t shard_bytes(int q, int v) const = 0;
  /// Serializes the calling rank's own current shard into `out`
  /// (exactly shard_bytes(current q, my v) bytes).
  virtual void save_shard(std::byte* out) = 0;
  /// Pushes member `v`'s shard from a checkpoint taken under a
  /// membership of size `q_old` into the current (rebuilt) state.
  /// Called on whichever survivor holds the copy; implementations
  /// write remotely (ga::put / ARMCI) into the new distribution.
  virtual void restore_shard(int q_old, int v, const std::byte* data,
                             std::size_t bytes) = 0;
};

/// Shardable adapter for a dense rows x cols GlobalArray: the shard is
/// the member's contiguous local block under Distribution2D. The array
/// object changes across rebuilds (member-mode reallocation), so the
/// adapter is re-pointed with rebind() rather than reconstructed.
class ArrayShard final : public Shardable {
 public:
  ArrayShard(std::int64_t rows, std::int64_t cols, ga::GlobalArray* array)
      : rows_(rows), cols_(cols), array_(array) {}

  void rebind(ga::GlobalArray* array) { array_ = array; }

  std::size_t max_shard_bytes(int q) const override;
  std::size_t shard_bytes(int q, int v) const override;
  void save_shard(std::byte* out) override;
  void restore_shard(int q_old, int v, const std::byte* data,
                     std::size_t bytes) override;

 private:
  std::int64_t rows_, cols_;
  ga::GlobalArray* array_;
};

/// `ft.*` configuration (see RuntimeConfig::from_config).
struct RuntimeConfig {
  /// Checkpoint every N application iterations (at the top of
  /// iteration i > 0 with i % N == 0); <= 0 disables checkpointing
  /// (recovery then restarts from the initial state).
  int checkpoint_interval = 1;
  /// Detection knobs, forwarded into pami::MachineConfig::ft.
  LivenessConfig liveness{};

  /// Parses ft.checkpoint_interval / ft.suspect_acks /
  /// ft.heartbeat_period_us / ft.heartbeat_timeout_us.
  static RuntimeConfig from_config(const Config& cfg);
};

/// Per-rank recovery driver. Construct it (collectively, all world
/// ranks, before any scheduled death) right after the application's
/// state; it is inert (enabled() == false) when the machine has no
/// health monitor, so the fault-free path stays bit-identical.
class Runtime {
 public:
  /// Generic form: `objects` are borrowed and must outlive the
  /// Runtime; their shapes fix the checkpoint arena (sized for the
  /// worst surviving membership up front). Across a rebuild the same
  /// objects are reused — implementations re-point internal storage.
  /// (Deliberately an initializer_list: a vector<Shardable*> overload
  /// would make braced array-pointer lists ambiguous.)
  Runtime(armci::Comm& comm, RuntimeConfig config,
          std::initializer_list<Shardable*> objects);
  /// GlobalArray convenience form: wraps each array in an owned
  /// ArrayShard. Later checkpoint/restore calls pass the current array
  /// objects, which change across rebuilds.
  Runtime(armci::Comm& comm, RuntimeConfig config,
          const std::vector<ga::GlobalArray*>& arrays);

  bool enabled() const { return monitor_ != nullptr; }
  /// Current members (all world ranks until a shrink).
  const std::vector<int>& members() const { return members_; }

  /// True when iteration `iter` opens with a checkpoint.
  bool should_checkpoint(int iter) const;
  /// Coordinated checkpoint of the registered objects labelled with
  /// `iter`. Collective over members(); no-op unless
  /// should_checkpoint(iter).
  void checkpoint(int iter);
  /// Array-form convenience: rebinds the owned adapters to `arrays`
  /// (same shapes as at construction), then checkpoints.
  void checkpoint(int iter, const std::vector<ga::GlobalArray*>& arrays);

  /// Call after catching PeerDeadError. Returns false when this rank
  /// itself is the casualty (the caller must return from the SPMD
  /// body); otherwise re-synchronizes the survivors, shrinks the
  /// collectives engine, and computes the rollback point.
  bool recover();
  /// Iteration to resume from after recover(): the agreed checkpoint's
  /// label, or 0 (re-run from the initial state) when no complete
  /// checkpoint survived.
  int restart_iter() const { return restart_iter_; }
  /// Pushes the agreed checkpoint into the freshly rebuilt objects
  /// (collective over members()). No-op when restart_iter() is 0 — the
  /// caller refills initial state instead.
  void restore();
  /// Array-form convenience: rebinds the owned adapters to the rebuilt
  /// member-mode `arrays`, then restores.
  void restore(const std::vector<ga::GlobalArray*>& arrays);

  /// Buddy-readable copy path (hedged reads): remote pointer to the
  /// buddy-held checkpoint copy of member `home`'s shard of `object`
  /// in the newest committed buffer. The buddy is a DIFFERENT node
  /// than `home`, so a read of the copy travels an independent
  /// (src,dst) pair — it can overtake a retransmission stalled on the
  /// pair to `home`, which pairwise in-order delivery forbids for a
  /// same-destination re-read. The bytes are a consistent snapshot
  /// labelled shard_copy_label() (bounded staleness: one checkpoint
  /// interval). Invalid when the Runtime is inert, no checkpoint has
  /// committed under the current membership, or the buddy IS `home`
  /// (single-member cliques).
  armci::RemotePtr shard_copy(std::size_t object, armci::RankId home) const;
  /// Iteration label of the checkpoint shard_copy() reads (0 = none).
  int shard_copy_label() const;

  /// Test hook: flips one byte of this rank's own-shard copy of
  /// `object` in buffer `buf`, so digest validation deterministically
  /// rejects that buffer at the next recover().
  void poison_for_test(int buf, std::size_t object);

 private:
  /// This rank's member index (0 when not a member — dead ranks only).
  int vrank() const;
  /// Shared ctor tail: membership, arena sizing, collective alloc.
  void init_arena();
  void rebind_arrays(const std::vector<ga::GlobalArray*>& arrays);
  std::size_t own_offset(std::size_t object, int buf) const;
  std::size_t in_offset(std::size_t object, int buf) const;
  /// Arena offset of the 8-byte word holding the buddy-shipped digest
  /// of the incoming copy of `object` in buffer `buf`. The word
  /// travels as its own put — small enough to sit entirely inside the
  /// wire-protected prefix, so the digest itself can never be flipped.
  std::size_t digest_offset(std::size_t object, int buf) const;
  bool buffer_valid(int buf) const;
  /// Digest validation of buffer `buf` (integrity + ckpt_digest only):
  /// each survivor recomputes the CRC of every shard it would feed
  /// into restore() and compares against the digest stored at
  /// checkpoint time; survivors then agree via an allreduce over the
  /// shrunk clique. False when any held shard fails.
  bool validate_buffer(int buf);

  armci::Comm& comm_;
  RuntimeConfig config_;
  HealthMonitor* monitor_ = nullptr;
  /// Integrity layer when checkpoint digests are on (integrity built
  /// and integrity.ckpt_digest not disabled), else nullptr — the
  /// digest-off arena layout and checkpoint path are byte-identical to
  /// the pre-integrity runtime.
  fault::Integrity* integrity_ = nullptr;
  /// Own-shard digests, written at checkpoint time; lockstep metadata
  /// like committed_ (each rank only ever validates its own entries).
  std::vector<std::uint32_t> own_digest_[2];
  std::vector<int> members_;
  /// Checkpointed state, borrowed; arrays-form Runtimes point into
  /// owned_adapters_.
  std::vector<Shardable*> objects_;
  std::vector<std::unique_ptr<ArrayShard>> owned_adapters_;
  /// Worst-case shard bytes per object over any surviving membership.
  std::vector<std::size_t> max_shard_;
  /// The double-buffered checkpoint arena (one slab per world rank):
  /// [own b0 | own b1 | incoming b0 | incoming b1], each area holding
  /// one fixed-offset shard per object.
  armci::GlobalMem* arena_ = nullptr;
  /// Commit metadata, ordinary per-rank members: every member runs the
  /// same checkpoint/recovery sequence, so these are lockstep-identical
  /// across survivors and agreement needs no cross-rank reads.
  int committed_[2] = {0, 0};           ///< iteration label; 0 = invalid
  std::vector<int> ckpt_members_[2];    ///< membership when written
  int restart_iter_ = 0;
  int agreed_buf_ = -1;
};

}  // namespace pgasq::ft
