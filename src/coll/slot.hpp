// SlotArena — the one transport every software collective runs on: a
// per-rank registered area carved into one fresh block of slots per
// op, at a cursor every rank advances identically (ops start
// collectively and in order), so no op reuses a slot of an op still in
// flight. A hop is one put of [header | payload] into a slot of the
// receiver's block, delivered atomically, so a raised flag implies a
// complete payload. The flag is (seq << 4) | kind: an older sequence
// number means "not landed yet"; anything else that does not match
// aborts as divergence. Under the integrity layer's slot checksums the
// header is [flag u64][crc32c u32 | bytes u32][src world rank i32 |
// pad][address of the sender's stage u64], and a CRC mismatch (payload
// damage: flips land past the wire-protected prefix) is repaired by
// re-fetching from that stage. When a block does not fit, the owning
// engine wraps the arena (wipe(), one fenced rendezvous, rewind()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "coll/schedule.hpp"
#include "core/comm.hpp"
#include "sim/trace.hpp"

namespace pgasq::fault {
class Integrity;
}  // namespace pgasq::fault

namespace pgasq::coll {

/// ceil(log2 p): rounds of a dissemination / recursive-doubling schedule.
int ceil_log2(int p);

/// Diagnostic and trace names of one arena's hops.
struct SlotNames {
  const char* slot;      ///< diagnostics noun, e.g. "collective slot"
  const char* hop;       ///< send flow name
  const char* hop_recv;  ///< receive flow name
  const char* refetch;   ///< re-fetch instant name
};

/// One op's block of slots: the flag its hops raise and its place.
struct Block {
  std::uint64_t flag = 0;  ///< (seq << 4) | kind
  std::size_t base = 0;    ///< arena byte offset of slot 0
  std::size_t pitch = 0;   ///< slot stride: header + payload rounded to 8
  std::size_t slots = 0;
  const char* op = "";     ///< op name for diagnostics and traces
};

class SlotArena {
 public:
  /// Slot checksums are on when the integrity layer has `coll_check`
  /// set. `members` maps positions to world ranks (empty: identity).
  /// While the machine traces, the engine's track is registered here,
  /// named by `track_name()` (muted outside trace.sample_ranks); an
  /// empty name registers none.
  SlotArena(armci::Comm& comm, const std::vector<int>& members,
            const SlotNames& names, std::uint64_t salt,
            const std::function<std::string()>& track_name);
  /// A control arena beside `owner`: the same codec and members,
  /// untraced, staging its hops in owner's pool.
  explicit SlotArena(SlotArena& owner);

  /// Header width: 8 (flag only) or 32 (slot checksums).
  std::size_t hdr() const { return integrity_ == nullptr ? 8 : 32; }
  /// The engine's trace recorder, or nullptr when it traces nothing.
  sim::TraceRecorder* trace() const { return trace_; }
  std::uint32_t track() const { return track_; }

  /// Backs the arena with a world-collective allocation (rank r's part
  /// at mem.at(r)).
  void attach(armci::GlobalMem& mem) {
    mem_ = &mem;
    cap_ = mem.bytes_per_rank();
    dirty_ = 0;
  }
  /// Backs the arena with my registered `local` area; position v's
  /// part starts at peers[v].
  void attach(std::byte* local, std::size_t cap, std::vector<std::byte*> peers);
  armci::GlobalMem* mem() const { return mem_; }
  std::size_t capacity() const { return cap_; }
  std::uint64_t wraps() const { return wraps_; }
  std::uint64_t hops() const { return hops_; }

  /// Bytes a block of `slots` slots of `payload` bytes each takes.
  std::size_t block_bytes(std::size_t payload, std::size_t slots) const {
    return (hdr() + ((payload + 7) & ~std::size_t{7})) * slots;
  }
  bool fits(std::size_t bytes) const { return cursor_ + bytes <= cap_; }
  /// Bump-allocates the next op's block (the engine wrapped first if
  /// it did not fit) under the next sequence number.
  Block open(std::uint64_t kind, const char* op, std::size_t payload,
             std::size_t slots);
  /// The wrap's local half, before its rendezvous: zeroes what cycles
  /// since the last wipe used, so no next-cycle flag word starts on
  /// stale payload — unless this cycle was exactly the next one's first
  /// block (`bytes`) in blocks of its `pitch`: then they land on flags.
  void wipe(std::size_t pitch, std::size_t bytes);
  /// The wrap's end, after its rendezvous: retires stages, rewinds.
  void rewind();

  /// Frees the stage pool's registered blocks.
  void release_stages();

  /// One hop: seals `data` into a stage and puts [header | payload]
  /// into slot `slot` of position `to`'s part of `b`, non-blocking into
  /// `nb` when given. A zero-byte hop puts its flag alone. A
  /// checksummed hop's stage is retained until retire_stages(), for
  /// re-fetches; any other stage is reused by the next hop, since the
  /// put copies the payload at injection.
  void send(const Block& b, int to, std::size_t slot, const void* data,
            std::size_t bytes, armci::Handle* nb);
  /// Payload of my slot `slot` of `b` once its message landed, else
  /// nullptr. Aborts on a flag from another op. Under slot checksums
  /// it verifies the payload CRC and re-fetches from the sender's
  /// stage until it verifies (a bounded number of times).
  const std::byte* landed(const Block& b, std::size_t slot, std::size_t bytes);
  /// landed(), after polling in Comm::poll_until until the flag's
  /// sequence number reaches b's.
  const std::byte* wait(const Block& b, std::size_t slot, std::size_t bytes);

 private:
  const volatile std::uint64_t* flag(const Block& b, std::size_t slot) const {
    return reinterpret_cast<const volatile std::uint64_t*>(
        local(b.base + slot * b.pitch));
  }
  armci::RemotePtr remote(int v, std::size_t off) const;
  std::byte* local(std::size_t off) const;
  std::byte* stage(std::size_t bytes, bool keep);
  /// Recycles every stage (at a wrap: no receiver can still re-fetch
  /// from one).
  void retire_stages();

  armci::Comm& comm_;
  const std::vector<int>& members_;
  const SlotNames& names_;
  /// Integrity layer when slot checksums are active, else nullptr.
  fault::Integrity* integrity_ = nullptr;
  sim::TraceRecorder* trace_ = nullptr;
  std::uint32_t salt_;
  std::uint32_t track_ = 0;
  /// Memory: a world-collective allocation, or a local area plus every
  /// position's published base.
  armci::GlobalMem* mem_ = nullptr;
  std::byte* local_ = nullptr;
  std::vector<std::byte*> peers_;
  std::size_t cap_ = 0;
  std::size_t cursor_ = 0;  ///< identical on all ranks
  std::size_t dirty_ = 0;   ///< bytes from 0 used since the last wipe
  std::uint64_t seq_ = 0;   ///< sequence number of the last op opened
  std::uint32_t wraps_ = 0;
  std::uint32_t hops_ = 0;
  std::uint32_t first_pitch_ = 0;  ///< pitch of every block this cycle, or 0
  /// Stage pool: registered blocks; the last one is bump-allocated.
  std::uint32_t used_ = 0;
  std::vector<std::pair<std::byte*, std::size_t>> blocks_;
  SlotArena* pool_ = this;  ///< whose stage pool hops stage in
};

/// One block's side of the schedule hop interface. Blocking when `nb`
/// is null (recv waits); else sends go non-blocking into `nb` and recv
/// returns nullptr while a hop is in flight.
class BlockHops final : public Hops {
 public:
  BlockHops(SlotArena& a, const Block& b, armci::Handle* nb = nullptr)
      : a_(a), b_(b), nb_(nb) {}
  void send(int to, std::size_t slot, const void* data, std::size_t bytes) override {
    a_.send(b_, to, slot, data, bytes, nb_);
  }
  const std::byte* recv(std::size_t slot, std::size_t bytes) override {
    return nb_ != nullptr ? a_.landed(b_, slot, bytes) : a_.wait(b_, slot, bytes);
  }

 private:
  SlotArena& a_;
  Block b_;
  armci::Handle* nb_;
};

}  // namespace pgasq::coll
