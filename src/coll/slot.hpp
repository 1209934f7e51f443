// SlotTransport — the slot-message codec both collective engines
// (CollEngine, NbcEngine) send schedule hops through. A hop is one put
// of [header | payload] into a slot of the receiver's registered
// arena, delivered atomically, so a raised flag implies a complete
// payload. The header is the 8-byte flag, or under the integrity
// layer's slot checksums [flag u64][crc32c u32 | bytes u32][src world
// rank i32 | pad][address of the sender's retained payload u64]. Flips
// land past the wire-protected prefix, which covers the header, so a
// CRC mismatch is payload damage, repaired by re-fetching from the
// sender's retained stage. Arenas, flag values and the wait
// discipline stay with the engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/comm.hpp"
#include "sim/trace.hpp"

namespace pgasq::fault {
class Integrity;
}  // namespace pgasq::fault

namespace pgasq::coll {

/// ceil(log2 p): rounds of a dissemination / recursive-doubling schedule.
int ceil_log2(int p);

/// Diagnostic and trace names of one engine's hops.
struct SlotNames {
  const char* slot;      ///< diagnostics noun, e.g. "collective slot"
  const char* hop;       ///< send flow name
  const char* hop_recv;  ///< receive flow name
  const char* refetch;   ///< re-fetch instant name
};

class SlotTransport {
 public:
  /// Slot checksums are on when the machine's integrity layer has
  /// `coll_check` set. `salt` is the engine's flow-id salt. While the
  /// machine traces, the owning engine's trace track is registered
  /// here, named by `track_name()` and muted for a rank outside
  /// trace.sample_ranks. Hop flow points and re-fetch instants land on
  /// it; the engine records its own events there too. An empty name
  /// registers no track, and then nothing is traced.
  SlotTransport(armci::Comm& comm, const SlotNames& names, std::uint64_t salt,
                const std::function<std::string()>& track_name);

  /// Header width: 8 (flag only) or 32 (slot checksums).
  std::size_t hdr() const { return integrity_ == nullptr ? 8 : 32; }
  /// The engine's trace recorder, or nullptr when it traces nothing.
  sim::TraceRecorder* trace() const { return trace_; }
  std::uint32_t track() const { return track_; }

  /// Bump-allocates a retained stage for a `bytes`-byte payload. It
  /// stays valid until retire_stages().
  std::byte* stage(std::size_t bytes);
  /// Recycles every stage. Callers guarantee no receiver can still
  /// re-fetch from one (a rendezvous quiesced the previous traffic).
  void retire_stages();
  /// Frees the pool's registered blocks.
  void release_stages();

  /// Copies the payload to stage + hdr() and writes the header for
  /// `flag`. The put length is then hdr() + bytes.
  void seal(std::byte* stage, std::uint64_t flag, const void* data,
            std::size_t bytes) const;
  /// Records the 's' flow point of a hop to world rank `to`; `op`
  /// (optional) names the operation in the event's args.
  void trace_send(int to, std::uint64_t seq, std::size_t slot,
                  std::size_t bytes, const char* op = nullptr) const;
  /// Payload of the message at `base`, whose flag the caller has
  /// matched. Under slot checksums it verifies the payload CRC and
  /// re-fetches from the sender's stage until it verifies (a bounded
  /// number of times); then records the 'f' flow point.
  const std::byte* open(std::byte* base, std::uint64_t seq, std::size_t slot,
                        std::size_t bytes);

 private:
  // Keep these 72 bytes compact: an engine's size sets where later heap
  // allocations land, and address-keyed registration (DESIGN.md §5)
  // makes virtual time depend on those addresses.
  armci::Comm& comm_;
  const SlotNames& names_;
  /// Integrity layer when slot checksums are active, else nullptr.
  fault::Integrity* integrity_ = nullptr;
  sim::TraceRecorder* trace_ = nullptr;
  std::uint32_t salt_;
  std::uint32_t track_ = 0;
  /// Stage pool: registered blocks; the last one is bump-allocated.
  std::vector<std::pair<std::byte*, std::size_t>> blocks_;
  std::size_t used_ = 0;
};

}  // namespace pgasq::coll
