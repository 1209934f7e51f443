#include "coll/slot.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "fault/integrity.hpp"
#include "pami/machine.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace pgasq::coll {

namespace {

// Slot-checksum re-fetch bound: each re-fetch rides the (corruptible)
// wire again, so with per-packet corruption probability q the chance
// of exhausting the bound is q^16 — unreachable for any sane plan. A
// payload still failing after this many fetches is a logic error.
constexpr int kMaxSlotRefetches = 16;

// A slot header under slot checksums; without them only `flag` is sent.
struct Header {
  std::uint64_t flag;
  std::uint32_t crc;  ///< crc32c of the payload
  std::uint32_t len;  ///< payload bytes
  std::int32_t src;   ///< sender's world rank
  std::int32_t pad;
  std::uint64_t addr;  ///< the payload in the sender's retained stage
};
static_assert(sizeof(Header) == 32);

// Causal-trace id of the hop of invocation `seq` into `slot` of world
// rank `recv_rank`; sender and receiver compute it independently, so
// Perfetto pairs the 's' at send time with the 'f' at receive. High-bit
// tagged to stay disjoint from TraceRecorder's sequential ids; the
// per-engine salt keeps concurrent engines apart.
std::uint64_t hop_flow_id(std::uint64_t salt, std::uint64_t seq,
                          std::size_t slot, int recv_rank) {
  return (1ULL << 63) | ((salt & 0xFFULL) << 55) | ((seq & 0x1FFFFULL) << 38) |
         ((static_cast<std::uint64_t>(slot) & 0x3FFFFULL) << 20) |
         static_cast<std::uint64_t>(recv_rank);
}

}  // namespace

int ceil_log2(int p) {
  int rounds = 0;
  while ((1 << rounds) < p) ++rounds;
  return rounds;
}

SlotArena::SlotArena(armci::Comm& comm, const std::vector<int>& members,
                     const SlotNames& names, std::uint64_t salt,
                     const std::function<std::string()>& track_name)
    : comm_(comm),
      members_(members),
      names_(names),
      salt_(static_cast<std::uint32_t>(salt)) {
  pami::Machine& machine = comm.world().machine();
  fault::Integrity* integrity = machine.integrity();
  if (integrity != nullptr && integrity->config().coll_check) {
    integrity_ = integrity;
  }
  if (sim::TraceRecorder* trace = machine.sinks().trace) {
    const std::string name = track_name();
    if (name.empty()) return;
    trace_ = trace;
    track_ = trace->register_track(name, !machine.rank_traced(comm.rank()));
  }
}

SlotArena::SlotArena(SlotArena& owner)
    : comm_(owner.comm_),
      members_(owner.members_),
      names_(owner.names_),
      integrity_(owner.integrity_),
      salt_(owner.salt_),
      pool_(&owner) {}

void SlotArena::attach(std::byte* local, std::size_t cap,
                       std::vector<std::byte*> peers) {
  local_ = local;
  cap_ = cap;
  dirty_ = 0;
  peers_ = std::move(peers);
}

armci::RemotePtr SlotArena::remote(int v, std::size_t off) const {
  const int w = members_.empty() ? v : members_[static_cast<std::size_t>(v)];
  if (mem_ != nullptr) return mem_->at(w, off);
  return {w, peers_[static_cast<std::size_t>(v)] + off};
}

std::byte* SlotArena::local(std::size_t off) const {
  return (mem_ != nullptr ? mem_->local(comm_.rank()) : local_) + off;
}

Block SlotArena::open(std::uint64_t kind, const char* op, std::size_t payload,
                      std::size_t slots) {
  const std::size_t bytes = block_bytes(payload, slots);
  PGASQ_CHECK(fits(bytes));
  const Block b{(++seq_ << 4) | kind, cursor_,
                bytes / slots, slots, op};
  const bool uniform = cursor_ == 0 || b.pitch == first_pitch_;
  first_pitch_ = uniform ? static_cast<std::uint32_t>(b.pitch) : 0;
  cursor_ += bytes;
  dirty_ = std::max(dirty_, cursor_);
  return b;
}

void SlotArena::wipe(std::size_t pitch, std::size_t bytes) {
  if (cursor_ == bytes && first_pitch_ == pitch && dirty_ == bytes) return;
  std::memset(local(0), 0, dirty_);
  dirty_ = 0;
}

void SlotArena::rewind() {
  retire_stages();
  if (cursor_ > 0) ++wraps_;
  cursor_ = 0;
}

std::byte* SlotArena::stage(std::size_t bytes, bool keep) {
  const std::size_t need = (hdr() + bytes + 7) & ~std::size_t{7};
  if (blocks_.empty() || blocks_.back().second - used_ < need) {
    std::size_t cap =
        blocks_.empty() ? std::size_t{16} * 1024 : blocks_.back().second * 2;
    while (cap < need) cap *= 2;
    if (used_ == 0 && !blocks_.empty()) {  // it retains nothing: replace it
      comm_.free_local(blocks_.back().first);
      blocks_.pop_back();
    }
    blocks_.emplace_back(static_cast<std::byte*>(comm_.malloc_local(cap)), cap);
    used_ = 0;
  }
  std::byte* p = blocks_.back().first + used_;
  if (keep) used_ += static_cast<std::uint32_t>(need);
  return p;
}

void SlotArena::retire_stages() {
  if (blocks_.size() > 1) {
    // Coalesce into one block covering everything the last cycle used,
    // so steady state bump-allocates without fresh registrations.
    std::size_t total = 0;
    for (const auto& [ptr, cap] : blocks_) total += cap;
    release_stages();
    blocks_.emplace_back(static_cast<std::byte*>(comm_.malloc_local(total)), total);
  }
  used_ = 0;
}

void SlotArena::release_stages() {
  for (const auto& [ptr, cap] : blocks_) comm_.free_local(ptr);
  blocks_.clear();
  used_ = 0;
}

void SlotArena::send(const Block& b, int to, std::size_t slot, const void* data,
                     std::size_t bytes, armci::Handle* nb) {
  PGASQ_CHECK(slot < b.slots && hdr() + bytes <= b.pitch);
  const std::size_t hdr = bytes == 0 ? 8 : this->hdr();
  std::byte* stage = pool_->stage(bytes, nb != nullptr || hdr > 8);
  if (bytes > 0) std::memcpy(stage + hdr, data, bytes);
  const Header h{b.flag, hdr > 8 ? crc32c(stage + hdr, bytes) : 0,
                 static_cast<std::uint32_t>(bytes), comm_.rank(), 0,
                 reinterpret_cast<std::uint64_t>(stage + hdr)};
  std::memcpy(stage, &h, hdr);
  const armci::RemotePtr dst = remote(to, b.base + slot * b.pitch);
  if (trace_ != nullptr) {
    trace_->flow_point('s', track_, names_.hop,
                       hop_flow_id(salt_, b.flag >> 4, slot, dst.rank), comm_.now(),
                       {{"bytes", std::to_string(bytes)},
                        {"to", "rank" + std::to_string(dst.rank)},
                        {"op", b.op}});
  }
  ++hops_;
  if (nb != nullptr) {
    comm_.nb_put(stage, dst, hdr + bytes, *nb);
  } else {
    comm_.put(stage, dst, hdr + bytes);
  }
}

const std::byte* SlotArena::wait(const Block& b, std::size_t slot,
                                 std::size_t bytes) {
  const volatile std::uint64_t* f = flag(b, slot);
  const std::uint64_t seq = b.flag >> 4;
  comm_.poll_until([f, seq] { return (*f >> 4) >= seq; }, armci::Comm::kPollSlice);
  return landed(b, slot, bytes);
}

const std::byte* SlotArena::landed(const Block& b, std::size_t slot,
                                   std::size_t bytes) {
  PGASQ_CHECK(slot < b.slots && hdr() + bytes <= b.pitch);
  std::byte* base = local(b.base + slot * b.pitch);
  const std::uint64_t got = *flag(b, slot);
  if (got != b.flag && (got >> 4) < (b.flag >> 4)) return nullptr;  // not landed
  PGASQ_CHECK(got == b.flag,
              << names_.slot << " " << slot << " of " << b.op << " #" << (b.flag >> 4)
              << " holds flag " << got << ", expected " << b.flag
              << " — ranks started different collective sequences (divergence)");
  const std::size_t hdr = this->hdr();
  if (integrity_ != nullptr && bytes > 0) {
    fault::IntegrityStats& is = integrity_->stats();
    ++is.coll_slot_checks;
    Header h;
    std::memcpy(&h, base, sizeof h);
    PGASQ_CHECK(h.len == bytes, << names_.slot << " " << slot << " header claims "
                                << h.len << " bytes, expected " << bytes);
    int refetches = 0;
    while (crc32c(base + hdr, bytes) != h.crc) {
      ++is.coll_slot_rejects;
      PGASQ_CHECK(++refetches <= kMaxSlotRefetches,
                  << names_.slot << " " << slot << " payload failed its CRC "
                  << refetches << " times (re-fetched from rank " << h.src
                  << "); giving up");
      ++is.coll_slot_refetches;
      if (trace_ != nullptr) {
        trace_->instant(track_, names_.refetch, comm_.now());
      }
      // Blocking, but bounded and rare. The re-fetch rides the wire
      // too and may itself be corrupted, so re-verify until clean.
      comm_.get({h.src, reinterpret_cast<std::byte*>(h.addr)}, base + hdr, bytes);
    }
  }
  if (trace_ != nullptr) {
    trace_->flow_point('f', track_, names_.hop_recv,
                       hop_flow_id(salt_, b.flag >> 4, slot, comm_.rank()), comm_.now(),
                       {{"bytes", std::to_string(bytes)}});
  }
  return base + hdr;
}

}  // namespace pgasq::coll
