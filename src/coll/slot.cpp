#include "coll/slot.hpp"

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

SlotTransport::SlotTransport(armci::Comm& comm, const SlotNames& names,
                             std::uint64_t salt,
                             const std::function<std::string()>& track_name)
    : comm_(comm), names_(names), salt_(static_cast<std::uint32_t>(salt)) {
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

std::byte* SlotTransport::stage(std::size_t bytes) {
  const std::size_t need = (hdr() + bytes + 7) & ~std::size_t{7};
  if (blocks_.empty() || blocks_.back().second - used_ < need) {
    std::size_t cap =
        blocks_.empty() ? std::size_t{16} * 1024 : blocks_.back().second * 2;
    while (cap < need) cap *= 2;
    blocks_.emplace_back(static_cast<std::byte*>(comm_.malloc_local(cap)), cap);
    used_ = 0;
  }
  std::byte* p = blocks_.back().first + used_;
  used_ += need;
  return p;
}

void SlotTransport::retire_stages() {
  if (blocks_.size() > 1) {
    // Coalesce into one block covering everything the last cycle used,
    // so steady state bump-allocates without fresh registrations.
    std::size_t total = 0;
    for (const auto& [ptr, cap] : blocks_) {
      total += cap;
      comm_.free_local(ptr);
    }
    blocks_.clear();
    blocks_.emplace_back(static_cast<std::byte*>(comm_.malloc_local(total)),
                         total);
  }
  used_ = 0;
}

void SlotTransport::release_stages() {
  for (const auto& [ptr, cap] : blocks_) comm_.free_local(ptr);
  blocks_.clear();
  used_ = 0;
}

void SlotTransport::seal(std::byte* stage, std::uint64_t flag,
                         const void* data, std::size_t bytes) const {
  const std::size_t hdr = this->hdr();
  if (bytes > 0) std::memcpy(stage + hdr, data, bytes);
  std::memcpy(stage, &flag, 8);
  if (hdr == 8) return;
  const std::uint32_t crc = crc32c(stage + hdr, bytes);
  const std::uint32_t len = static_cast<std::uint32_t>(bytes);
  const std::int32_t src = comm_.rank();
  const std::int32_t pad = 0;
  const std::uint64_t addr = reinterpret_cast<std::uint64_t>(stage + hdr);
  std::memcpy(stage + 8, &crc, 4);
  std::memcpy(stage + 12, &len, 4);
  std::memcpy(stage + 16, &src, 4);
  std::memcpy(stage + 20, &pad, 4);
  std::memcpy(stage + 24, &addr, 8);
}

void SlotTransport::trace_send(int to, std::uint64_t seq, std::size_t slot,
                               std::size_t bytes, const char* op) const {
  if (trace_ == nullptr) return;
  sim::TraceArgs args{{"bytes", std::to_string(bytes)},
                      {"to", "rank" + std::to_string(to)}};
  if (op != nullptr) args.emplace_back("op", op);
  trace_->flow_point('s', track_, names_.hop, hop_flow_id(salt_, seq, slot, to),
                     comm_.now(), std::move(args));
}

const std::byte* SlotTransport::open(std::byte* base, std::uint64_t seq,
                                     std::size_t slot, std::size_t bytes) {
  const std::size_t hdr = this->hdr();
  if (integrity_ != nullptr) {
    fault::IntegrityStats& is = integrity_->stats();
    ++is.coll_slot_checks;
    std::uint32_t want = 0, len = 0;
    std::int32_t src = -1;
    std::uint64_t addr = 0;
    std::memcpy(&want, base + 8, 4);
    std::memcpy(&len, base + 12, 4);
    std::memcpy(&src, base + 16, 4);
    std::memcpy(&addr, base + 24, 8);
    PGASQ_CHECK(len == bytes, << names_.slot << " " << slot << " header claims "
                              << len << " bytes, expected " << bytes);
    int refetches = 0;
    while (crc32c(base + hdr, bytes) != want) {
      ++is.coll_slot_rejects;
      PGASQ_CHECK(++refetches <= kMaxSlotRefetches,
                  << names_.slot << " " << slot << " payload failed its CRC "
                  << refetches << " times (re-fetched from rank " << src
                  << "); giving up");
      ++is.coll_slot_refetches;
      if (trace_ != nullptr) {
        trace_->instant(track_, names_.refetch, comm_.now());
      }
      // Blocking, but bounded and rare. The re-fetch rides the wire
      // too and may itself be corrupted, so re-verify until clean.
      comm_.get({src, reinterpret_cast<std::byte*>(addr)}, base + hdr, bytes);
    }
  }
  if (trace_ != nullptr) {
    trace_->flow_point('f', track_, names_.hop_recv,
                       hop_flow_id(salt_, seq, slot, comm_.rank()), comm_.now(),
                       {{"bytes", std::to_string(bytes)}});
  }
  return base + hdr;
}

}  // namespace pgasq::coll
