// Software collective schedules on the torus. Every CollEngine
// function here opens its own block of the blocking arena (begin)
// sized to its exact slot needs; slot indices are allocated in the
// same deterministic order on every rank, which is what matches a
// sender's write to the receiver's wait. The resumable step functions
// the non-blocking collectives share (schedule.hpp) come first; their
// callers open the blocks.
#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "coll/coll.hpp"
#include "coll/schedule.hpp"
#include "util/error.hpp"

namespace pgasq::coll {

// ---------------------------------------------------------------------------
// Resumable step functions (schedule.hpp)
// ---------------------------------------------------------------------------

bool barrier_dissemination_step(Hops& hops, StepState& s, int p, int me) {
  for (; (1 << s.round) < p; ++s.round, s.sent = false) {
    const auto slot = static_cast<std::size_t>(s.round);
    if (!s.sent) {
      hops.send((me + (1 << s.round)) % p, slot, nullptr, 0);
      s.sent = true;
    }
    if (hops.recv(slot, 0) == nullptr) return false;
  }
  return true;
}

bool barrier_tree_step(Hops& hops, StepState& s, int p, int me) {
  const int rounds = ceil_log2(p);
  for (; s.phase == 0 && s.round < rounds; ++s.round) {
    const int mask = 1 << s.round;
    const auto slot = static_cast<std::size_t>(s.round);
    if (me & mask) {
      hops.send(me - mask, slot, nullptr, 0);  // joined my parent
      break;
    }
    if (me + mask < p && hops.recv(slot, 0) == nullptr) return false;
  }
  s.phase = 1;
  const auto release = static_cast<std::size_t>(rounds);
  if (me != 0 && hops.recv(release, 0) == nullptr) return false;
  const int limit = me == 0 ? p : (me & -me);
  for (int m = 1; m < limit; m <<= 1) {
    if (me + m < p) hops.send(me + m, release, nullptr, 0);
  }
  return true;
}

bool barrier_ring_step(Hops& hops, StepState& s, int p, int me) {
  if (s.phase == 0) {
    if (me == 0 && !s.sent) {
      hops.send(1, 0, nullptr, 0);
      s.sent = true;
    }
    if (hops.recv(0, 0) == nullptr) return false;
    if (me != 0) hops.send((me + 1) % p, 0, nullptr, 0);
    s.phase = 1;
  }
  if (me != 0 && hops.recv(1, 0) == nullptr) return false;
  if (me != p - 1) hops.send(me + 1, 1, nullptr, 0);
  return true;
}

bool bcast_binomial_step(Hops& hops, int p, int me, int root, std::size_t slot,
                         std::byte* data, std::size_t bytes) {
  const int vr = (me - root + p) % p;
  int mask = 1;
  while (mask < p && (vr & mask) == 0) mask <<= 1;
  if (vr != 0) {
    const std::byte* in = hops.recv(slot, bytes);
    if (in == nullptr) return false;
    std::memcpy(data, in, bytes);
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vr + mask < p) hops.send((vr + mask + root) % p, slot, data, bytes);
  }
  return true;
}

Fold::Fold(int p) {
  while (pof2 * 2 <= p) pof2 *= 2;
  rem = p - pof2;
}

bool Fold::pre(Hops& hops, int me, double* x, std::size_t n, int* vr) const {
  if (me >= 2 * rem) {
    *vr = me - rem;
  } else if (me % 2 == 1) {
    hops.send(me - 1, 0, x, n * 8);
    *vr = -1;
  } else {
    const auto* in = reinterpret_cast<const double*>(hops.recv(0, n * 8));
    if (in == nullptr) return false;
    for (std::size_t i = 0; i < n; ++i) x[i] += in[i];
    *vr = me / 2;
  }
  return true;
}

bool Fold::post(Hops& hops, int me, std::size_t slot, double* x,
                std::size_t n) const {
  if (me >= 2 * rem) return true;
  if (me % 2 == 0) {
    hops.send(me + 1, slot, x, n * 8);
    return true;
  }
  const std::byte* in = hops.recv(slot, n * 8);
  if (in == nullptr) return false;
  std::memcpy(x, in, n * 8);
  return true;
}

std::size_t allreduce_recdbl_slots(int p) {
  return static_cast<std::size_t>(ceil_log2(Fold(p).pof2)) + 2;
}

bool allreduce_recdbl_step(Hops& hops, StepState& s, int p, int me, double* x,
                           std::size_t n) {
  const Fold fold(p);
  const int rounds = ceil_log2(fold.pof2);
  if (s.phase == 0) {
    if (!fold.pre(hops, me, x, n, &s.vr)) return false;
    s.phase = s.vr < 0 ? 2 : 1;
  }
  for (; s.phase == 1 && s.round < rounds; ++s.round, s.sent = false) {
    const std::size_t slot = static_cast<std::size_t>(1 + s.round);
    if (!s.sent) {
      hops.send(fold.position(s.vr ^ (1 << s.round)), slot, x, n * 8);
      s.sent = true;
    }
    const auto* in = reinterpret_cast<const double*>(hops.recv(slot, n * 8));
    if (in == nullptr) return false;
    for (std::size_t i = 0; i < n; ++i) x[i] += in[i];
  }
  s.phase = 2;
  return fold.post(hops, me, static_cast<std::size_t>(1 + rounds), x, n);
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

void CollEngine::bcast_binomial(std::byte* data, std::size_t bytes, int root) {
  BlockHops hops = begin(Op::kBroadcast, bytes, 1);
  bcast_binomial_step(hops, geometry_.p, me_, root, 0, data, bytes);
}

void CollEngine::bcast_ring(std::byte* data, std::size_t bytes, int root,
                            std::size_t seg) {
  // Dimension-ordered chain tree: the root fires a chain down every
  // torus ring it sits on; each filled rank extends its own chain and
  // starts chains in all higher dimensions. Every hop is a nearest-
  // neighbour transfer, so large payloads ride the full 2 GB/s links
  // instead of the tree's long routes.
  //
  // With seg > 0 the payload is pipelined down the chains in segments
  // (slot s carries segment s): a rank forwards segment s while
  // segment s+1 is still in flight to it, so a D-deep chain costs
  // ~(D + nseg) segment times instead of D * nseg.
  const std::size_t nseg =
      (seg == 0 || seg >= bytes) ? 1 : (bytes + seg - 1) / seg;
  const std::size_t seg_bytes = nseg == 1 ? bytes : seg;
  BlockHops hops = begin(Op::kBroadcast, seg_bytes, nseg);
  const std::vector<int> mine = digits_of(me_);
  const std::vector<int> rootd = digits_of(root);
  const int dims = static_cast<int>(rings_.size());
  int k = -1;  // highest ring on which I differ from the root
  for (int d = 0; d < dims; ++d) {
    if (mine[d] != rootd[d]) k = d;
  }
  std::vector<int> children;  // chain extension first, then chain starts
  if (k >= 0) {
    const int m = rings_[k].size;
    const int next_digit = (mine[k] + 1) % m;
    if (next_digit != rootd[k]) {
      std::vector<int> child = mine;
      child[k] = next_digit;
      children.push_back(rank_of_digits(child));
    }
  }
  for (int d = k + 1; d < dims; ++d) {
    if (rings_[d].size <= 1) continue;
    std::vector<int> child = mine;
    child[d] = (mine[d] + 1) % rings_[d].size;
    children.push_back(rank_of_digits(child));
  }
  for (std::size_t s = 0; s < nseg; ++s) {
    const std::size_t off = s * seg_bytes;
    const std::size_t len = std::min(seg_bytes, bytes - off);
    if (k >= 0) std::memcpy(data + off, hops.recv(s, len), len);
    for (const int child : children) hops.send(child, s, data + off, len);
  }
}

// ---------------------------------------------------------------------------
// Reduce / allreduce
// ---------------------------------------------------------------------------

void CollEngine::reduce_binomial(double* x, std::size_t n, int root) {
  const int p = geometry_.p, me = me_;
  const int rounds = ceil_log2(p);
  BlockHops hops = begin(Op::kReduce, n * 8, static_cast<std::size_t>(rounds));
  const int vr = (me - root + p) % p;
  for (int r = 0; r < rounds; ++r) {
    const int mask = 1 << r;
    if (vr & mask) {
      hops.send(((vr - mask) + root) % p, static_cast<std::size_t>(r), x, n * 8);
      break;  // handed the partial to the parent; done
    }
    if (vr + mask < p) {
      const auto* in =
          reinterpret_cast<const double*>(hops.recv(static_cast<std::size_t>(r), n * 8));
      for (std::size_t i = 0; i < n; ++i) x[i] += in[i];
    }
  }
}

void CollEngine::allreduce_recdbl(double* x, std::size_t n) {
  BlockHops hops = begin(Op::kAllreduce, n * 8, allreduce_recdbl_slots(geometry_.p));
  StepState state;
  allreduce_recdbl_step(hops, state, geometry_.p, me_, x, n);
}

void CollEngine::allreduce_rab(double* x, std::size_t n) {
  // Rabenseifner's algorithm: recursive-halving reduce-scatter, then a
  // recursive-doubling allgather. Each rank moves ~2n doubles total
  // where recursive doubling moves n * log2(p), so it carries the
  // mid-size band — bandwidth-bound payloads that the torus-ring
  // bucket schedule cannot yet amortize (or cannot run at all). It is
  // also the flat fall-back the hierarchical leaders' group engine
  // picks up through its own selection table.
  const Fold fold(geometry_.p);
  const int pof2 = fold.pof2;
  const int rounds = ceil_log2(pof2);
  // Slots: 0 = pre-fold, 1+r = halving rounds, 1+rounds+r = doubling
  // rounds, 1+2*rounds = post-fold.
  BlockHops hops = begin(Op::kAllreduce, n * 8, 2 * static_cast<std::size_t>(rounds) + 2);

  // Chunk c spans [c*cap, (c+1)*cap) clipped to n. Both sides of every
  // exchange derive bounds from the shared capacity, so remainders
  // (and ranks whose chunks clip to empty) stay in lockstep: a
  // zero-length range is skipped identically by sender and receiver.
  const std::size_t cap = (n + static_cast<std::size_t>(pof2) - 1) /
                          static_cast<std::size_t>(pof2);
  auto chunk_lo = [&](int c) {
    return std::min(static_cast<std::size_t>(c) * cap, n);
  };

  // Non-power-of-two fold (MPICH), exactly as in recursive doubling.
  int vr = -1;
  fold.pre(hops, me_, x, n, &vr);

  if (vr >= 0) {
    // Reduce-scatter by recursive halving: the live chunk window
    // follows vr's bits from high to low, so after the last round this
    // rank owns exactly chunk vr, fully combined. Each chunk's final
    // value is produced by one rank only, so the allgathered result is
    // bitwise identical everywhere.
    int lo = 0, hi = pof2;
    for (int r = 0; r < rounds; ++r) {
      const int mask = pof2 >> (r + 1);
      const int partner = vr ^ mask;
      const int mid = lo + mask;
      const bool upper = (vr & mask) != 0;
      const int slo = upper ? lo : mid, shi = upper ? mid : hi;
      const int rlo = upper ? mid : lo, rhi = upper ? hi : mid;
      const std::size_t sa = chunk_lo(slo), sb = chunk_lo(shi);
      const std::size_t ra = chunk_lo(rlo), rb = chunk_lo(rhi);
      const std::size_t slot = static_cast<std::size_t>(1 + r);
      if (sb > sa) hops.send(fold.position(partner), slot, x + sa, (sb - sa) * 8);
      if (rb > ra) {
        const auto* in =
            reinterpret_cast<const double*>(hops.recv(slot, (rb - ra) * 8));
        for (std::size_t i = 0; i < rb - ra; ++i) x[ra + i] += in[i];
      }
      lo = rlo;
      hi = rhi;
    }
    // Allgather by recursive doubling, unwinding the halving: at step
    // r the owned window is the aligned mask-chunk block holding vr;
    // the partner holds the adjacent block.
    for (int r = 0; r < rounds; ++r) {
      const int mask = 1 << r;
      const int partner = vr ^ mask;
      const int base = vr & ~(2 * mask - 1);
      const bool upper = (vr & mask) != 0;
      const int slo = upper ? base + mask : base;
      const int rlo = upper ? base : base + mask;
      const std::size_t sa = chunk_lo(slo), sb = chunk_lo(slo + mask);
      const std::size_t ra = chunk_lo(rlo), rb = chunk_lo(rlo + mask);
      const std::size_t slot = static_cast<std::size_t>(1 + rounds + r);
      if (sb > sa) hops.send(fold.position(partner), slot, x + sa, (sb - sa) * 8);
      if (rb > ra) {
        std::memcpy(x + ra, hops.recv(slot, (rb - ra) * 8), (rb - ra) * 8);
      }
    }
  }

  fold.post(hops, me_, static_cast<std::size_t>(1 + 2 * rounds), x, n);
}

void CollEngine::allreduce_ring(double* x, std::size_t n) {
  // Bucket allreduce over the torus rings: a ring reduce-scatter per
  // dimension going "down" (each level shrinks the live segment by the
  // ring extent), then ring allgathers back "up" in reverse order.
  // Every transfer is a ±1 neighbour hop; total traffic per rank is
  // ~2n doubles regardless of p — the bandwidth-optimal schedule.
  const int dims = static_cast<int>(rings_.size());
  PGASQ_CHECK(dims > 0);

  // Uniform per-level segment capacities: every member of a ring sees
  // the same [lo, hi) segment, and chunk boundaries derive from the
  // level capacity (not the actual segment length), so sender and
  // receiver always agree on chunk extents even with remainders.
  std::vector<std::size_t> cap(static_cast<std::size_t>(dims) + 1);
  cap[0] = n;
  for (int d = 0; d < dims; ++d) {
    cap[d + 1] = (cap[d] + static_cast<std::size_t>(rings_[d].size) - 1) /
                 static_cast<std::size_t>(rings_[d].size);
  }
  std::size_t total_slots = 0;
  for (const RingDim& ring : rings_) {
    total_slots += 2 * static_cast<std::size_t>(ring.size - 1);
  }
  BlockHops hops =
      begin(Op::kAllreduce, cap[1] * 8, std::max<std::size_t>(total_slots, 1));

  std::vector<std::pair<std::size_t, std::size_t>> seg(
      static_cast<std::size_t>(dims) + 1);
  seg[0] = {0, n};
  std::size_t slot = 0;

  auto chunk = [&](int d, int k) {
    const auto [lo, hi] = seg[d];
    const std::size_t a = std::min(lo + static_cast<std::size_t>(k) * cap[d + 1], hi);
    const std::size_t b = std::min(a + cap[d + 1], hi);
    return std::pair<std::size_t, std::size_t>(a, b);
  };

  // Down: reduce-scatter within each ring. After m-1 steps member g
  // owns the fully combined chunk (g+1) mod m, which becomes the
  // segment the next (deeper) ring works on.
  for (int d = 0; d < dims; ++d) {
    const RingDim& ring = rings_[d];
    const int m = ring.size, g = ring.digit;
    for (int s = 0; s < m - 1; ++s) {
      const auto [sa, sb] = chunk(d, (g - s + m) % m);
      hops.send(ring.next, slot, x + sa, (sb - sa) * 8);
      const auto [ra, rb] = chunk(d, (g - s - 1 + m) % m);
      const auto* in = reinterpret_cast<const double*>(hops.recv(slot, (rb - ra) * 8));
      for (std::size_t i = 0; i < rb - ra; ++i) x[ra + i] += in[i];
      ++slot;
    }
    seg[d + 1] = chunk(d, (g + 1) % m);
  }

  // Up: ring allgather per dimension in reverse, reassembling each
  // level's segment from its members' owned chunks.
  for (int d = dims - 1; d >= 0; --d) {
    const RingDim& ring = rings_[d];
    const int m = ring.size, g = ring.digit;
    for (int s = 0; s < m - 1; ++s) {
      const auto [sa, sb] = chunk(d, (g + 1 - s + 2 * m) % m);
      hops.send(ring.next, slot, x + sa, (sb - sa) * 8);
      const auto [ra, rb] = chunk(d, (g - s + 2 * m) % m);
      const auto* in = reinterpret_cast<const double*>(hops.recv(slot, (rb - ra) * 8));
      std::memcpy(x + ra, in, (rb - ra) * 8);
      ++slot;
    }
  }
}

// ---------------------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------------------

void CollEngine::allgather_recdbl(const std::byte* in, std::size_t bytes,
                                  std::byte* out) {
  const int p = geometry_.p, me = me_;
  const int rounds = ceil_log2(p);
  BlockHops hops = begin(Op::kAllgather, static_cast<std::size_t>(p / 2) * bytes,
                         static_cast<std::size_t>(rounds));
  std::memcpy(out + static_cast<std::size_t>(me) * bytes, in, bytes);
  for (int r = 0; r < rounds; ++r) {
    const int partner = me ^ (1 << r);
    const std::size_t count = static_cast<std::size_t>(1) << r;
    const std::size_t base = static_cast<std::size_t>(me & ~((1 << r) - 1));
    const std::size_t pbase = static_cast<std::size_t>(partner & ~((1 << r) - 1));
    hops.send(partner, static_cast<std::size_t>(r), out + base * bytes, count * bytes);
    std::memcpy(out + pbase * bytes,
                hops.recv(static_cast<std::size_t>(r), count * bytes), count * bytes);
  }
}

void CollEngine::allgather_ring(const std::byte* in, std::size_t bytes,
                                std::byte* out) {
  // Member-block forwarding around the rank ring. Under the ABCDET
  // mapping consecutive ranks pack a node (T) before stepping to the
  // torus neighbour, so each hop is local or nearest-neighbour.
  const int p = geometry_.p, me = me_;
  BlockHops hops = begin(Op::kAllgather, bytes, static_cast<std::size_t>(p - 1));
  std::memcpy(out + static_cast<std::size_t>(me) * bytes, in, bytes);
  const int next = (me + 1) % p, prev = (me - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const int send_block = (me - s + p) % p;
    hops.send(next, static_cast<std::size_t>(s),
              out + static_cast<std::size_t>(send_block) * bytes, bytes);
    const int recv_block = (prev - s + p) % p;
    std::memcpy(out + static_cast<std::size_t>(recv_block) * bytes,
                hops.recv(static_cast<std::size_t>(s), bytes), bytes);
  }
}

void CollEngine::allgather_binomial(const std::byte* in, std::size_t bytes,
                                    std::byte* out) {
  // Gather contiguous subtree blocks up the binomial tree rooted at 0,
  // then broadcast the assembled result down the same tree. Latency-
  // optimal; total traffic is p*bytes*log(p), so the selection table
  // only picks it for small gathers.
  const int p = geometry_.p, me = me_;
  const int rounds = ceil_log2(p);
  BlockHops hops = begin(Op::kAllgather, static_cast<std::size_t>(p) * bytes,
                         static_cast<std::size_t>(rounds) + 1);
  std::memcpy(out + static_cast<std::size_t>(me) * bytes, in, bytes);
  int count = 1, mask = 1, r = 0;
  while (mask < p) {
    if (me & mask) {
      hops.send(me - mask, static_cast<std::size_t>(r),
                out + static_cast<std::size_t>(me) * bytes,
                static_cast<std::size_t>(count) * bytes);
      break;
    }
    const int src = me + mask;
    if (src < p) {
      const int scount = std::min(mask, p - src);
      std::memcpy(out + static_cast<std::size_t>(src) * bytes,
                  hops.recv(static_cast<std::size_t>(r),
                            static_cast<std::size_t>(scount) * bytes),
                  static_cast<std::size_t>(scount) * bytes);
      count += scount;
    }
    mask <<= 1;
    ++r;
  }
  // Binomial broadcast of the full buffer from rank 0, slot `rounds`.
  bcast_binomial_step(hops, p, me, 0, static_cast<std::size_t>(rounds), out,
                      static_cast<std::size_t>(p) * bytes);
}

// ---------------------------------------------------------------------------
// Alltoall
// ---------------------------------------------------------------------------

std::vector<int> CollEngine::alltoall_order(Algo algo) const {
  const int p = geometry_.p;
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(p) - 1);
  if (algo == Algo::kRecdbl) {
    // XOR-pairwise: step s pairs rank r with r^s, so at every step the
    // machine exchanges in disjoint pairs. For non-power-of-two p the
    // steps run to the next power of two and a rank sits a step out
    // when its partner would fall past p — every unordered pair {a, b}
    // still meets exactly once, at s = a^b.
    for (int s = 1; s < (1 << ceil_log2(p)); ++s) {
      if ((me_ ^ s) < p) order.push_back(me_ ^ s);
    }
    return order;
  }
  // Torus-hop order: targets sorted nearest-first, so neighbour
  // exchanges drain off the links before long-haul routes pile
  // contention onto the shared dimension-order paths. Works for any p
  // (hop distances come from the world ranks behind the positions).
  const pami::Machine& machine = comm_.world().machine();
  const topo::RankMapping& map = machine.mapping();
  const int my_node = map.node_of_rank(wrank(me_));
  std::vector<int> dist(static_cast<std::size_t>(p));
  for (int off = 1; off < p; ++off) {
    const int target = (me_ + off) % p;
    order.push_back(target);
    dist[static_cast<std::size_t>(target)] =
        machine.torus().hop_distance(my_node, map.node_of_rank(wrank(target)));
  }
  std::stable_sort(order.begin(), order.end(), [&dist](int a, int b) {
    return dist[static_cast<std::size_t>(a)] < dist[static_cast<std::size_t>(b)];
  });
  return order;
}

void CollEngine::alltoall_exchange(const std::byte* in, std::size_t bytes,
                                   std::byte* out, const std::vector<int>& order) {
  // Slot index = source position keeps matching order-independent;
  // every send goes out non-blocking, so injection overlaps across
  // targets, and the receives follow in the same order.
  const std::size_t me = static_cast<std::size_t>(me_);
  const Block b = open_block(slots_, Op::kAlltoall, op_name(Op::kAlltoall), bytes,
                             static_cast<std::size_t>(geometry_.p));
  BlockHops hops(slots_, b);
  std::memcpy(out + me * bytes, in + me * bytes, bytes);
  armci::Handle handle;
  for (const int to : order) {
    slots_.send(b, to, me, in + static_cast<std::size_t>(to) * bytes, bytes, &handle);
  }
  for (const int from : order) {
    const auto f = static_cast<std::size_t>(from);
    std::memcpy(out + f * bytes, hops.recv(f, bytes), bytes);
  }
  comm_.wait(handle);
}

}  // namespace pgasq::coll
