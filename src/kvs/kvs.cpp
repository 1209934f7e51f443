#include "kvs/kvs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "coll/coll.hpp"
#include "core/world.hpp"
#include "ft/liveness.hpp"
#include "pami/machine.hpp"
#include "sim/trace.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/time_types.hpp"

namespace pgasq::kvs {

namespace {

// Slot word offsets (see the layout comment in kvs.hpp).
constexpr std::size_t kVersionWord = 0;
constexpr std::size_t kTagWord = 1;
constexpr std::size_t kCounterWord = 2;
constexpr std::size_t kValueWord = 3;

/// SplitMix64 finalizer: the stateless mixing step of the seeding
/// generator in util/rng.hpp, used for key -> home and key -> slot
/// hashing and for the self-checking value pattern.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Word `w` of the value payload written for `stamp`: the stamp itself
/// followed by a pattern any reader can regenerate, so a get can prove
/// the snapshot it took is not torn.
std::uint64_t value_word(std::uint64_t stamp, std::size_t w) {
  return w == 0 ? stamp : mix64(stamp + w);
}

std::size_t pow2_at_least(std::uint64_t n) {
  std::size_t s = 1;
  while (s < n) s <<= 1;
  return s;
}

double zeta(std::uint64_t n, double theta) {
  double z = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) z += 1.0 / std::pow(static_cast<double>(i), theta);
  return z;
}

}  // namespace

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

KvConfig KvConfig::from_config(const Config& cfg) {
  KvConfig c;
  c.keys = cfg.get_int("kvs.keys", c.keys);
  c.zipf_theta = cfg.get_double("kvs.zipf_theta", c.zipf_theta);
  c.get_ratio = cfg.get_double("kvs.get_ratio", c.get_ratio);
  c.faa_ratio = cfg.get_double("kvs.faa_ratio", c.faa_ratio);
  c.requests = cfg.get_int("kvs.requests", c.requests);
  c.think_us = cfg.get_double("kvs.think_us", c.think_us);
  c.value_bytes = cfg.get_int("kvs.value_bytes", c.value_bytes);
  c.slots_per_rank = cfg.get_int("kvs.slots_per_rank", c.slots_per_rank);
  c.checkpoint_every = cfg.get_int("kvs.checkpoint_every", c.checkpoint_every);
  c.seed = static_cast<std::uint64_t>(
      cfg.get_int("kvs.seed", static_cast<std::int64_t>(c.seed)));
  c.conflict_free = cfg.get_bool("kvs.conflict_free", c.conflict_free);
  c.verify = cfg.get_bool("kvs.verify", c.verify);
  c.prefill = cfg.get_bool("kvs.prefill", c.prefill);
  c.arrival_rate = cfg.get_double("kvs.arrival_rate", c.arrival_rate);
  c.hedge_us = cfg.get_double("kvs.hedge_us", c.hedge_us);
  c.hedge_cancel = cfg.get_bool("kvs.hedge_cancel", c.hedge_cancel);
  c.slo_us = cfg.get_double("kvs.slo_us", c.slo_us);
  c.stall_at_us = cfg.get_double("kvs.stall_at_us", c.stall_at_us);
  c.stall_us = cfg.get_double("kvs.stall_us", c.stall_us);
  PGASQ_CHECK(c.keys >= 1, << "kvs.keys must be >= 1");
  PGASQ_CHECK(c.zipf_theta >= 0.0 && c.zipf_theta < 1.0,
              << "kvs.zipf_theta must be in [0, 1)");
  PGASQ_CHECK(c.get_ratio >= 0.0 && c.faa_ratio >= 0.0 &&
                  c.get_ratio + c.faa_ratio <= 1.0,
              << "kvs.get_ratio + kvs.faa_ratio must be in [0, 1]");
  PGASQ_CHECK(c.requests >= 0, << "kvs.requests must be >= 0");
  PGASQ_CHECK(c.think_us >= 0.0, << "kvs.think_us must be >= 0");
  PGASQ_CHECK(c.value_bytes >= 8 && c.value_bytes % 8 == 0,
              << "kvs.value_bytes must be a positive multiple of 8");
  PGASQ_CHECK(c.checkpoint_every >= 0, << "kvs.checkpoint_every must be >= 0");
  PGASQ_CHECK(c.arrival_rate >= 0.0, << "kvs.arrival_rate must be >= 0");
  PGASQ_CHECK(c.hedge_us >= 0.0, << "kvs.hedge_us must be >= 0");
  PGASQ_CHECK(c.slo_us >= 0.0, << "kvs.slo_us must be >= 0");
  PGASQ_CHECK(c.stall_at_us >= 0.0 && c.stall_us >= 0.0,
              << "kvs.stall_at_us / kvs.stall_us must be >= 0");
  PGASQ_CHECK(c.stall_us == 0.0 || c.arrival_rate > 0.0,
              << "kvs.stall_us needs the open-loop driver (kvs.arrival_rate)");
  return c;
}

// ---------------------------------------------------------------------------
// Zipfian key generator
// ---------------------------------------------------------------------------

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  PGASQ_CHECK(n >= 1, << "zipf key space must be non-empty");
  PGASQ_CHECK(theta >= 0.0 && theta < 1.0, << "zipf theta must be in [0, 1)");
  zetan_ = zeta(n, theta);
  alpha_ = 1.0 / (1.0 - theta);
  // Gray et al.'s closed-form correction; undefined (and unused — next()
  // always short-circuits) for a single-key space.
  eta_ = n > 1 ? (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
                     (1.0 - zeta(2, theta) / zetan_)
               : 0.0;
}

std::uint64_t ZipfGenerator::next(Rng& rng) const {
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto k = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return k >= n_ ? n_ - 1 : k;
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

void KvStats::merge(const KvStats& o) {
  gets += o.gets;
  puts += o.puts;
  faas += o.faas;
  get_misses += o.get_misses;
  cas_lost += o.cas_lost;
  version_retries += o.version_retries;
  probe_steps += o.probe_steps;
  torn_reads += o.torn_reads;
  replayed_ops += o.replayed_ops;
  lost_acked += o.lost_acked;
  shed_ops += o.shed_ops;
  expired_ops += o.expired_ops;
  deadline_errors += o.deadline_errors;
  hedged_gets += o.hedged_gets;
  hedge_wins += o.hedge_wins;
  hedge_stale += o.hedge_stale;
  hedge_cancels += o.hedge_cancels;
  hedge_cancel_late += o.hedge_cancel_late;
  hedge_skips += o.hedge_skips;
  retry_backoffs += o.retry_backoffs;
  get_lat.merge(o.get_lat);
  put_lat.merge(o.put_lat);
  faa_lat.merge(o.faa_lat);
}

// ---------------------------------------------------------------------------
// KvStore
// ---------------------------------------------------------------------------

KvStore::KvStore(armci::Comm& comm, const KvConfig& cfg)
    : comm_(comm), cfg_(cfg) {
  PGASQ_CHECK(cfg.value_bytes >= 8 && cfg.value_bytes % 8 == 0,
              << "kvs value_bytes must be a positive multiple of 8");
  value_words_ = static_cast<std::size_t>(cfg.value_bytes / 8);
  slot_words_ = kValueWord + value_words_;
  const int p = comm.nprocs();
  members_.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) members_[static_cast<std::size_t>(r)] = r;

  std::uint64_t want = static_cast<std::uint64_t>(cfg.slots_per_rank);
  if (cfg.slots_per_rank <= 0) {
    // Auto-size for the worst surviving membership: every scheduled
    // node death shifts its keys onto the survivors, so size each
    // table at 8x the expected keys-per-member at the smallest clique
    // (load factor <= 1/8 keeps probe chains short).
    int q_min = p;
    if (const ft::HealthMonitor* mon = comm.ft_monitor()) {
      const int lost = static_cast<int>(mon->scheduled_deaths()) *
                       mon->mapping().ranks_per_node();
      q_min = std::max(1, p - lost);
    }
    want = std::max<std::uint64_t>(
        16, (8 * static_cast<std::uint64_t>(cfg.keys) +
             static_cast<std::uint64_t>(q_min) - 1) /
                static_cast<std::uint64_t>(q_min));
  }
  slots_ = pow2_at_least(want);
  slot_buf_.assign(slot_words_, 0);
  image_buf_.assign(slot_words_, 0);
  hedge_pool_.resize(8);
  for (HedgeSlot& s : hedge_pool_) s.buf.assign(slot_words_, 0);
  flow_ = comm.world().machine().flow();
  timeline_ = comm.world().machine().sinks().timeline;
  tl_hedge_inflight_ = timeline_->series("kvs.hedge_inflight", obs::Timeline::Kind::kGauge);
  tl_probe_ = obs::KeyedSeries(*timeline_, static_cast<std::size_t>(p));
  mem_ = &comm.malloc_collective(table_bytes());
}

void KvStore::sample_probe(armci::RankId home, std::size_t step) {
  const std::uint32_t id =
      tl_probe_.get(*timeline_, static_cast<std::size_t>(home), obs::Timeline::Kind::kGauge,
                    [home] { return "kvs.probe_len.s" + std::to_string(home); });
  timeline_->sample(id, comm_.now(), static_cast<double>(step));
}

KvStore::~KvStore() {
  for (HedgeSlot& s : hedge_pool_) {
    if (!s.h.used() || s.h.done()) continue;
    try {
      comm_.wait(s.h);
    } catch (...) {
      // Teardown after an abort: the straggler's peer may be dead and
      // its reply lost. The landing buffer dies with us either way.
    }
  }
}

void KvStore::rebuild(const std::vector<int>& members) {
  members_ = members;
  // Hedge stragglers from the dead epoch may never complete; abandon
  // them. The landing buffers are stable members, so a late stale
  // write is harmless (the next read overwrites it before any parse).
  for (HedgeSlot& s : hedge_pool_) s.h = armci::Handle{};
  // Fresh member-mode allocation; the old slabs are deliberately left
  // in place so stale in-flight traffic from the dead epoch lands in
  // memory the new table never reads.
  mem_ = &comm_.malloc_collective(table_bytes());
}

armci::RankId KvStore::home_of(std::int64_t key) const {
  return members_[static_cast<std::size_t>(
      mix64(static_cast<std::uint64_t>(key)) % members_.size())];
}

void KvStore::arm_budget(bool on) {
  if (on && flow_ != nullptr && flow_->config().retry_budget > 0) {
    budget_.emplace(flow_->config(), comm_.rank(), ++op_seq_);
  } else {
    budget_.reset();
  }
}

void KvStore::retry_backoff(const char* what, armci::RankId home, KvStats& st) {
  if (!budget_.has_value()) return;  // historical immediate re-poll
  if (!budget_->allow()) {
    ++flow_->stats().retry_budget_exhausted;
    std::ostringstream os;
    os << "flow: " << what << " on rank " << comm_.rank() << " against rank "
       << home << " exhausted its retry budget of "
       << flow_->config().retry_budget << " jittered backoffs";
    throw flow::DeadlineError(what, comm_.rank(), home,
                              static_cast<int>(budget_->used()), os.str());
  }
  ++st.retry_backoffs;
  comm_.compute(budget_->next_backoff());
}

KvStore::HedgeSlot* KvStore::try_hedge_slot(const HedgeSlot* avoid) {
  for (HedgeSlot& s : hedge_pool_) {
    if (&s == avoid) continue;
    if (!s.h.used() || s.h.done()) {
      s.h = armci::Handle{};
      return &s;
    }
  }
  // Pool exhausted: every slot holds a race-losing straggler still in
  // flight. Blocking on one would hand the straggler's tail latency to
  // an innocent request — the caller degrades to an unhedged read
  // instead (st.hedge_skips), which is also the natural throttle when
  // a slow path is saturated: rescuing reads faster than the slow
  // replica drains only piles the backlog higher.
  return nullptr;
}

const std::uint64_t* KvStore::read_slot(armci::RankId home, std::size_t off,
                                        KvStats& st) {
  HedgeSlot* const primary =
      cfg_.hedge_us <= 0.0 || hedge_paused_ ? nullptr : try_hedge_slot();
  if (primary == nullptr) {
    if (cfg_.hedge_us > 0.0 && !hedge_paused_) ++st.hedge_skips;
    comm_.get(mem_->at(home, off), slot_buf_.data(), slot_words_ * 8);
    return slot_buf_.data();
  }
  HedgeSlot& first = *primary;
  if (cfg_.hedge_cancel) {
    // Revocable primary: issued through the deferred-injection path so
    // a buddy win can try to cancel it before its wire leg.
    first.dg = comm_.nb_get_deferred(mem_->at(home, off), first.buf.data(),
                                     slot_words_ * 8);
    first.h = first.dg->handle;
  } else {
    comm_.nb_get(mem_->at(home, off), first.buf.data(), slot_words_ * 8,
                 first.h);
  }
  if (comm_.wait_until(first.h, comm_.now() + from_us(cfg_.hedge_us))) {
    return first.buf.data();
  }
  // Slow primary. A second read of `home` could never win: pairwise
  // in-order delivery queues it behind the very retransmission that is
  // holding the first read up. The hedge instead races the BUDDY's
  // checkpoint copy of the shard — an independent (src,dst) pair with
  // its own delivery floor. First response wins; the loser stays in
  // flight into its own pool slot and resolves in the background, so a
  // win is real latency, not deferred waiting.
  const armci::RemotePtr copy =
      rt_ != nullptr ? rt_->shard_copy(0, home) : armci::RemotePtr{};
  if (!copy.valid()) {  // no committed checkpoint (or inert runtime)
    comm_.wait(first.h);
    return first.buf.data();
  }
  HedgeSlot* const backup = try_hedge_slot(&first);
  if (backup == nullptr) {  // pool full of stragglers: don't add one
    ++st.hedge_skips;
    comm_.wait(first.h);
    return first.buf.data();
  }
  ++st.hedged_gets;
  HedgeSlot& second = *backup;
  comm_.nb_get(copy.offset(static_cast<std::ptrdiff_t>(off)),
               second.buf.data(), slot_words_ * 8, second.h);
  double inflight = 0.0;
  for (const HedgeSlot& s : hedge_pool_) {
    if (s.h.used() && !s.h.done()) inflight += 1.0;
  }
  timeline_->sample(tl_hedge_inflight_, comm_.now(), inflight);
  if (comm_.wait_any(first.h, second.h)) {
    return first.buf.data();
  }
  // A buddy win is bounded-staleness data: use it only when the copy
  // held a STABLE, NON-EMPTY image of this slot. A slot's tag is
  // written once and never changes (no deletion), so a stable
  // other-key image steps the caller's probe chain exactly as the
  // live slot would; a stable same-key image is a hit at most one
  // checkpoint old. Anything else (empty, mid-insert) falls back to
  // the primary: the slot may have been claimed since the snapshot,
  // so misses stay strongly fresh.
  if (second.buf[kVersionWord] >= 2 && (second.buf[kVersionWord] & 1) == 0 &&
      second.buf[kTagWord] != 0) {
    ++st.hedge_wins;
    if (cfg_.hedge_cancel && first.dg != nullptr) {
      // Revoke the straggler primary. Before its wire leg this cancels
      // outright (the pool slot frees immediately); after, the op is
      // merely abandoned and drains in the background as it always
      // did — the honest accounting docs/overload.md warns about.
      if (comm_.revoke_get(first.dg)) {
        ++st.hedge_cancels;
      } else {
        ++st.hedge_cancel_late;
      }
      first.dg.reset();
    }
    return second.buf.data();
  }
  ++st.hedge_stale;
  comm_.wait(first.h);
  return first.buf.data();
}

bool KvStore::find_slot(armci::RankId home, std::int64_t key, std::size_t* idx,
                        KvStats& st) {
  const std::uint64_t want = static_cast<std::uint64_t>(key) + 1;
  const std::size_t mask = slots_ - 1;
  const std::size_t start =
      static_cast<std::size_t>(mix64(mix64(static_cast<std::uint64_t>(key)) + 1)) & mask;
  std::uint64_t* hdr = hdr_buf_;  // member buffer: survives abort unwinds
  for (std::size_t step = 0; step < slots_;) {
    const std::size_t i = (start + step) & mask;
    comm_.get(mem_->at(home, slot_off(i)), hdr, 2 * 8);
    if (hdr[kTagWord] == want) {
      st.probe_steps += step;
      sample_probe(home, step);
      *idx = i;
      return true;
    }
    if (hdr[kVersionWord] == 0 && hdr[kTagWord] == 0) {
      st.probe_steps += step;
      sample_probe(home, step);
      *idx = i;
      return false;
    }
    if (hdr[kTagWord] == 0) {
      // Mid-claim by another client (version 1, tag not yet visible):
      // re-read until the tag lands and tells us whose slot this is.
      ++st.version_retries;
      comm_.progress();
      retry_backoff("kv probe", home, st);
      continue;
    }
    ++step;  // another key's slot
  }
  PGASQ_CHECK(false, << "kvs: shard table overflow on rank " << home << " ("
                     << slots_ << " slots); raise kvs.slots_per_rank");
  return false;
}

std::size_t KvStore::publish_slot(armci::RankId home, std::int64_t key,
                                  const std::uint64_t* image, bool* inserted,
                                  KvStats& st) {
  for (;;) {
    std::size_t idx = 0;
    if (find_slot(home, key, &idx, st)) {
      *inserted = false;
      return idx;
    }
    const armci::RemotePtr vptr = mem_->at(home, slot_off(idx));
    if (comm_.compare_swap(vptr, 0, 1) != 0) {
      // Another client claimed this slot first (same or different
      // key); re-probe from scratch.
      ++st.cas_lost;
      retry_backoff("kv insert", home, st);
      continue;
    }
    // The slot is ours: land tag/counter/value, then publish the final
    // (even) version so readers never see a partial image as stable.
    comm_.put(image + 1, mem_->at(home, slot_off(idx) + 8),
              (slot_words_ - 1) * 8);
    comm_.fence(home);
    comm_.put(image, vptr, 8);
    comm_.fence(home);
    *inserted = true;
    return idx;
  }
}

bool KvStore::get(std::int64_t key, std::uint64_t* version,
                  std::uint64_t* stamp, KvStats& st) {
  arm_budget(true);
  const armci::RankId home = home_of(key);
  const std::uint64_t want = static_cast<std::uint64_t>(key) + 1;
  const std::size_t mask = slots_ - 1;
  const std::size_t start =
      static_cast<std::size_t>(mix64(mix64(static_cast<std::uint64_t>(key)) + 1)) & mask;
  for (std::size_t step = 0; step < slots_;) {
    const std::size_t i = (start + step) & mask;
    // Member landing buffers: survive abort unwinds (see read_slot).
    const std::uint64_t* slot = read_slot(home, slot_off(i), st);
    if (slot[kTagWord] == want) {
      if (slot[kVersionWord] & 1) {
        // Write in progress: the writer holds the version odd for the
        // whole value update, so re-read until it publishes.
        ++st.version_retries;
        comm_.progress();
        retry_backoff("kv get", home, st);
        continue;
      }
      st.probe_steps += step;
      sample_probe(home, step);
      *version = slot[kVersionWord];
      *stamp = slot[kValueWord];
      for (std::size_t w = 1; w < value_words_; ++w) {
        if (slot[kValueWord + w] != value_word(slot[kValueWord], w)) {
          ++st.torn_reads;
          break;
        }
      }
      return true;
    }
    if (slot[kVersionWord] == 0 && slot[kTagWord] == 0) {
      st.probe_steps += step;
      sample_probe(home, step);
      return false;
    }
    if (slot[kTagWord] == 0) {  // mid-claim, identity unknown yet
      ++st.version_retries;
      comm_.progress();
      retry_backoff("kv get", home, st);
      continue;
    }
    ++step;
  }
  PGASQ_CHECK(false, << "kvs: shard table overflow on rank " << home << " ("
                     << slots_ << " slots); raise kvs.slots_per_rank");
  return false;
}

std::uint64_t KvStore::put(std::int64_t key, std::uint64_t stamp, KvStats& st) {
  arm_budget(true);
  const armci::RankId home = home_of(key);
  std::vector<std::uint64_t>& image = image_buf_;
  image[kVersionWord] = 2;
  image[kTagWord] = static_cast<std::uint64_t>(key) + 1;
  image[kCounterWord] = 0;  // a fresh slot starts its faa counter at 0
  for (std::size_t w = 0; w < value_words_; ++w) {
    image[kValueWord + w] = value_word(stamp, w);
  }
  bool inserted = false;
  const std::size_t idx = publish_slot(home, key, image.data(), &inserted, st);
  if (inserted) return 2;

  // Update path: lock the version with a CAS (a lost CAS is a detected
  // race with another writer), land the value, publish version + 2.
  const armci::RemotePtr vptr = mem_->at(home, slot_off(idx));
  for (;;) {
    comm_.get(vptr, &ver_buf_, 8);  // member buffer: survives unwinds
    const std::uint64_t v = ver_buf_;
    if (v & 1) {
      ++st.version_retries;
      retry_backoff("kv put", home, st);
      continue;
    }
    if (comm_.compare_swap(vptr, static_cast<std::int64_t>(v),
                           static_cast<std::int64_t>(v + 1)) !=
        static_cast<std::int64_t>(v)) {
      ++st.cas_lost;
      retry_backoff("kv put", home, st);
      continue;
    }
    comm_.put(image.data() + kValueWord,
              mem_->at(home, slot_off(idx) + kValueWord * 8), value_words_ * 8);
    comm_.fence(home);
    const std::uint64_t nv = v + 2;
    comm_.put(&nv, vptr, 8);
    comm_.fence(home);  // remote completion of the publish is the ack
    return nv;
  }
}

std::int64_t KvStore::faa(std::int64_t key, std::int64_t delta, KvStats& st) {
  arm_budget(true);
  const armci::RankId home = home_of(key);
  // Absent keys are inserted with a zero counter and the stamp-0 value
  // pattern (so a later get still verifies), then hit the same AMO.
  std::vector<std::uint64_t>& image = image_buf_;
  image[kCounterWord] = 0;
  image[kVersionWord] = 2;
  image[kTagWord] = static_cast<std::uint64_t>(key) + 1;
  for (std::size_t w = 0; w < value_words_; ++w) {
    image[kValueWord + w] = value_word(0, w);
  }
  bool inserted = false;
  const std::size_t idx = publish_slot(home, key, image.data(), &inserted, st);
  return comm_.fetch_add(mem_->at(home, slot_off(idx) + kCounterWord * 8),
                         delta);
}

void KvStore::save_shard(std::byte* out) {
  std::memcpy(out, mem_->local(comm_.rank()), table_bytes());
}

void KvStore::restore_shard(int, int, const std::byte* data,
                            std::size_t bytes) {
  arm_budget(false);  // recovery traffic must never hit a retry budget
  PGASQ_CHECK(bytes == table_bytes(),
              << "kvs: shard size mismatch in restore (" << bytes << " vs "
              << table_bytes() << ")");
  const auto* words = reinterpret_cast<const std::uint64_t*>(data);
  KvStats scratch;  // restore traffic is not client-visible
  for (std::size_t s = 0; s < slots_; ++s) {
    const std::uint64_t* slot = words + s * slot_words_;
    if (slot[kTagWord] == 0) continue;
    PGASQ_CHECK((slot[kVersionWord] & 1) == 0 && slot[kVersionWord] >= 2,
                << "kvs: non-quiescent slot in checkpoint shard");
    const auto key = static_cast<std::int64_t>(slot[kTagWord] - 1);
    // Re-insert under the current membership, preserving the
    // checkpointed version/counter/value image bit-for-bit.
    bool inserted = false;
    publish_slot(home_of(key), key, slot, &inserted, scratch);
    PGASQ_CHECK(inserted, << "kvs: duplicate key " << key
                          << " while restoring checkpoint shards");
  }
}

std::uint64_t KvStore::local_counter_sum() const {
  const auto* words =
      reinterpret_cast<const std::uint64_t*>(mem_->local(comm_.rank()));
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < slots_; ++s) {
    if (words[s * slot_words_ + kTagWord] != 0) {
      sum += words[s * slot_words_ + kCounterWord];
    }
  }
  return sum;
}

std::uint64_t KvStore::local_keys() const {
  const auto* words =
      reinterpret_cast<const std::uint64_t*>(mem_->local(comm_.rank()));
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < slots_; ++s) {
    if (words[s * slot_words_ + kTagWord] != 0) ++n;
  }
  return n;
}

std::uint32_t KvStore::local_crc() const {
  return crc32c(mem_->local(comm_.rank()), table_bytes());
}

// ---------------------------------------------------------------------------
// Workload driver
// ---------------------------------------------------------------------------

KvResult run_workload(armci::World& world, const KvConfig& cfg) {
  const int p = world.num_ranks();
  PGASQ_CHECK(!cfg.conflict_free || cfg.keys >= p,
              << "kvs.conflict_free needs kvs.keys >= the rank count");

  // Overload-control context: the machine's flow controller (nullptr
  // when flow.* is unset), the enforced deadline, and the post-hoc
  // goodput SLO. Enforcement and measurement are deliberately
  // separate so an uncontrolled run's collapse is still measurable.
  flow::Controller* fc = world.machine().flow();
  const flow::FlowConfig& fcfg = world.machine().config().flow;
  // AIMD admission telemetry (obs.timeline): the limit trajectory and
  // shed decisions. Registered up front so the hot loop stores by id.
  obs::Timeline* tl = world.machine().sinks().timeline;
  const obs::Timeline::SeriesId tl_admit_limit =
      tl->series("flow.admission_limit", obs::Timeline::Kind::kGauge);
  const obs::Timeline::SeriesId tl_admit_shed =
      tl->series("flow.admission_shed", obs::Timeline::Kind::kCounter);
  // Open-loop client backlog: arrivals already due but unserved. THE
  // queue that runs away when offered load exceeds capacity with no
  // admission control; sampled per arrival across all clients.
  const obs::Timeline::SeriesId tl_backlog =
      tl->series("kvs.client_backlog", obs::Timeline::Kind::kGauge);
  const bool open_loop = cfg.arrival_rate > 0.0;
  const bool enforce = fc != nullptr && fcfg.deadline_us > 0.0;
  const Time slo = cfg.slo_us > 0.0 ? from_us(cfg.slo_us) : fcfg.deadline();

  KvResult res;
  res.per_rank.assign(static_cast<std::size_t>(p), KvStats{});
  std::vector<Time> t_start(static_cast<std::size_t>(p), 0);
  std::vector<Time> t_end(static_cast<std::size_t>(p), 0);
  std::vector<std::uint64_t> offered(static_cast<std::size_t>(p), 0);
  std::vector<std::uint64_t> good(static_cast<std::size_t>(p), 0);
  std::vector<std::vector<Time>> done_t(static_cast<std::size_t>(p));
  std::vector<std::vector<Time>> good_t(static_cast<std::size_t>(p));
  std::vector<std::uint64_t> counter_sum(static_cast<std::size_t>(p), 0);
  std::vector<std::uint32_t> crc(static_cast<std::size_t>(p), 0);
  std::vector<char> alive(static_cast<std::size_t>(p), 0);
  struct FaaRec {
    std::int64_t delta;
    int epoch;
  };
  std::vector<std::vector<FaaRec>> faa_acked(static_cast<std::size_t>(p));
  std::vector<RecoveryEvent> events;

  sim::TraceRecorder* tr = world.machine().sinks().trace;
  std::vector<std::uint32_t> tracks;
  if (tr != nullptr) {
    for (int r = 0; r < p; ++r) {
      tracks.push_back(tr->register_track("kvs/r" + std::to_string(r),
                                          !world.machine().rank_traced(r)));
    }
  }
  // One shared generator: zeta(n) is O(n), so computing it per rank
  // would dominate construction; next() is stateless.
  const ZipfGenerator zipf(static_cast<std::uint64_t>(cfg.keys),
                           cfg.zipf_theta);
  // keys/p full residue blocks keep conflict-free draws in range.
  const std::int64_t cf_blocks = std::max<std::int64_t>(1, cfg.keys / p);

  world.spmd([&](armci::Comm& comm) {
    const int me = comm.rank();
    coll::CollEngine::of(comm);
    KvStore store(comm, cfg);
    ft::RuntimeConfig rc;
    rc.checkpoint_interval = 1;  // labels are request-block indices
    ft::Runtime rt(comm, rc, {&store});
    store.set_runtime(&rt);  // buddy-readable copies back hedged gets
    const bool ft_on = rt.enabled() && cfg.checkpoint_every > 0;
    KvStats& st = res.per_rank[static_cast<std::size_t>(me)];
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL +
            static_cast<std::uint64_t>(me) + 1);

    // The replayable client-side op log: `epoch` is the label of the
    // last checkpoint this client entered before issuing the op, so an
    // op is contained in checkpoint L' exactly when epoch < L'.
    struct OpRec {
      char type;
      std::int64_t key;
      std::uint64_t stamp;
      std::int64_t delta;
      int epoch;
      std::uint64_t version;
      bool acked;
    };
    std::vector<OpRec> oplog;
    // Audit book: key -> (version, stamp) of this client's last acked
    // put. Ordered map so the audit reads in a deterministic order.
    std::map<std::int64_t, std::pair<std::uint64_t, std::uint64_t>> last_put;
    int epoch = 0;
    std::uint64_t seq = 0;

    auto replay = [&](int from_label) {
      for (OpRec& op : oplog) {
        if (!op.acked || op.epoch < from_label) continue;
        if (op.type == 'p') {
          op.version = store.put(op.key, op.stamp, st);
          last_put[op.key] = {op.version, op.stamp};
        } else if (op.type == 'f') {
          store.faa(op.key, op.delta, st);
        } else {
          continue;  // gets have no durable effect
        }
        ++st.replayed_ops;
      }
    };

    // Runs `body`, absorbing fail-stop recovery: on PeerDeadError the
    // whole recover/rebuild/restore/replay sequence runs (re-entering
    // itself if another node dies mid-recovery), then `body` is retried
    // from scratch. Returns false when this rank is the casualty.
    bool need_recovery = false;
    auto guarded = [&](auto&& body) -> bool {
      for (;;) {
        try {
          if (need_recovery) {
            bool im_alive = true;
            for (;;) {
              try {
                im_alive = rt.recover();
                break;
              } catch (const ft::PeerDeadError&) {
              }
            }
            if (!im_alive) return false;
            store.rebuild(rt.members());
            rt.restore();  // no-op on a cold restart: table stays empty
            comm.barrier();  // every shard restored before anyone reads
            if (me == rt.members().front()) {
              RecoveryEvent ev;
              ev.restart_label = rt.restart_iter();
              const ft::HealthMonitor* mon = comm.ft_monitor();
              for (int r = 0; r < p; ++r) {
                if (mon != nullptr && mon->rank_declared_dead(r)) {
                  ev.dead_ranks.push_back(r);
                }
              }
              events.push_back(ev);
            }
            replay(rt.restart_iter());
            need_recovery = false;
          }
          body();
          return true;
        } catch (const ft::PeerDeadError&) {
          need_recovery = true;
        }
      }
    };

    bool i_died = !guarded([&] { comm.barrier(); });

    // Optional prefill (kvs.prefill): populate every key before the
    // timed loop. Keys are partitioned round-robin by client so each
    // is written exactly once, and the puts go through the op log
    // (acked, current epoch) so a post-death replay restores them like
    // any other acked write.
    if (!i_died && cfg.prefill) {
      const std::size_t mark = oplog.size();
      i_died = !guarded([&] {
        oplog.resize(mark);  // a retried body starts from scratch
        for (std::int64_t key = me; key < cfg.keys; key += p) {
          oplog.push_back(OpRec{
              'p', key, (static_cast<std::uint64_t>(me + 1) << 32) | ++seq, 0,
              epoch, 0, false});
          OpRec& op = oplog.back();
          op.version = store.put(op.key, op.stamp, st);
          op.acked = true;
          last_put[op.key] = {op.version, op.stamp};
        }
        comm.barrier();  // table fully populated before anyone reads
      });
      // With no mid-run checkpoints scheduled, commit one right here
      // so buddy copies of the populated table exist from the first
      // request (hedged reads stay un-armed until a checkpoint
      // commits). Gated on checkpoint_every >= requests: interleaving
      // an extra label-1 checkpoint with the loop's own label
      // sequence would make replay-after-death ambiguous for faa ops.
      if (!i_died && ft_on && cfg.checkpoint_every >= cfg.requests) {
        i_died = !guarded([&] { rt.checkpoint(1); });
        if (!i_died) epoch = 1;
      }
    }

    // Open-loop arrival plan: seeded Poisson interarrivals drawn up
    // front from a dedicated stream (the op-mix stream stays
    // draw-for-draw identical to the closed loop), absolute times
    // anchored at this client's traffic start. Priority classes are
    // drawn alongside so shed decisions replay deterministically.
    std::vector<Time> arrivals;
    std::vector<char> lowprio;
    std::optional<flow::AdmissionController> admit;
    if (open_loop) {
      Rng arr((cfg.seed ^ 0xf10bf10bULL) * 0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(me) + 1);
      const double mean_ps = 1e12 / cfg.arrival_rate;
      const double lp_frac = fc != nullptr ? fcfg.low_prio_frac : 0.0;
      Time t = 0;
      arrivals.reserve(static_cast<std::size_t>(cfg.requests));
      lowprio.reserve(static_cast<std::size_t>(cfg.requests));
      for (std::int64_t r = 0; r < cfg.requests; ++r) {
        t += std::max<Time>(1, static_cast<Time>(arr.next_exponential(mean_ps)));
        arrivals.push_back(t);
        lowprio.push_back(lp_frac > 0.0 && arr.next_double() < lp_frac ? 1 : 0);
      }
      if (fc != nullptr && fcfg.admit) admit.emplace(fcfg);
    }

    if (!i_died) {
      t_start[static_cast<std::size_t>(me)] = comm.now();
      const Time base = comm.now();
      // Metastability trigger window (absolute), see kvs.stall_at_us.
      const Time stall_begin =
          cfg.stall_us > 0.0 ? base + from_us(cfg.stall_at_us) : 0;
      const Time stall_end =
          cfg.stall_us > 0.0 ? stall_begin + from_us(cfg.stall_us) : 0;
      for (std::int64_t r = 0; r < cfg.requests; ++r) {
        if (ft_on && r > 0 && r % cfg.checkpoint_every == 0) {
          const int label = static_cast<int>(r / cfg.checkpoint_every);
          if (!guarded([&] { rt.checkpoint(label); })) {
            i_died = true;
            break;
          }
          epoch = label;
        }
        Time arrival = 0;
        Time deadline_enf = 0;  // enforced absolute deadline (0 = none)
        if (open_loop) {
          arrival = base + arrivals[static_cast<std::size_t>(r)];
          ++offered[static_cast<std::size_t>(me)];
          // Idle (but responsive — incoming shard requests keep being
          // serviced) until the next arrival; then serve any stall
          // window it landed in. The stall is compute(), not idle: a
          // frozen service neither serves its own queue NOR its
          // peers', and the accrued backlog is the metastability seed.
          if (comm.now() < arrival) comm.idle_until(arrival);
          if (stall_end > 0 && comm.now() >= stall_begin &&
              comm.now() < stall_end) {
            comm.compute(stall_end - comm.now());
          }
          if (enforce) deadline_enf = arrival + fcfg.deadline();
          // Backlog: arrivals already due but still unserved behind
          // this one. The client is a single fiber, so this IS the
          // queue depth the AIMD limiter governs.
          int backlog = 0;
          for (std::int64_t j = r + 1;
               j < cfg.requests &&
               base + arrivals[static_cast<std::size_t>(j)] <= comm.now();
               ++j) {
            ++backlog;
          }
          tl->sample(tl_backlog, comm.now(), static_cast<double>(backlog));
          if (admit.has_value()) {
            tl->sample(tl_admit_limit, comm.now(), static_cast<double>(admit->limit()));
          }
          if (admit.has_value() && !admit->admit(backlog)) {
            // Load shedding, low-priority class first; high-priority
            // requests are dropped only under severe (2x) overrun.
            if (lowprio[static_cast<std::size_t>(r)] != 0) {
              ++fc->stats().shed_low_prio;
              ++st.shed_ops;
              tl->count(tl_admit_shed, comm.now());
              continue;
            }
            if (backlog >= 2 * admit->limit()) {
              ++fc->stats().shed_high_prio;
              ++st.shed_ops;
              tl->count(tl_admit_shed, comm.now());
              continue;
            }
          }
          // Client-side expiry: the deadline passed while queued —
          // issuing the request would only waste server capacity.
          if (deadline_enf > 0 && comm.now() > deadline_enf) {
            fc->note_client_expiry(comm.now());
            ++st.expired_ops;
            if (admit.has_value()) admit->on_overload();
            continue;
          }
        }
        // The op stream is drawn up front and recorded before the op
        // runs, so recovery retries re-run the SAME op.
        std::int64_t key = static_cast<std::int64_t>(zipf.next(rng));
        if (cfg.conflict_free) {
          // Fold into this client's residue class: every key has a
          // single writer, so fault replays reconverge bit-for-bit.
          key = (key % cf_blocks) * p + me;
        }
        const double u = rng.next_double();
        const char type = u < cfg.get_ratio                  ? 'g'
                          : u < cfg.get_ratio + cfg.faa_ratio ? 'f'
                                                              : 'p';
        OpRec rec{type, key, 0, 0, epoch, 0, false};
        if (type == 'p') {
          rec.stamp = (static_cast<std::uint64_t>(me + 1) << 32) | ++seq;
        }
        if (type == 'f') {
          rec.delta = static_cast<std::int64_t>(1 + rng.next_below(9));
        }
        oplog.push_back(rec);
        OpRec& op = oplog.back();

        Time t0 = 0;
        bool deadline_errored = false;
        const bool ok = guarded([&] {
          deadline_errored = false;
          if (!open_loop && cfg.think_us > 0.0) {
            comm.compute(from_us(cfg.think_us));
          }
          t0 = comm.now();
          if (deadline_enf > 0) comm.set_op_deadline(deadline_enf);
          try {
            if (op.type == 'g') {
              std::uint64_t v = 0, s = 0;
              if (!store.get(op.key, &v, &s, st)) ++st.get_misses;
            } else if (op.type == 'p') {
              op.version = store.put(op.key, op.stamp, st);
            } else {
              store.faa(op.key, op.delta, st);
            }
          } catch (const flow::DeadlineError&) {
            // Shed server-side (or out of retry budget): the op is NOT
            // acked and is never replayed. The protocols leave no slot
            // locked — rmw sheds happen before the CAS applies.
            deadline_errored = true;
          }
          comm.set_op_deadline(0);
        });
        if (!ok) {
          i_died = true;
          break;
        }
        if (deadline_errored) {
          ++st.deadline_errors;
          if (admit.has_value()) admit->on_overload();
          continue;
        }
        const Time t1 = comm.now();
        // Latency of the successful attempt (recovery rounds excluded;
        // they are reported separately as recoveries/rollback time).
        // Open loop measures from the scheduled arrival, so queueing
        // delay — the overload signal — is part of every sample.
        const Time lat_from = open_loop ? arrival : t0;
        const auto lat_ns =
            static_cast<std::uint64_t>((t1 - lat_from) / kNanosecond);
        op.acked = true;
        done_t[static_cast<std::size_t>(me)].push_back(t1);
        const bool in_slo = slo <= 0 || t1 - lat_from <= slo;
        if (in_slo) {
          ++good[static_cast<std::size_t>(me)];
          good_t[static_cast<std::size_t>(me)].push_back(t1);
        }
        if (admit.has_value()) {
          in_slo ? admit->on_success() : admit->on_overload();
        }
        if (op.type == 'g') {
          ++st.gets;
          st.get_lat.add(lat_ns);
        } else if (op.type == 'p') {
          ++st.puts;
          st.put_lat.add(lat_ns);
          last_put[op.key] = {op.version, op.stamp};
        } else {
          ++st.faas;
          st.faa_lat.add(lat_ns);
          faa_acked[static_cast<std::size_t>(me)].push_back(
              {op.delta, op.epoch});
        }
        if (tr != nullptr) {
          const std::uint32_t mine = tracks[static_cast<std::size_t>(me)];
          const char* nm = op.type == 'g'   ? "kv get"
                           : op.type == 'p' ? "kv put"
                                            : "kv faa";
          tr->complete(mine, nm, t0, t1 - t0);
          const std::uint64_t id = tr->next_flow_id();
          tr->flow_point('s', mine, "kv req", id, t0);
          tr->flow_point(
              'f', tracks[static_cast<std::size_t>(store.home_of(op.key))],
              "kv req", id, t1);
        }
      }
    }

    if (!i_died) {
      i_died = !guarded([&] { comm.barrier(); });  // quiesce all clients
    }
    if (!i_died) t_end[static_cast<std::size_t>(me)] = comm.now();
    if (!i_died && cfg.verify) {
      // Acked-write audit at the quiescent end state. A later put by
      // another client legitimately raises the version past ours, so
      // "lost" means: missing, version below ours, or our version
      // carrying someone else's (i.e. an older replayed) stamp.
      // Strongly fresh reads only: a bounded-staleness buddy win here
      // would misreport a post-checkpoint put as lost.
      store.pause_hedging(true);
      std::uint64_t lost = 0;
      i_died = !guarded([&] {
        lost = 0;
        for (const auto& [key, vs] : last_put) {
          std::uint64_t v = 0, s = 0;
          const bool hit = store.get(key, &v, &s, st);
          if (!hit || v < vs.first || (v == vs.first && s != vs.second)) {
            ++lost;
          }
        }
        comm.barrier();
      });
      if (!i_died) st.lost_acked = lost;
    }
    if (!i_died) {
      alive[static_cast<std::size_t>(me)] = 1;
      counter_sum[static_cast<std::size_t>(me)] = store.local_counter_sum();
      crc[static_cast<std::size_t>(me)] = store.local_crc();
    }
  });

  for (int r = 0; r < p; ++r) res.total.merge(res.per_rank[static_cast<std::size_t>(r)]);
  res.acked_ops = res.total.gets + res.total.puts + res.total.faas;
  res.torn_reads = res.total.torn_reads;
  res.lost_acked = res.total.lost_acked;
  res.events = std::move(events);
  res.recoveries = static_cast<int>(res.events.size());
  if (const ft::HealthMonitor* mon = world.machine().monitor()) {
    res.checkpoints = mon->stats().checkpoints;
  }

  Time lo = std::numeric_limits<Time>::max();
  Time hi = 0;
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (!alive[i]) continue;
    ++res.survivors;
    lo = std::min(lo, t_start[i]);
    hi = std::max(hi, t_end[i]);
    res.faa_applied += counter_sum[i];
    res.shard_crcs.push_back(crc[i]);
    res.offered_ops += offered[i];
    res.good_ops += good[i];
    res.done_times.insert(res.done_times.end(), done_t[i].begin(),
                          done_t[i].end());
    res.good_times.insert(res.good_times.end(), good_t[i].begin(),
                          good_t[i].end());
  }
  std::sort(res.done_times.begin(), res.done_times.end());
  std::sort(res.good_times.begin(), res.good_times.end());
  if (!open_loop) res.offered_ops = res.acked_ops;
  if (res.survivors > 0) {
    res.traffic_begin = lo;
    res.traffic_end = hi;
    res.elapsed_s = to_s(hi - lo);
  }
  res.mops = res.elapsed_s > 0.0
                 ? static_cast<double>(res.acked_ops) / res.elapsed_s / 1e6
                 : 0.0;
  res.goodput_mops = res.elapsed_s > 0.0
                         ? static_cast<double>(res.good_ops) / res.elapsed_s / 1e6
                         : 0.0;

  // Exactly-once expectation for the counters: a survivor's acked faas
  // all stick (rollbacks discard, replay re-applies). A dead client's
  // acked faa survives only when it sits inside every checkpoint the
  // survivors ever rolled back to after that client died — i.e. its
  // epoch is below the smallest restart label among recoveries that
  // declared the client dead (nobody replays a dead client's log).
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    int cutoff = std::numeric_limits<int>::max();
    if (!alive[i]) {
      for (const RecoveryEvent& ev : res.events) {
        if (std::find(ev.dead_ranks.begin(), ev.dead_ranks.end(), r) !=
            ev.dead_ranks.end()) {
          cutoff = std::min(cutoff, ev.restart_label);
        }
      }
    }
    for (const FaaRec& f : faa_acked[i]) {
      if (f.epoch < cutoff) {
        res.faa_expected += static_cast<std::uint64_t>(f.delta);
      }
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// Metrics export
// ---------------------------------------------------------------------------

void export_metrics(obs::Registry& reg, const KvResult& r,
                    const obs::Labels& labels) {
  reg.set_counter("kvs.acked_ops", r.acked_ops, labels);
  reg.set_gauge("kvs.throughput_mops", r.mops, labels);
  reg.set_gauge("kvs.elapsed_s", r.elapsed_s, labels);
  reg.set_counter("kvs.gets", r.total.gets, labels);
  reg.set_counter("kvs.puts", r.total.puts, labels);
  reg.set_counter("kvs.faas", r.total.faas, labels);
  reg.set_counter("kvs.get_misses", r.total.get_misses, labels);
  reg.set_counter("kvs.cas_lost", r.total.cas_lost, labels);
  reg.set_counter("kvs.version_retries", r.total.version_retries, labels);
  reg.set_counter("kvs.probe_steps", r.total.probe_steps, labels);
  reg.set_counter("kvs.torn_reads", r.torn_reads, labels);
  reg.set_counter("kvs.replayed_ops", r.total.replayed_ops, labels);
  reg.set_counter("kvs.lost_acked_writes", r.lost_acked, labels);
  reg.set_counter("kvs.faa_expected", r.faa_expected, labels);
  reg.set_counter("kvs.faa_applied", r.faa_applied, labels);
  reg.set_counter("kvs.offered_ops", r.offered_ops, labels);
  reg.set_counter("kvs.good_ops", r.good_ops, labels);
  reg.set_gauge("kvs.goodput_mops", r.goodput_mops, labels);
  reg.set_counter("kvs.shed_ops", r.total.shed_ops, labels);
  reg.set_counter("kvs.expired_ops", r.total.expired_ops, labels);
  reg.set_counter("kvs.deadline_errors", r.total.deadline_errors, labels);
  reg.set_counter("kvs.hedged_gets", r.total.hedged_gets, labels);
  reg.set_counter("kvs.hedge_wins", r.total.hedge_wins, labels);
  reg.set_counter("kvs.hedge_stale", r.total.hedge_stale, labels);
  reg.set_counter("kvs.hedge_cancels", r.total.hedge_cancels, labels);
  reg.set_counter("kvs.hedge_cancel_late", r.total.hedge_cancel_late, labels);
  reg.set_counter("kvs.hedge_skips", r.total.hedge_skips, labels);
  reg.set_counter("kvs.retry_backoffs", r.total.retry_backoffs, labels);
  reg.set_counter("kvs.survivors", static_cast<std::uint64_t>(r.survivors),
                  labels);
  reg.set_counter("kvs.recoveries", static_cast<std::uint64_t>(r.recoveries),
                  labels);
  reg.set_counter("kvs.checkpoints", r.checkpoints, labels);

  const std::pair<const char*, const util::Histogram*> ops[] = {
      {"get", &r.total.get_lat},
      {"put", &r.total.put_lat},
      {"faa", &r.total.faa_lat},
  };
  for (const auto& [name, hist] : ops) {
    if (hist->total() == 0) continue;
    obs::Labels with_op = labels;
    with_op.emplace_back("op", name);
    reg.set_gauge("kvs.lat_p50_us", static_cast<double>(hist->quantile(0.5)) / 1e3,
                  with_op);
    reg.set_gauge("kvs.lat_p99_us", static_cast<double>(hist->quantile(0.99)) / 1e3,
                  with_op);
    reg.set_gauge("kvs.lat_p999_us",
                  static_cast<double>(hist->quantile(0.999)) / 1e3, with_op);
    reg.set_gauge("kvs.lat_mean_us", hist->mean() / 1e3, with_op);
    reg.set_gauge("kvs.lat_max_us", static_cast<double>(hist->max()) / 1e3,
                  with_op);
    reg.set_histogram("kvs.latency_ns", *hist, with_op);
  }
}

}  // namespace pgasq::kvs
