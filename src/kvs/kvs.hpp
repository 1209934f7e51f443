// Sharded key-value service over the ARMCI runtime: the first
// latency-bound, many-small-messages workload in the tree (the paper
// evaluates only dense kernels; the ROADMAP north star asks for a
// serving-tier workload).
//
// Layout — one collective allocation carries every shard: keys hash to
// a home member, each member owns an open-addressed table of
// fixed-size slots (64-bit words):
//
//   [ version | key_tag | faa counter | value word 0 (stamp) | ... ]
//
// version 0 = empty, odd = write-locked, even >= 2 = stable; key_tag
// is key + 1 so 0 means empty; the counter lives outside the value so
// put and faa never interfere.
//
// Protocols (see docs/kvs.md):
//  * get — one contiguous armci get of the whole slot. A slot write
//    holds the version odd for its whole span, so any even-version
//    snapshot is consistent; odd versions retry.
//  * put — versioned rmw write: CAS the even version v to v+1 (a lost
//    CAS is a detected race, retried), put the value, fence, publish
//    v+2, fence. The final fence is the client-visible ack.
//  * faa — armci fetch_add on the slot's counter word (hardware AMO
//    when the machine enables it); remote completion is the ack.
//  * insert — CAS the version 0 -> 1 to claim the slot, write
//    tag+value, publish version 2.
//
// Durability — KvStore implements ft::Shardable: the whole local table
// is the shard, riding the buddy-checkpoint/shrink/rollback path of
// ft::Runtime. Clients keep replayable op logs; after a rollback to
// checkpoint label L every surviving client replays its acked ops with
// epoch >= L, so a mid-run node fail-stop loses zero writes that were
// acknowledged to a surviving client.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/comm.hpp"
#include "flow/flow.hpp"
#include "ft/recovery.hpp"
#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "util/config.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace pgasq::kvs {

/// `kvs.*` configuration (see KvConfig::from_config and docs/kvs.md).
struct KvConfig {
  std::int64_t keys = 4096;        ///< key space size
  double zipf_theta = 0.99;        ///< 0 = uniform; YCSB-style skew at 0.99
  double get_ratio = 0.8;          ///< fraction of requests that are gets
  double faa_ratio = 0.0;          ///< fraction that are faa; rest are puts
  std::int64_t requests = 64;      ///< closed-loop requests per rank
  double think_us = 0.0;           ///< client think time between requests
  std::int64_t value_bytes = 32;   ///< value payload (multiple of 8, >= 8)
  std::int64_t slots_per_rank = 0; ///< 0 = auto-size for the worst shrink
  std::int64_t checkpoint_every = 0;  ///< requests between checkpoints; 0 off
  std::uint64_t seed = 1;          ///< workload seed (keys, op mix)
  bool conflict_free = false;      ///< each key has a single writer rank
  bool verify = true;              ///< post-run acked-write audit
  /// Populate every key (round-robin by client, through the op log)
  /// before the timed loop, so read-mostly runs measure hits instead
  /// of cold misses. Off by default: the historical driver starts
  /// from an empty table.
  bool prefill = false;

  // Overload-control extensions (src/flow, docs/overload.md). All off
  // by default: with every knob at 0 the driver is the historical
  // closed loop, byte for byte.
  /// Per-rank offered load in ops/second of virtual time. 0 = closed
  /// loop; > 0 switches the driver to an open-loop Poisson arrival
  /// process (seeded, drawn up front) where latency is measured from
  /// the scheduled arrival — queueing delay included — so saturation
  /// shows up as unbounded latency, not reduced throughput.
  double arrival_rate = 0.0;
  /// Hedged gets: when a slot read has not completed after this many
  /// virtual microseconds, a backup read of the home's checkpoint copy
  /// on its BUDDY node races the primary and the first response wins.
  /// A same-destination re-read could never win — pairwise in-order
  /// delivery queues it behind the very retransmission it is trying to
  /// dodge — so hedging needs the buddy copy path (set_runtime) and
  /// silently stays un-armed without a committed checkpoint. A buddy
  /// win is accepted only for a stable slot of the right key and is a
  /// bounded-staleness read: at most one checkpoint interval old.
  /// 0 = off (the default; reads are then always strongly fresh).
  double hedge_us = 0.0;
  /// With hedge_us > 0: when the buddy copy wins the race, try to
  /// revoke the straggler primary through the deferred-injection get
  /// path (Comm::nb_get_deferred / revoke_get, the async runtime's
  /// cancellable-get primitive). A revoke that beats the wire leg
  /// cancels the op outright and frees its pool slot immediately
  /// (hedge_cancels); once injected, cancellation only marks the
  /// straggler abandoned (hedge_cancel_late) and it drains in the
  /// background exactly as without the knob — see the p999 caveat in
  /// docs/overload.md. Off by default (byte-identical runs).
  bool hedge_cancel = false;
  /// Goodput SLO in virtual microseconds: an op counts toward goodput
  /// only when it completes within this budget of its arrival.
  /// Measured post-hoc even with no flow controller (so an
  /// uncontrolled run's collapse is visible); 0 falls back to
  /// flow.deadline_us, and with both 0 every acked op is good.
  double slo_us = 0.0;
  /// Metastability trigger (open loop only): clients stop serving for
  /// stall_us starting stall_at_us after traffic begins, while
  /// arrivals keep accruing. The post-stall backlog is the retry-storm
  /// seed the flow controls must shed. 0 = no stall.
  double stall_at_us = 0.0;
  double stall_us = 0.0;

  /// Parses the kvs.* namespace.
  static KvConfig from_config(const Config& cfg);
};

/// Deterministic zipfian key generator (Gray et al.'s method, as in
/// YCSB): theta in [0, 1), theta = 0 degrades to uniform.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta);
  std::uint64_t next(Rng& rng) const;

 private:
  std::uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

/// Per-client (per-rank) statistics; histograms hold per-op latency in
/// nanoseconds of virtual time.
struct KvStats {
  std::uint64_t gets = 0, puts = 0, faas = 0;  // acked ops
  std::uint64_t get_misses = 0;
  std::uint64_t cas_lost = 0;         ///< version CAS races lost (retried)
  std::uint64_t version_retries = 0;  ///< reads that saw a locked slot
  std::uint64_t probe_steps = 0;      ///< extra probe hops past the home slot
  std::uint64_t torn_reads = 0;       ///< value-pattern mismatches (must be 0)
  std::uint64_t replayed_ops = 0;     ///< ops re-applied from the op log
  std::uint64_t lost_acked = 0;       ///< acked writes missing at audit time
  // Overload-control counters (all zero in closed-loop runs with no
  // flow controller).
  std::uint64_t shed_ops = 0;         ///< dropped by admission control
  std::uint64_t expired_ops = 0;      ///< dropped client-side, deadline passed
  std::uint64_t deadline_errors = 0;  ///< ops shed server-side (DeadlineError)
  std::uint64_t hedged_gets = 0;      ///< slot reads that armed a hedge
  std::uint64_t hedge_wins = 0;       ///< hedges whose reply came back first
  std::uint64_t hedge_stale = 0;      ///< buddy wins rejected (wrong/unstable slot)
  std::uint64_t hedge_skips = 0;      ///< reads unhedged: straggler pool full
  std::uint64_t hedge_cancels = 0;       ///< losers revoked before the wire leg
  std::uint64_t hedge_cancel_late = 0;   ///< losers already injected: abandoned
  std::uint64_t retry_backoffs = 0;   ///< jittered spin-loop backoffs taken
  util::Histogram get_lat, put_lat, faa_lat;

  void merge(const KvStats& o);
};

/// The sharded store; one instance per rank (collective construction).
class KvStore final : public ft::Shardable {
 public:
  /// Collective over all world ranks.
  KvStore(armci::Comm& comm, const KvConfig& cfg);
  /// Drains any in-flight hedge straggler so late deliveries never
  /// land in freed member buffers.
  ~KvStore() override;

  /// Collective over `members`: fresh zeroed member-mode table (the
  /// old allocation is freed-but-kept, so stale in-flight traffic from
  /// a dead epoch never lands in the new table).
  void rebuild(const std::vector<int>& members);

  /// Reads `key`. Returns false on miss; on hit fills version/stamp
  /// and verifies the value pattern (torn_reads on mismatch).
  bool get(std::int64_t key, std::uint64_t* version, std::uint64_t* stamp,
           KvStats& st);
  /// Versioned write; returns the installed (even) version. The value
  /// payload is the deterministic pattern generated from `stamp`.
  std::uint64_t put(std::int64_t key, std::uint64_t stamp, KvStats& st);
  /// Fetch-and-add on the key's counter; returns the pre-add value
  /// (inserting the key with an empty value when absent).
  std::int64_t faa(std::int64_t key, std::int64_t delta, KvStats& st);

  armci::RankId home_of(std::int64_t key) const;
  std::size_t slots() const { return slots_; }
  const std::vector<int>& members() const { return members_; }

  /// Hands the store the checkpoint runtime whose buddy copies back the
  /// hedged-read path (kvs.hedge_us). Optional: without it (or without
  /// a committed checkpoint) hedges are simply never armed.
  void set_runtime(const ft::Runtime* rt) { rt_ = rt; }
  /// Temporarily forces reads strongly fresh (audit / verification
  /// passes must not see bounded-staleness buddy data).
  void pause_hedging(bool paused) { hedge_paused_ = paused; }

  // ft::Shardable — the shard is the whole local slot table, so shard
  // size is membership-independent.
  std::size_t max_shard_bytes(int) const override { return table_bytes(); }
  std::size_t shard_bytes(int, int) const override { return table_bytes(); }
  void save_shard(std::byte* out) override;
  void restore_shard(int q_old, int v, const std::byte* data,
                     std::size_t bytes) override;

  // Local-shard introspection; call only at a quiescent point (after a
  // barrier, no in-flight writers).
  std::uint64_t local_counter_sum() const;
  std::uint64_t local_keys() const;
  /// CRC of the local table (versions included): bitwise state digest
  /// for determinism and fault-transparency tests.
  std::uint32_t local_crc() const;

 private:
  std::size_t table_bytes() const { return slots_ * slot_words_ * 8; }
  std::size_t slot_off(std::size_t idx) const { return idx * slot_words_ * 8; }
  /// Finds the slot holding `key` on its home (`*inserted` = false),
  /// or claims a free slot and publishes the given slot image —
  /// tag/counter/value first, version word last (`*inserted` = true).
  /// Returns the slot index. Used by insert paths and shard restore.
  std::size_t publish_slot(armci::RankId home, std::int64_t key,
                           const std::uint64_t* image, bool* inserted,
                           KvStats& st);
  /// Probe for `key` on its home: fills `idx` with the matching or
  /// first-empty slot; true when the key was found.
  bool find_slot(armci::RankId home, std::int64_t key, std::size_t* idx,
                 KvStats& st);
  /// Reads the full slot at `off` on `home` into a stable member
  /// buffer. With kvs.hedge_us > 0 and a buddy copy available (see
  /// set_runtime), a still-in-flight read is raced after cfg_.hedge_us
  /// against a read of the buddy's checkpoint copy; first response
  /// wins, and a buddy win is used only when the copy holds a stable
  /// non-empty slot (tags are write-once, so such an image steps a
  /// probe chain or serves a bounded-staleness hit safely; empty or
  /// mid-insert copies fall back to the primary). Returns a pointer
  /// to the winning buffer; the loser stays in flight into its pool
  /// slot and is drained before that slot is reused.
  const std::uint64_t* read_slot(armci::RankId home, std::size_t off,
                                 KvStats& st);
  /// Arms (or disarms, when `on` is false or the machine has no
  /// retry-budget flow config) the per-op retry budget consumed by
  /// retry_backoff. Called at the top of each public op.
  void arm_budget(bool on);
  /// One spin-loop retry step: with an armed budget, backs off for the
  /// budget's jittered exponential delay (st.retry_backoffs) and
  /// throws flow::DeadlineError once the budget is exhausted. A no-op
  /// without flow — call sites keep their historical immediate re-poll.
  void retry_backoff(const char* what, armci::RankId home, KvStats& st);

  armci::Comm& comm_;
  KvConfig cfg_;
  std::vector<int> members_;
  armci::GlobalMem* mem_ = nullptr;
  std::size_t slots_ = 0;
  std::size_t value_words_ = 0;
  std::size_t slot_words_ = 0;
  /// Read-side landing buffers. A fail-stop abort can unwind a blocked
  /// get while its delivery event is still in flight, and the delivery
  /// writes the destination afterwards — so destinations must live as
  /// long as the store, never on an op's stack frame. Contents are
  /// consumed before the next comm call, so late stale writes are
  /// harmless.
  std::vector<std::uint64_t> slot_buf_;
  std::uint64_t hdr_buf_[2] = {0, 0};
  std::uint64_t ver_buf_ = 0;
  /// Write-side staging image. Also a stable address on purpose: puts
  /// register on-the-fly memregions keyed by the source address, so a
  /// per-call buffer would make registration hits depend on heap
  /// reuse — breaking bitwise run-to-run determinism in one process.
  std::vector<std::uint64_t> image_buf_;
  /// Hedged-get state: second landing buffer, the still-in-flight
  /// loser of the last race, and the machine's flow controller
  /// (nullptr when flow.* is unset — every hook below is one pointer
  /// test, preserving the zero-cost-off guarantee).
  /// A race loser stays in flight into its own pool slot and resolves
  /// in the background — draining it eagerly would just transfer the
  /// dodged retransmit tail onto the next op. Slots are reused only
  /// once their transfer completed (or, pool exhausted, after a wait).
  struct HedgeSlot {
    std::vector<std::uint64_t> buf;
    armci::Handle h;
    /// Set when the read was issued revocably (kvs.hedge_cancel): the
    /// deferred-injection record a buddy win tries to revoke.
    std::shared_ptr<armci::DeferredGet> dg;
  };
  std::vector<HedgeSlot> hedge_pool_;
  /// A hedge pool slot whose buffer and handle are free to reuse
  /// (never `avoid`, which the caller holds in flight), or nullptr
  /// when every slot still has a straggler in flight — the caller
  /// then degrades to an unhedged read (st.hedge_skips) rather than
  /// inherit a straggler's tail by blocking on it.
  HedgeSlot* try_hedge_slot(const HedgeSlot* avoid = nullptr);
  const ft::Runtime* rt_ = nullptr;
  bool hedge_paused_ = false;
  flow::Controller* flow_ = nullptr;
  /// Continuous telemetry (obs.timeline): per-shard probe-chain length
  /// gauges ("kvs.probe_len.s<home>", registered lazily the first time
  /// a probe lands on that shard) and the hedge-pool in-flight gauge.
  void sample_probe(armci::RankId home, std::size_t step);
  obs::Timeline* timeline_ = nullptr;
  std::uint32_t tl_hedge_inflight_ = 0xffffffffu;
  obs::KeyedSeries tl_probe_;
  /// Per-op retry budget (armed only while flow.retry_budget > 0) and
  /// the monotone op id salting its jitter stream.
  std::optional<flow::RetryBudget> budget_;
  std::uint64_t op_seq_ = 0;
};

/// One fail-stop recovery observed by the workload driver.
struct RecoveryEvent {
  int restart_label = 0;        ///< checkpoint label rolled back to
  std::vector<int> dead_ranks;  ///< cumulative dead set at this event
};

/// Aggregated result of run_workload.
struct KvResult {
  KvStats total;                      ///< merged over all clients
  std::vector<KvStats> per_rank;
  double elapsed_s = 0.0;             ///< virtual seconds, live clients' span
  double mops = 0.0;                  ///< acked ops / elapsed, in millions
  /// Absolute virtual-time span of the client traffic (min start / max
  /// end over live clients) — lets callers aim fault times into it.
  Time traffic_begin = 0, traffic_end = 0;
  std::uint64_t acked_ops = 0;
  /// Open-loop accounting (offered == acked in closed-loop runs).
  std::uint64_t offered_ops = 0;      ///< arrivals presented to clients
  std::uint64_t good_ops = 0;         ///< acked within the SLO of arrival
  double goodput_mops = 0.0;          ///< good_ops / elapsed, in millions
  /// Completion times (virtual, absolute) of every acked op and of the
  /// SLO-meeting subset, merged over live clients and sorted — the
  /// metastability analysis windows goodput over these (see
  /// bench_abl_overload).
  std::vector<Time> done_times;
  std::vector<Time> good_times;
  std::uint64_t faa_expected = 0;     ///< exactly-once sum of applied faa
  std::uint64_t faa_applied = 0;      ///< counters summed over live shards
  std::uint64_t lost_acked = 0;       ///< survivors' missing acked writes
  std::uint64_t torn_reads = 0;
  int survivors = 0;
  int recoveries = 0;
  std::uint64_t checkpoints = 0;      ///< checkpoint labels committed
  std::vector<RecoveryEvent> events;
  /// Per-live-member shard CRCs at the quiescent end state.
  std::vector<std::uint32_t> shard_crcs;
};

/// Runs the closed-loop zipfian/uniform client mix on every rank of
/// `world` (collective; calls world.spmd). With a fault plan that
/// schedules node deaths, shards checkpoint every cfg.checkpoint_every
/// requests through ft::Runtime and clients replay their op logs after
/// each rollback.
KvResult run_workload(armci::World& world, const KvConfig& cfg);

/// Publishes kvs.* metrics for `r` into `reg` (throughput, op counts,
/// p50/p99/p999 latency gauges, full latency histograms, durability
/// counters), each with `labels` (e.g. {{"mix", "zipfian"}}).
void export_metrics(obs::Registry& reg, const KvResult& r,
                    const obs::Labels& labels = {});

}  // namespace pgasq::kvs
