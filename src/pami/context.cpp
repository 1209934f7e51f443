#include "pami/context.hpp"

#include <cstring>
#include <sstream>
#include <utility>

#include "ft/liveness.hpp"
#include "pami/machine.hpp"
#include "pami/process.hpp"
#include "util/error.hpp"

namespace pgasq::pami {

namespace {
/// "rank 3" / "ranks 12-15": the ranks a node hosts, for fault
/// messages — FaultError carries node ids but users think in ranks.
std::string node_ranks_str(const topo::RankMapping& map, int node) {
  const int c = map.ranks_per_node();
  std::ostringstream os;
  if (c == 1) {
    os << "rank " << map.rank_of(node, 0);
  } else {
    os << "ranks " << map.rank_of(node, 0) << "-" << map.rank_of(node, c - 1);
  }
  return os.str();
}
}  // namespace

Context::Context(Process& process, int index)
    : process_(process),
      index_(index),
      lock_(std::make_unique<sim::SimMutex>(process.machine().engine())),
      arrivals_(std::make_unique<sim::WaitQueue>(process.machine().engine())) {}

Machine& Context::machine() { return process_.machine(); }

void Context::flow(char phase, RankId rank, const char* name, std::uint64_t id,
                   Time at, std::uint64_t bytes, int peer) {
  sim::TraceRecorder* tr = machine().sinks().trace;
  if (tr == nullptr || id == 0) return;
  sim::TraceArgs args;
  if (bytes > 0) args.emplace_back("bytes", std::to_string(bytes));
  if (peer >= 0) args.emplace_back("peer", "rank" + std::to_string(peer));
  tr->flow_point(phase, machine().rank_track(rank), name, id, at,
                 std::move(args));
}

std::uint64_t Context::start_flow(const char* name, std::uint64_t bytes, RankId peer) {
  sim::TraceRecorder* tr = machine().sinks().trace;
  if (tr == nullptr) return 0;
  const std::uint64_t id = tr->next_flow_id();
  flow('s', process_.rank(), name, id, now(), bytes, peer);
  return id;
}

noc::Transfer Context::wire_transfer(int src_node, int dst_node, std::uint64_t bytes,
                                     Time at, noc::TransferOptions opts,
                                     const char* what) {
  auto& net = machine().network();
  // Critical-path attribution measures the leg from the moment the
  // sender asked for the wire — before CRC, credit and NIC waits.
  const Time requested = at;
  obs::CritPath* const cp = machine().sinks().critpath;
  ft::HealthMonitor* mon = machine().monitor();
  if (mon != nullptr) {
    // Quarantine: an op against a declared-dead endpoint fails fast
    // with the typed error instead of hanging or burning retry budget.
    const int dead = mon->node_declared_dead(src_node)   ? src_node
                     : mon->node_declared_dead(dst_node) ? dst_node
                                                         : -1;
    if (dead >= 0) {
      ++mon->stats().quarantined_ops;
      std::ostringstream os;
      os << "ft: " << what << " from node " << src_node << " to node " << dst_node
         << " refused — node " << dead << " ("
         << node_ranks_str(machine().mapping(), dead) << ") is declared dead";
      throw ft::PeerDeadError(what, src_node, dst_node, mon->epoch(), os.str());
    }
  }
  // End-to-end CRC verification covers payload legs whose bytes can
  // actually corrupt (past the link-CRC-protected prefix). The sender
  // computes the CRC before injection and the receiver re-computes it
  // on delivery — both passes are charged to the virtual clock.
  fault::Integrity* ig = machine().integrity();
  const bool verify = ig != nullptr && ig->config().verify &&
                      opts.payload_bytes > noc::kProtectedPrefix;
  Time crc = 0;
  if (verify) {
    crc = ig->crc_cost(opts.payload_bytes);
    at += crc;
  }
  noc::Transfer t = net.transfer(src_node, dst_node, bytes, at, opts);
  fault::Injector* inj = machine().injector();
  if (inj == nullptr) {
    if (verify) {
      ++ig->stats().crc_checks;
      t.arrive += crc;
    }
    if (cp != nullptr) {
      cp->record_leg(what, process_.rank(), requested, t.inject_begin,
                     t.inject_done, t.ser_nominal, t.arrive, t.bottleneck_link,
                     t.route_capacity < 1.0);
    }
    return t;
  }
  const fault::FaultPlan& plan = inj->plan();
  Time timeout = plan.ack_timeout;
  const bool retransmitted = t.dropped || (t.corrupted && verify);
  std::uint64_t spent = 0;
  while (t.dropped || (t.corrupted && verify)) {
    const bool from_corruption = !t.dropped;
    // Deterministic jitter (fault.backoff_jitter) spreads the wait so
    // ranks that lost packets in the same window do not re-offer them
    // at the same instant — the retry-storm seed. A pure function of
    // (seed, rank, lifetime attempt): reruns stay byte-identical, and
    // with jitter 0 the factor is exactly 1.0 (the historical timing).
    const Time wait =
        plan.backoff_jitter > 0.0
            ? static_cast<Time>(static_cast<double>(timeout) *
                                flow::jitter(plan.seed, process_.rank(),
                                             retries_used_, plan.backoff_jitter))
            : timeout;
    Time resend_at;
    if (t.dropped) {
      // The expected ack never came: declare the packet lost `timeout`
      // after it drained, re-inject, and widen the timeout (capped).
      const Time timeout_at = t.inject_done + wait;
      if (mon != nullptr) {
        // Report the missed ack against the fail-stopped endpoint (if
        // any); the suspect_acks'th miss declares it dead. The retries a
        // doomed leg burned are refunded — fail-stop escalates as
        // PeerDeadError, not as transient-budget exhaustion.
        const int suspect = inj->node_dead(dst_node, timeout_at)   ? dst_node
                            : inj->node_dead(src_node, timeout_at) ? src_node
                                                                   : -1;
        if (suspect >= 0 && mon->report_timeout(suspect, timeout_at)) {
          retries_used_ -= spent;
          stats_.retransmits -= spent;
          std::ostringstream os;
          os << "ft: " << what << " from node " << src_node << " to node " << dst_node
             << " lost its peer — node " << suspect << " ("
             << node_ranks_str(machine().mapping(), suspect)
             << ") declared dead after missed acks";
          throw ft::PeerDeadError(what, src_node, dst_node, mon->epoch(), os.str());
        }
      }
      resend_at = timeout_at;
    } else {
      // The payload arrived but its CRC does not match: the receiver
      // NACKs at the detection point and the sender re-injects when the
      // NACK lands. A lost NACK degenerates to the plain ack timeout.
      ++ig->stats().crc_checks;
      ++ig->stats().corruptions_detected;
      ++ig->stats().nacks_sent;
      ++ig->stats().nack_retransmits;
      const Time detect = t.arrive + crc;
      inj->trace_mark("corruption nack", detect);
      const noc::Transfer nack = net.transfer(
          dst_node, src_node, machine().params().control_packet_bytes, detect,
          noc::TransferOptions{.is_control = true});
      resend_at = nack.dropped ? t.inject_done + wait : nack.arrive;
    }
    ++stats_.retransmits;
    ++spent;
    machine().sinks().timeline->count(machine().timeline_ids().retransmits, resend_at);
    if (++retries_used_ > plan.retry_budget) {
      std::ostringstream os;
      os << (from_corruption ? "integrity" : "fault") << ": retry budget ("
         << plan.retry_budget << ") exhausted on rank " << process_.rank()
         << " context " << index_ << " during " << what << " from node "
         << src_node << " (" << node_ranks_str(machine().mapping(), src_node)
         << ") to node " << dst_node << " ("
         << node_ranks_str(machine().mapping(), dst_node) << ") "
         << (from_corruption
                 ? "— payload failed CRC verification on every retry "
                   "(raise fault.retry_budget or lower fault.corrupt_prob)"
                 : "(raise fault.retry_budget or lower fault.drop_prob)");
      if (from_corruption) {
        throw IntegrityError(what, src_node, dst_node, retries_used_ - 1, os.str());
      }
      throw FaultError(what, src_node, dst_node, retries_used_ - 1, os.str());
    }
    if (t.dropped) {
      stats_.retransmit_backoff += wait;
      inj->record_retransmit(wait, resend_at);
      timeout = std::min(
          static_cast<Time>(static_cast<double>(timeout) * plan.backoff_factor),
          plan.max_backoff);
    } else {
      // NACK turnaround replaces the timeout wait; no backoff charged.
      inj->record_retransmit(0, resend_at);
    }
    t = net.transfer(src_node, dst_node, bytes, resend_at, opts);
  }
  // Sequence numbers hold retransmission-reordered packets at the
  // receiver so pairwise delivery order survives recovery — the
  // ordering guarantee ARMCI's consistency layer is built on.
  t.arrive = inj->in_order_arrival(src_node, dst_node, t.arrive, retransmitted);
  if (verify) {
    ++ig->stats().crc_checks;
    t.arrive += crc;
  }
  if (cp != nullptr) {
    // The final (delivered) transfer's diagnostics: retransmit backoff
    // and every earlier doomed injection land in the inject-wait
    // segment, receiver-side CRC/reorder holds in the wire segment.
    cp->record_leg(what, process_.rank(), requested, t.inject_begin,
                   t.inject_done, t.ser_nominal, t.arrive, t.bottleneck_link,
                   t.route_capacity < 1.0);
  }
  return t;
}

noc::Transfer Context::wire_control(int src_node, int dst_node, Time at,
                                    const char* what) {
  // Ack packets carry the payload's echo CRC inside the fixed control
  // packet (no extra wire bytes), making one-sided completions
  // end-to-end verified; only the bookkeeping is observable.
  fault::Integrity* ig = machine().integrity();
  if (ig != nullptr && ig->config().verify && std::strstr(what, "ack") != nullptr) {
    ++ig->stats().echo_crc_acks;
  }
  return wire_transfer(src_node, dst_node, machine().params().control_packet_bytes,
                       at, noc::TransferOptions{.is_control = true}, what);
}

void Context::maybe_corrupt(const noc::Transfer& t, std::byte* data,
                            std::uint64_t bytes) {
  if (!t.corrupted) return;  // only ever set under a corruption plan
  fault::Integrity* ig = machine().integrity();
  if (ig != nullptr && ig->config().verify) return;  // caught and repaired
  // Silent mode (integrity.verify=0): the flip lands in the staged
  // payload exactly as the fabric delivered it; the coll/ft layers'
  // own checksums are the remaining line of defense.
  fault::apply_bit_flips(t.corrupt_token, machine().injector()->plan().corrupt_bits,
                         data, bytes, noc::kProtectedPrefix);
}

void Context::busy(Time t) { process_.busy(t); }

Time Context::now() const { return process_.now(); }

void Context::set_dispatch(DispatchId id, AmHandler handler) {
  PGASQ_CHECK(handler != nullptr);
  dispatch_[id] = std::move(handler);
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

std::size_t Context::advance() {
  PGASQ_CHECK(machine().engine().current() != nullptr,
              << "advance outside a fiber");
  ++stats_.advance_calls;
  if (items_.empty()) {
    ++stats_.empty_advances;
    busy(machine().params().advance_poll_cost);
    return 0;
  }
  // Service the items present at entry (one bounded progress pass,
  // like PAMI_Context_advance with a finite iteration count). Items
  // arriving while we service — or posted by handlers — wait for the
  // next call; blocking waits loop on advance() so they still drain.
  const std::size_t batch = items_.size();
  std::size_t n = 0;
  while (n < batch && !items_.empty()) {
    // Move the item out so handlers can post new items safely.
    Item item = std::move(items_.front());
    items_.pop_front();
    stats_.total_service_delay += now() - item.posted_at;
    process_item(item);
    ++n;
  }
  // A second thread may be parked in advance_until on this context
  // with a predicate our processing just satisfied (shared-context
  // rho=1 configuration), or in a poll loop (a deposit or a completion
  // serviced by the async thread): let it re-check.
  arrivals_->notify_all();
  process_.poke();
  return n;
}

void Context::wait_for_work() {
  if (!items_.empty()) return;
  arrivals_->wait();
}

void Context::advance_until(const std::function<bool()>& pred) {
  for (;;) {
    advance();
    if (pred()) return;
    if (!items_.empty()) continue;  // work arrived while advancing
    // Nothing to do: park until the next delivery wakes us. The
    // predicate can only change through an item on this context (or a
    // handler run by another thread that then posts here), so waiting
    // is safe.
    arrivals_->wait();
  }
}

void Context::post(Item item) {
  item.posted_at = now();
  items_.push_back(std::move(item));
  machine().sinks().timeline->sample(machine().timeline_ids().pending_ops, item.posted_at,
                                     static_cast<double>(items_.size()));
  arrivals_->notify_all();
  process_.poke();
}

void Context::post_completion(Callback cb, Time cost) {
  Item item;
  item.kind = Item::Kind::kCompletion;
  item.callback = std::move(cb);
  item.cost = cost;
  post(std::move(item));
}

void Context::post_am(DispatchId dispatch, AmMessage msg) {
  Item item;
  item.kind = Item::Kind::kAm;
  item.dispatch = dispatch;
  item.message = std::move(msg);
  post(std::move(item));
}

void Context::post_rmw_service(std::int64_t* word, RmwOp op, std::int64_t operand,
                               std::int64_t compare, Endpoint reply_to,
                               RmwCallback reply_cb, std::uint64_t flow_id,
                               Time deadline) {
  Item item;
  item.kind = Item::Kind::kRmwService;
  item.word = word;
  item.op = op;
  item.operand = operand;
  item.compare = compare;
  item.reply_to = reply_to;
  item.rmw_reply = std::move(reply_cb);
  item.flow_id = flow_id;
  item.deadline = deadline;
  post(std::move(item));
}

namespace {
std::int64_t apply_rmw(std::int64_t* word, RmwOp op, std::int64_t operand,
                       std::int64_t compare) {
  const std::int64_t old = *word;
  switch (op) {
    case RmwOp::kFetchAdd:
    case RmwOp::kAdd:
      *word = old + operand;
      break;
    case RmwOp::kSwap:
      *word = operand;
      break;
    case RmwOp::kCompareSwap:
      if (old == compare) *word = operand;
      break;
  }
  return old;
}
}  // namespace

void Context::process_item(Item& item) {
  const auto& p = machine().params();
  switch (item.kind) {
    case Item::Kind::kCompletion: {
      ++stats_.completions;
      busy(item.cost);
      if (item.callback) item.callback();
      break;
    }
    case Item::Kind::kAm: {
      ++stats_.ams_dispatched;
      busy(p.o_am_dispatch);
      // An expired AM is not dropped — its handler generates the acks
      // that fences and flush protocols wait on, so dropping would
      // hang the sender. The handler sees message.expired and skips
      // the real work while still answering.
      if (flow::Controller* fc = machine().flow();
          fc != nullptr && fc->expired_at_server(item.message.deadline, now())) {
        item.message.expired = true;
      }
      flow('f', process_.rank(), "am dispatch", item.message.flow_id, now());
      const auto it = dispatch_.find(item.dispatch);
      PGASQ_CHECK(it != dispatch_.end(),
                  << "rank " << process_.rank() << " context " << index_
                  << ": no handler for dispatch id " << item.dispatch);
      it->second(*this, item.message);
      break;
    }
    case Item::Kind::kRmwService: {
      // Deadline shed: the cheapest place to drop overload is here,
      // before the service cost is paid or the word is touched. The
      // (cheap, control-size) reply still flows so the requester
      // unblocks — it sees the kExpiredRmw sentinel and raises its
      // typed error instead of using a stale answer.
      flow::Controller* fc = machine().flow();
      const bool shed =
          fc != nullptr && fc->expired_at_server(item.deadline, now());
      if (!shed) {
        ++stats_.rmws_serviced;
        busy(p.o_rmw_service);
      }
      const std::int64_t old =
          shed ? flow::kExpiredRmw
               : apply_rmw(item.word, item.op, item.operand, item.compare);
      // NIC-level reply packet back to the requester; the requester
      // sees the result when it next advances after arrival.
      const int here = process_.node();
      const int dest_node = machine().mapping().node_of_rank(item.reply_to.rank);
      const auto reply = wire_control(here, dest_node, now(), "rmw reply");
      flow('t', process_.rank(), "rmw serve", item.flow_id, now());
      flow('f', item.reply_to.rank, "rmw reply", item.flow_id, reply.arrive);
      Context& dest_ctx =
          machine().process(item.reply_to.rank).context(item.reply_to.context);
      RmwCallback cb = std::move(item.rmw_reply);
      machine().engine().schedule_at(reply.arrive, [&dest_ctx, cb = std::move(cb),
                                                    old, cost = p.o_completion] {
        dest_ctx.post_completion([cb, old] { cb(old); }, cost);
      });
      break;
    }
    case Item::Kind::kGetRequest: {
      // Fall-back get service: the target streams the data back,
      // paying its own send overhead — the second "o" of Eq 8.
      const int here = process_.node();
      const int dest_node = machine().mapping().node_of_rank(item.reply_to.rank);
      // Deadline shed: skip the read + payload stream entirely; only a
      // control-size "expired" notification returns, delivered to the
      // requester's on_expired callback.
      if (flow::Controller* fc = machine().flow();
          fc != nullptr && item.on_expired != nullptr &&
          fc->expired_at_server(item.deadline, now())) {
        const auto t = wire_control(here, dest_node, now(), "get expired");
        flow('f', item.reply_to.rank, "get expired", item.flow_id, t.arrive);
        Context& dest_ctx =
            machine().process(item.reply_to.rank).context(item.reply_to.context);
        machine().engine().schedule_at(
            t.arrive, [&dest_ctx, cb = std::move(item.on_expired),
                       cost = p.o_completion]() mutable {
              dest_ctx.post_completion(std::move(cb), cost);
            });
        break;
      }
      busy(p.o_send);
      // Read the data now (service time) and ship it.
      std::vector<std::byte> staged(item.bytes);
      std::memcpy(staged.data(), item.source_data, item.bytes);
      const auto t =
          wire_transfer(here, dest_node, item.bytes, now(),
                        noc::TransferOptions{.payload_bytes = item.bytes}, "get reply");
      maybe_corrupt(t, staged.data(), item.bytes);
      flow('t', process_.rank(), "get serve", item.flow_id, now());
      flow('f', item.reply_to.rank, "get reply", item.flow_id, t.arrive,
           item.bytes);
      Context& dest_ctx =
          machine().process(item.reply_to.rank).context(item.reply_to.context);
      machine().engine().schedule_at(
          t.arrive, [&dest_ctx, staged = std::move(staged),
                     dst = item.requester_buffer, cb = std::move(item.callback),
                     cost = p.o_completion]() mutable {
            std::memcpy(dst, staged.data(), staged.size());
            dest_ctx.post_completion(std::move(cb), cost);
          });
      break;
    }
    case Item::Kind::kPutData: {
      // Non-RDMA put deposit: copy the payload into place, then ack.
      busy(p.o_am_dispatch);
      std::memcpy(item.deposit_to, item.deposit_data.data(), item.deposit_data.size());
      if (item.remote_ack) {
        // The ack closure finishes the flow at the requester.
        flow('t', process_.rank(), "put deposit", item.flow_id, now());
        item.remote_ack();
      } else {
        flow('f', process_.rank(), "put deposit", item.flow_id, now());
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// RDMA (one-sided)
// ---------------------------------------------------------------------------

void Context::rput(const MemoryRegion& local_mr, std::uint64_t loff,
                   const MemoryRegion& remote_mr, std::uint64_t roff,
                   std::uint64_t bytes, Callback on_local_done,
                   Callback on_remote_ack) {
  PGASQ_CHECK(local_mr.covers(local_mr.base + loff, bytes), << "rput source range");
  PGASQ_CHECK(remote_mr.covers(remote_mr.base + roff, bytes), << "rput target range");
  const auto& p = machine().params();
  busy(p.o_send);
  const int src_node = process_.node();
  const int dst_node = machine().mapping().node_of_rank(remote_mr.owner);
  const auto t = wire_transfer(src_node, dst_node, bytes, now(),
                               noc::TransferOptions{.payload_bytes = bytes},
                               "rput data");
  const std::uint64_t fid = start_flow("rput", bytes, remote_mr.owner);
  // The NIC reads the source buffer during serialization; stage a copy
  // now so the caller may reuse the buffer after local completion.
  std::vector<std::byte> staged(bytes);
  std::memcpy(staged.data(), local_mr.base + loff, bytes);
  maybe_corrupt(t, staged.data(), bytes);
  std::byte* dst = remote_mr.base + roff;
  Process* target = &machine().process(remote_mr.owner);
  machine().engine().schedule_at(t.arrive,
                                 [staged = std::move(staged), dst, target]() mutable {
    std::memcpy(dst, staged.data(), staged.size());
    target->poke();
  });
  if (on_local_done) {
    post_completion_at(t.inject_done + p.o_local_drain, std::move(on_local_done),
                       p.o_completion);
  }
  if (on_remote_ack) {
    const auto ack = wire_control(dst_node, src_node, t.arrive, "rput ack");
    flow('t', remote_mr.owner, "rput deliver", fid, t.arrive, bytes);
    flow('f', process_.rank(), "rput ack", fid, ack.arrive);
    post_completion_at(ack.arrive, std::move(on_remote_ack), 0);
  } else {
    flow('f', remote_mr.owner, "rput deliver", fid, t.arrive, bytes);
  }
}

void Context::rget(const MemoryRegion& local_mr, std::uint64_t loff,
                   const MemoryRegion& remote_mr, std::uint64_t roff,
                   std::uint64_t bytes, Callback on_done) {
  PGASQ_CHECK(local_mr.covers(local_mr.base + loff, bytes), << "rget local range");
  PGASQ_CHECK(remote_mr.covers(remote_mr.base + roff, bytes), << "rget remote range");
  const auto& p = machine().params();
  busy(p.o_send);
  const int src_node = process_.node();
  const int dst_node = machine().mapping().node_of_rank(remote_mr.owner);
  // Request descriptor travels to the target NIC...
  const auto req = wire_control(src_node, dst_node, now(), "rget request");
  // ...which DMAs the data back with no target software involved.
  const auto data =
      wire_transfer(dst_node, src_node, bytes, req.arrive,
                    noc::TransferOptions{.payload_bytes = bytes}, "rget data");
  // Every leg is timed at initiation, so the whole arrow chain can be
  // emitted here: request out, remote NIC serves, data back.
  const std::uint64_t fid = start_flow("rget", bytes, remote_mr.owner);
  flow('t', remote_mr.owner, "rget serve", fid, req.arrive);
  flow('f', process_.rank(), "rget data", fid, data.arrive, bytes);
  const std::byte* src = remote_mr.base + roff;
  std::byte* dst = local_mr.base + loff;
  auto staged = std::make_shared<std::vector<std::byte>>();
  machine().engine().schedule_at(req.arrive, [staged, src, bytes] {
    staged->assign(src, src + bytes);  // NIC reads target memory now
  });
  machine().engine().schedule_at(data.arrive, [this, staged, dst, data,
                                               cb = std::move(on_done),
                                               cost = p.o_completion]() mutable {
    maybe_corrupt(data, staged->data(), staged->size());
    std::memcpy(dst, staged->data(), staged->size());
    if (cb) post_completion(std::move(cb), cost);
  });
}

void Context::rput_typed(const MemoryRegion& local_mr, const MemoryRegion& remote_mr,
                         const std::vector<TypedChunk>& chunks,
                         Callback on_local_done, Callback on_remote_ack,
                         const char* what) {
  const auto& p = machine().params();
  std::uint64_t total = 0;
  for (const auto& c : chunks) {
    PGASQ_CHECK(local_mr.covers(local_mr.base + c.local_offset, c.bytes));
    PGASQ_CHECK(remote_mr.covers(remote_mr.base + c.remote_offset, c.bytes));
    total += c.bytes;
  }
  // One descriptor covering the whole type map, plus a small per-chunk
  // walk cost; the wire sees a single message with a gather/scatter
  // efficiency factor.
  busy(p.o_send + static_cast<Time>(chunks.size()) * p.typed_element_cost);
  const int src_node = process_.node();
  const int dst_node = machine().mapping().node_of_rank(remote_mr.owner);
  const auto wire_bytes =
      static_cast<std::uint64_t>(static_cast<double>(total) * p.typed_wire_factor);
  const auto t = wire_transfer(src_node, dst_node, wire_bytes, now(),
                               noc::TransferOptions{.payload_bytes = total}, what);
  const std::uint64_t fid = start_flow("rput typed", total, remote_mr.owner);
  auto staged = std::make_shared<std::vector<std::byte>>(total);
  std::uint64_t off = 0;
  for (const auto& c : chunks) {
    std::memcpy(staged->data() + off, local_mr.base + c.local_offset, c.bytes);
    off += c.bytes;
  }
  maybe_corrupt(t, staged->data(), total);
  std::byte* rbase = remote_mr.base;
  Process* target = &machine().process(remote_mr.owner);
  machine().engine().schedule_at(t.arrive, [staged, rbase, chunks, target] {
    std::uint64_t pos = 0;
    for (const auto& c : chunks) {
      std::memcpy(rbase + c.remote_offset, staged->data() + pos, c.bytes);
      pos += c.bytes;
    }
    target->poke();
  });
  if (on_local_done) {
    post_completion_at(t.inject_done + p.o_local_drain, std::move(on_local_done),
                       p.o_completion);
  }
  if (on_remote_ack) {
    const auto ack = wire_control(dst_node, src_node, t.arrive, "rput typed ack");
    flow('t', remote_mr.owner, "rput typed deliver", fid, t.arrive, total);
    flow('f', process_.rank(), "rput typed ack", fid, ack.arrive);
    post_completion_at(ack.arrive, std::move(on_remote_ack), 0);
  } else {
    flow('f', remote_mr.owner, "rput typed deliver", fid, t.arrive, total);
  }
}

void Context::rget_typed(const MemoryRegion& local_mr, const MemoryRegion& remote_mr,
                         const std::vector<TypedChunk>& chunks, Callback on_done,
                         const char* what) {
  const auto& p = machine().params();
  std::uint64_t total = 0;
  for (const auto& c : chunks) {
    PGASQ_CHECK(local_mr.covers(local_mr.base + c.local_offset, c.bytes));
    PGASQ_CHECK(remote_mr.covers(remote_mr.base + c.remote_offset, c.bytes));
    total += c.bytes;
  }
  busy(p.o_send + static_cast<Time>(chunks.size()) * p.typed_element_cost);
  const int src_node = process_.node();
  const int dst_node = machine().mapping().node_of_rank(remote_mr.owner);
  const auto req = wire_control(src_node, dst_node, now(), "rget typed request");
  const auto wire_bytes =
      static_cast<std::uint64_t>(static_cast<double>(total) * p.typed_wire_factor);
  const auto data =
      wire_transfer(dst_node, src_node, wire_bytes, req.arrive,
                    noc::TransferOptions{.payload_bytes = total}, what);
  const std::uint64_t fid = start_flow("rget typed", total, remote_mr.owner);
  flow('t', remote_mr.owner, "rget typed serve", fid, req.arrive);
  flow('f', process_.rank(), "rget typed data", fid, data.arrive, total);
  auto staged = std::make_shared<std::vector<std::byte>>(total);
  const std::byte* rbase = remote_mr.base;
  machine().engine().schedule_at(req.arrive, [staged, rbase, chunks] {
    std::uint64_t pos = 0;
    for (const auto& c : chunks) {
      std::memcpy(staged->data() + pos, rbase + c.remote_offset, c.bytes);
      pos += c.bytes;
    }
  });
  std::byte* lbase = local_mr.base;
  machine().engine().schedule_at(data.arrive, [this, staged, lbase, chunks, data,
                                               cb = std::move(on_done),
                                               cost = p.o_completion]() mutable {
    maybe_corrupt(data, staged->data(), staged->size());
    std::uint64_t pos = 0;
    for (const auto& c : chunks) {
      std::memcpy(lbase + c.local_offset, staged->data() + pos, c.bytes);
      pos += c.bytes;
    }
    if (cb) post_completion(std::move(cb), cost);
  });
}

// ---------------------------------------------------------------------------
// Two-sided / target-progress operations
// ---------------------------------------------------------------------------

void Context::send(Endpoint dest, DispatchId dispatch, std::vector<std::byte> header,
                   std::vector<std::byte> payload, Callback on_local_done,
                   const char* what, Time deadline) {
  PGASQ_CHECK(dest.rank >= 0 && dest.rank < machine().num_ranks());
  const auto& p = machine().params();
  busy(p.o_send);
  const int src_node = process_.node();
  const int dst_node = machine().mapping().node_of_rank(dest.rank);
  const std::uint64_t wire_bytes =
      p.control_packet_bytes + header.size() + payload.size();
  const auto t = wire_transfer(src_node, dst_node, wire_bytes, now(),
                               noc::TransferOptions{.payload_bytes = payload.size()},
                               what);
  maybe_corrupt(t, payload.data(), payload.size());
  AmMessage msg;
  msg.source = Endpoint{process_.rank(), index_};
  msg.header = std::move(header);
  msg.payload = std::move(payload);
  msg.sent_at = now();
  msg.arrived_at = t.arrive;
  msg.deadline = deadline;
  msg.flow_id = start_flow("am send", wire_bytes, dest.rank);
  Context& dest_ctx = machine().process(dest.rank).context(dest.context);
  machine().engine().schedule_at(
      t.arrive, [&dest_ctx, dispatch, msg = std::move(msg)]() mutable {
        dest_ctx.post_am(dispatch, std::move(msg));
      });
  if (on_local_done) {
    post_completion_at(t.inject_done, std::move(on_local_done), p.o_completion);
  }
}

void Context::put(Endpoint dest, const std::byte* local, std::byte* remote,
                  std::uint64_t bytes, Callback on_local_done,
                  Callback on_remote_done) {
  const auto& p = machine().params();
  busy(p.o_send);
  const int src_node = process_.node();
  const int dst_node = machine().mapping().node_of_rank(dest.rank);
  const auto t = wire_transfer(src_node, dst_node, p.control_packet_bytes + bytes,
                               now(), noc::TransferOptions{.payload_bytes = bytes},
                               "put data");
  const std::uint64_t fid = start_flow("put", bytes, dest.rank);
  Item item;
  item.kind = Item::Kind::kPutData;
  item.deposit_to = remote;
  item.deposit_data.assign(local, local + bytes);
  maybe_corrupt(t, item.deposit_data.data(), bytes);
  item.flow_id = fid;
  Context& dest_ctx = machine().process(dest.rank).context(dest.context);
  if (on_remote_done) {
    // After the deposit is serviced, a NIC ack returns to us.
    Context* self = this;
    const Endpoint me{process_.rank(), index_};
    item.remote_ack = [self, me, dest, fid, cb = std::move(on_remote_done)]() mutable {
      Machine& m = self->machine();
      const int from = m.mapping().node_of_rank(dest.rank);
      const int to = m.mapping().node_of_rank(me.rank);
      const auto ack = self->wire_control(from, to, m.engine().now(), "put ack");
      self->flow('f', me.rank, "put ack", fid, ack.arrive);
      m.engine().schedule_at(ack.arrive, [self, cb = std::move(cb)]() mutable {
        self->post_completion(std::move(cb), self->machine().params().o_completion);
      });
    };
  }
  machine().engine().schedule_at(t.arrive, [&dest_ctx, item = std::move(item)]() mutable {
    dest_ctx.post(std::move(item));
  });
  if (on_local_done) {
    post_completion_at(t.inject_done, std::move(on_local_done), p.o_completion);
  }
}

void Context::get(Endpoint dest, std::byte* local, const std::byte* remote,
                  std::uint64_t bytes, Callback on_done, Time deadline,
                  Callback on_expired) {
  const auto& p = machine().params();
  busy(p.o_send);
  const int src_node = process_.node();
  const int dst_node = machine().mapping().node_of_rank(dest.rank);
  const auto req = wire_control(src_node, dst_node, now(), "get request");
  const std::uint64_t fid = start_flow("get", bytes, dest.rank);
  Item item;
  item.kind = Item::Kind::kGetRequest;
  item.requester_buffer = local;
  item.source_data = remote;
  item.bytes = bytes;
  item.reply_to = Endpoint{process_.rank(), index_};
  item.callback = std::move(on_done);
  item.flow_id = fid;
  item.deadline = deadline;
  item.on_expired = std::move(on_expired);
  Context& dest_ctx = machine().process(dest.rank).context(dest.context);
  machine().engine().schedule_at(req.arrive, [&dest_ctx, item = std::move(item)]() mutable {
    dest_ctx.post(std::move(item));
  });
}

void Context::rmw(Endpoint dest, std::int64_t* remote_word, RmwOp op,
                  std::int64_t operand, std::int64_t compare, RmwCallback on_done,
                  Time deadline) {
  PGASQ_CHECK(on_done != nullptr);
  const auto& p = machine().params();
  busy(p.o_send);
  const int src_node = process_.node();
  const int dst_node = machine().mapping().node_of_rank(dest.rank);
  const auto req = wire_control(src_node, dst_node, now(), "rmw request");
  const std::uint64_t fid = start_flow("rmw", sizeof(std::int64_t), dest.rank);

  if (p.hardware_amo) {
    // Gemini/InfiniBand-style NIC AMO: the target NIC applies the
    // operation with no target software (ablation: bench_abl_hw_amo).
    Context* self = this;
    const RankId me = process_.rank();
    machine().engine().schedule_at(
        req.arrive + p.hw_amo_service,
        [self, remote_word, op, operand, compare, dst_node, src_node, fid, me,
         dest, deadline, cb = std::move(on_done)]() mutable {
          Machine& m = self->machine();
          // NIC-level deadline check mirrors the software service: an
          // expired request never touches the word.
          flow::Controller* fc = m.flow();
          const bool shed = fc != nullptr &&
                            fc->expired_at_server(deadline, m.engine().now());
          const std::int64_t old =
              shed ? flow::kExpiredRmw
                   : apply_rmw(remote_word, op, operand, compare);
          if (!shed) m.process(dest.rank).poke();
          const auto reply =
              self->wire_control(dst_node, src_node, m.engine().now(), "rmw hw reply");
          self->flow('t', dest.rank, "rmw hw serve", fid, m.engine().now());
          self->flow('f', me, "rmw hw reply", fid, reply.arrive);
          m.engine().schedule_at(reply.arrive, [self, old, cb = std::move(cb)]() mutable {
            self->post_completion([cb = std::move(cb), old] { cb(old); },
                                  self->machine().params().o_completion);
          });
        });
    return;
  }

  // BG/Q reality: serviced by target software at its next advance.
  Context& dest_ctx = machine().process(dest.rank).context(dest.context);
  const Endpoint me{process_.rank(), index_};
  machine().engine().schedule_at(
      req.arrive, [&dest_ctx, remote_word, op, operand, compare, me, fid,
                   deadline, cb = std::move(on_done)]() mutable {
        dest_ctx.post_rmw_service(remote_word, op, operand, compare, me,
                                  std::move(cb), fid, deadline);
      });
}

void Context::post_completion_at(Time when, Callback cb, Time cost) {
  PGASQ_CHECK(when >= now());
  machine().engine().schedule_at(when, [this, cb = std::move(cb), cost]() mutable {
    post_completion(std::move(cb), cost);
  });
}

}  // namespace pgasq::pami
