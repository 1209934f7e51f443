// A simulated rank: one PAMI client, its contexts, its registered
// memory, and accounting of the space/time attributes from Table I.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "noc/parameters.hpp"
#include "pami/context.hpp"
#include "pami/memregion.hpp"
#include "pami/types.hpp"
#include "sim/engine.hpp"
#include "util/time_types.hpp"

namespace pgasq::pami {

class Machine;

/// Communication-object space accounting per process (Table I symbols
/// alpha/gamma/epsilon; used by the Table II reproduction).
struct SpaceStats {
  std::uint64_t clients = 0;
  std::uint64_t contexts = 0;
  std::uint64_t endpoints = 0;
  std::uint64_t memregions = 0;

  /// Total bytes under the calibrated per-object sizes.
  std::uint64_t bytes(const noc::BgqParameters& p) const {
    return contexts * p.context_bytes + endpoints * p.endpoint_bytes +
           memregions * p.memregion_bytes;
  }
};

class Process {
 public:
  Process(Machine& machine, RankId rank, std::size_t max_memregions);
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  RankId rank() const { return rank_; }
  int node() const { return node_; }
  Machine& machine() { return machine_; }

  // --- PAMI object lifecycle (each call charges its Table II cost) --------

  /// PAMI_Client_create. Must precede context creation.
  void create_client();
  bool has_client() const { return client_created_; }

  /// PAMI_Context_createv: adds one context (time rho per Table II).
  Context& create_context();
  Context& context(int i) { return *contexts_.at(static_cast<std::size_t>(i)); }
  int num_contexts() const { return static_cast<int>(contexts_.size()); }

  /// PAMI_Endpoint_create: local-only, beta = 0.3 us, alpha = 4 bytes.
  Endpoint create_endpoint(RankId dest, int dest_context);

  /// PAMI_Memregion_create: delta = 43 us, gamma = 8 bytes; fails
  /// (nullopt) past the configured per-process limit — the at-scale
  /// failure the fall-back protocol handles.
  std::optional<MemoryRegion> create_memregion(void* base, std::size_t size);
  void destroy_memregion(const MemoryRegion& region);
  RegionTable& regions() { return regions_; }
  const RegionTable& regions() const { return regions_; }

  // --- CPU ------------------------------------------------------------------

  /// Occupies the calling fiber (this rank's simulated thread) for `t`
  /// of virtual time.
  void busy(Time t);
  Time now() const;

  /// The poll loop this rank's thread is parked in (armci::Comm::
  /// poll_until or progress_until), or nullptr; held by
  /// sim::Engine::poll_idle.
  sim::IdlePoll*& parked_poll() { return parked_; }
  /// Marks the rank poked and schedules a check of the parked poll
  /// loop, if any, at its next instant. Called by every event that can
  /// change what such a loop waits for: a post or an advance on one of
  /// this rank's contexts, an RDMA write into its memory, a
  /// hw-collective completion.
  void poke() {
    poked_ = true;
    if (parked_ != nullptr) poke_parked();
  }
  /// Whether poke() ran since clear_poke(), which the non-blocking
  /// collectives' stepper calls before each step.
  bool poked() const { return poked_; }
  void clear_poke() { poked_ = false; }

  const SpaceStats& space() const { return space_; }

 private:
  friend class Context;
  void poke_parked();

  Machine& machine_;
  RankId rank_;
  int node_;
  bool client_created_ = false;
  bool poked_ = false;
  std::vector<std::unique_ptr<Context>> contexts_;
  RegionTable regions_;
  SpaceStats space_;
  sim::IdlePoll* parked_ = nullptr;
};

}  // namespace pgasq::pami
