#include "pami/process.hpp"

#include "pami/machine.hpp"
#include "util/error.hpp"

namespace pgasq::pami {

Process::Process(Machine& machine, RankId rank, std::size_t max_memregions)
    : machine_(machine),
      rank_(rank),
      node_(machine.mapping().node_of_rank(rank)),
      regions_(rank, max_memregions) {}

void Process::create_client() {
  PGASQ_CHECK(!client_created_, << "rank " << rank_ << ": client already created");
  busy(machine_.params().client_create);
  client_created_ = true;
  ++space_.clients;
}

Context& Process::create_context() {
  PGASQ_CHECK(client_created_, << "rank " << rank_
                               << ": create the client before contexts");
  busy(machine_.params().context_create);
  contexts_.push_back(
      std::make_unique<Context>(*this, static_cast<int>(contexts_.size())));
  ++space_.contexts;
  return *contexts_.back();
}

Endpoint Process::create_endpoint(RankId dest, int dest_context) {
  PGASQ_CHECK(dest >= 0 && dest < machine_.num_ranks(), << "endpoint to rank " << dest);
  busy(machine_.params().endpoint_create);
  ++space_.endpoints;
  return Endpoint{dest, dest_context};
}

std::optional<MemoryRegion> Process::create_memregion(void* base, std::size_t size) {
  busy(machine_.params().memregion_create);
  auto r = regions_.create(static_cast<std::byte*>(base), size);
  if (r) ++space_.memregions;
  return r;
}

void Process::destroy_memregion(const MemoryRegion& region) {
  regions_.destroy(region);
  PGASQ_CHECK(space_.memregions > 0);
  --space_.memregions;
}

void Process::busy(Time t) {
  if (t <= 0) return;
  machine_.engine().sleep_for(t);
}

Time Process::now() const { return machine_.engine().now(); }

void Process::poke_parked() { machine_.engine().poke(*parked_); }

}  // namespace pgasq::pami
