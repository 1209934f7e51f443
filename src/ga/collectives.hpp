// Collective reductions over the one-sided runtime.
//
// NWChem's SCF loop ends every iteration with global reductions
// (energy, convergence norms). These now route through the
// topology-aware collectives engine (coll::CollEngine, see
// docs/collectives.md), which picks among binomial trees, recursive
// doubling, torus bucket rings, and the BG/Q collective-logic model
// per invocation — replacing the seed's generic recursive doubling
// and its gather-to-root serialization at non-power-of-two counts.
#pragma once

#include <cstddef>

#include "async/future.hpp"
#include "ga/global_array.hpp"

namespace pgasq::grp {
class ProcGroup;
}

namespace pgasq::ga {

/// In-place elementwise double-sum allreduce (GA_Dgop with op "+"):
/// after the call, x[0..n) on every rank holds the sum over ranks.
/// Collective; every rank passes the same n. A non-null `group`
/// scopes the reduction to that process group (GA_Pgroup_dgop):
/// collective over its members only, using the group's own engine.
void gop_sum(Comm& comm, double* x, std::size_t n,
             grp::ProcGroup* group = nullptr);

/// Global dot product <a, b> over identically distributed arrays.
/// Collective; returns the same value on every rank. With `group`,
/// only the members' local panels contribute and only members call.
double dot(GlobalArray& a, GlobalArray& b, grp::ProcGroup* group = nullptr);

/// Sum of all elements of the array. Collective; `group` as in dot().
double element_sum(GlobalArray& a, grp::ProcGroup* group = nullptr);

/// Non-blocking element_sum: computes the local partial into `*out`
/// immediately, then reduces it through the non-blocking collectives
/// engine (coll::CollEngine). `*out` holds the global sum once the
/// returned future is ready; until then the caller must keep it alive
/// and untouched. Collective over the world clique, initiation-order
/// discipline applies (docs/async.md). When the blocking engine is
/// pinned to recursive doubling (coll.algo.allreduce=recdbl) the
/// result is bitwise identical to element_sum().
fut::Future<fut::Unit> ielement_sum(GlobalArray& a, double* out);

}  // namespace pgasq::ga
