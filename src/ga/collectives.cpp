#include "ga/collectives.hpp"

#include "coll/coll.hpp"
#include "coll/coll.hpp"
#include "grp/group.hpp"
#include "util/error.hpp"

namespace pgasq::ga {

void gop_sum(Comm& comm, double* x, std::size_t n, grp::ProcGroup* group) {
  PGASQ_CHECK(x != nullptr && n > 0);
  // GA_Dgop("+") rides the collectives engine: algorithm selection
  // (tree / recursive doubling / torus ring / hardware logic) per
  // message size and geometry, persistent scratch instead of a
  // malloc/free per call, and any process count — the old fallback
  // serialized non-power-of-two cliques through a gather at rank 0.
  if (group != nullptr) {
    group->allreduce_sum(x, n);
    return;
  }
  coll::CollEngine::of(comm).allreduce_sum(x, n);
}

namespace {

/// Local partial of element_sum, charging the scan as compute. The
/// blocking and non-blocking element sums share it, so a recdbl-pinned
/// blocking run and an overlapped run produce bitwise equal sums.
double local_element_sum(GlobalArray& a) {
  const auto [rlo, rhi] = a.local_rows();
  const auto [clo, chi] = a.local_cols();
  const double* d = a.local_data();
  double partial = 0.0;
  for (std::int64_t i = 0; i < rhi - rlo; ++i) {
    for (std::int64_t j = 0; j < chi - clo; ++j) {
      partial += d[i * a.local_ld() + j];
    }
  }
  a.comm().compute(from_ns(0.5 * static_cast<double>((rhi - rlo) * (chi - clo))));
  return partial;
}

}  // namespace

double element_sum(GlobalArray& a, grp::ProcGroup* group) {
  double partial = local_element_sum(a);
  gop_sum(a.comm(), &partial, 1, group);
  return partial;
}

fut::Future<fut::Unit> ielement_sum(GlobalArray& a, double* out) {
  PGASQ_CHECK(out != nullptr);
  *out = local_element_sum(a);
  return coll::CollEngine::of(a.comm()).iallreduce_sum(out, 1);
}

double dot(GlobalArray& a, GlobalArray& b, grp::ProcGroup* group) {
  PGASQ_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
              << "dot of mismatched arrays");
  const auto [rlo, rhi] = a.local_rows();
  const auto [clo, chi] = a.local_cols();
  const double* da = a.local_data();
  const double* db = b.local_data();
  double partial = 0.0;
  for (std::int64_t i = 0; i < rhi - rlo; ++i) {
    for (std::int64_t j = 0; j < chi - clo; ++j) {
      partial += da[i * a.local_ld() + j] * db[i * b.local_ld() + j];
    }
  }
  a.comm().compute(from_ns(1.0 * static_cast<double>((rhi - rlo) * (chi - clo))));
  gop_sum(a.comm(), &partial, 1, group);
  return partial;
}

}  // namespace pgasq::ga
