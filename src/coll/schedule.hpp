// Collective schedules shared by CollEngine and NbcEngine, written
// once as resumable step functions over a two-call hop interface. A
// step sends and receives in schedule order until a receive has not
// landed (Hops::recv returns nullptr), then returns false; called
// again with the same state it resumes at that receive. CollEngine's
// recv blocks, so its steps run straight through; NbcEngine's steps
// advance one progress pass at a time. Both issue the same hops and
// fold in the same order, so iallreduce is bitwise equal to the
// blocking recursive-doubling allreduce by construction. Positions
// (me, to, root) are schedule positions 0..p-1.
#pragma once

#include <cstddef>

namespace pgasq::coll {

/// The transport a schedule step drives.
class Hops {
 public:
  /// One message of `bytes` from `data` into slot `slot` of position `to`.
  virtual void send(int to, std::size_t slot, const void* data,
                    std::size_t bytes) = 0;
  /// The payload landed in my slot `slot`, or nullptr if it has not
  /// landed yet.
  virtual const std::byte* recv(std::size_t slot, std::size_t bytes) = 0;

 protected:
  ~Hops() = default;
};

/// Binomial-tree broadcast of data[0..bytes) from `root` through slot
/// `slot`: each non-root receives once, then fans out to its children
/// (the mask positions below its join bit, highest first). Needs no
/// state: nothing is sent before the one receive.
bool bcast_binomial_step(Hops& hops, int p, int me, int root, std::size_t slot,
                         std::byte* data, std::size_t bytes);

/// MPICH non-power-of-two fold around a power-of-two core of `pof2`
/// virtual ranks: the first 2*rem positions pair up, odd ones lend
/// their contribution to the even partner (slot 0) and sit out the
/// core, then receive the result back in the post-fold.
struct Fold {
  explicit Fold(int p);
  /// Position behind core virtual rank v.
  int position(int v) const { return v < rem ? v * 2 : v + rem; }
  /// Pre-fold of x[0..n) through slot 0. On completion sets *vr to my
  /// core virtual rank, or -1 if I lent my contribution out.
  bool pre(Hops& hops, int me, double* x, std::size_t n, int* vr) const;
  /// Post-fold through `slot`: evens hand the full result back.
  bool post(Hops& hops, int me, std::size_t slot, double* x,
            std::size_t n) const;

  int pof2 = 1;
  int rem = 0;
};

/// Resumable state of a recursive-doubling allreduce.
struct RecdblState {
  int phase = 0;  ///< 0 pre-fold, 1 exchange rounds, 2 post-fold
  int vr = 0;     ///< core virtual rank (-1: lent out)
  int round = 0;  ///< current exchange round
  bool sent = false;  ///< current round's send already issued
};

/// Slots a recursive-doubling allreduce over p positions uses: 0 =
/// pre-fold, 1+r = exchange rounds, 1+rounds = post-fold.
std::size_t allreduce_recdbl_slots(int p);
/// Recursive-doubling allreduce (sum) of x[0..n) in place. Partners
/// compute a+b and b+a — bitwise equal — so every position ends with
/// one identical vector.
bool allreduce_recdbl_step(Hops& hops, RecdblState& s, int p, int me, double* x,
                           std::size_t n);

}  // namespace pgasq::coll
