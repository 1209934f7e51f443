// Shared pieces of the two-clock benchmark program.
//
// Every workload runs inside one single-threaded simulator process and
// reports on two clocks: host time (std::chrono::steady_clock, what it
// costs to produce the numbers) and virtual time (the modelled BG/Q
// time). The program makes every call into the simulator's layers
// itself, so the spans recorded here wrap each call at a layer
// boundary without touching the simulator's sources.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/comm.hpp"
#include "core/world.hpp"
#include "pami/context.hpp"
#include "util/time_types.hpp"

namespace perfbench {

using pgasq::Time;
namespace armci = pgasq::armci;

/// Host wall clock in seconds (steady, monotonic).
double host_now_s();

/// Context switches the simulator's fibers have made in this process:
/// the program is linked with --wrap=swapcontext, so every switch between
/// the engine's scheduler and a fiber passes through a counter. One
/// fiber switch (in and back out) is two calls.
std::uint64_t swapcontext_calls();

/// The host clock together with swapcontext_calls() at the same moment.
struct HostMark {
  double s = 0.0;
  std::uint64_t switches = 0;
};
HostMark host_mark();

/// Host time is cut into slices at every kSliceCalls-th swapcontext call:
/// the wrapper reads the host clock there into a fixed table. The
/// simulation is deterministic, so slice k of one run covers exactly the
/// same simulated work as slice k of any other run of the same seed, and
/// run.py can take each slice from the run in which it went fastest.
constexpr std::uint64_t kSliceCalls = std::uint64_t{1} << 15;

/// Appends the host durations of [a, b], cut at every slice mark between
/// them, to `out`; they sum to b.s - a.s.
void host_slices(const HostMark& a, const HostMark& b, std::vector<double>& out);

// ---------------------------------------------------------------------------
// Spans: one record per benchmark call into a layer, kept in memory and
// written out when the benchmark ends.
// ---------------------------------------------------------------------------

class Spans {
 public:
  /// Allocates all of the recorder's memory up front, on or off alike:
  /// the simulator keys memory registrations by buffer address, so heap
  /// traffic during a run could move virtual time, and a traced run must
  /// see the same heap as an untraced one.
  explicit Spans(bool on);

  bool on() const { return on_; }

  static constexpr int kMaxRanks = 4096;
  static constexpr int kMaxDepth = 8;

  /// Binds the recorder to a fresh World: spans opened from now on
  /// carry `world` and count that engine's events.
  void bind(pgasq::sim::Engine& engine, int world);

  /// Closes its span on destruction; inert when tracing is off.
  class Scope {
   public:
    Scope(Spans* s, std::size_t idx) : s_(s), idx_(idx) {}
    ~Scope() {
      if (s_ != nullptr) s_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_;
    std::size_t idx_;
  };

  /// Opens a span named `name` (a string literal) on `rank`; its parent
  /// is the innermost span still open on that rank.
  [[nodiscard]] Scope open(int rank, const char* name) {
    if (!on_) return Scope(nullptr, 0);
    return Scope(this, push(rank, name));
  }

  struct Agg {
    std::uint64_t calls = 0;
    double host_s = 0.0;
    std::uint64_t events = 0;
  };
  /// Per-name totals over every closed span (only rank `rank` when
  /// rank >= 0).
  std::map<std::string, Agg> aggregate(int rank = -1) const;
  /// Host seconds during which at least one span named `name` was open
  /// on some rank (union of the intervals).
  double union_s(const std::string& name) const;

  std::size_t size() const { return spans_.size(); }
  /// Chrome trace-event JSON ("X" events, host microseconds; args carry
  /// rank, world, parent index and engine events).
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int rank;
    int world;
    std::int64_t parent;
    double t0, t1;
    std::uint64_t ev0, ev1;
  };
  std::size_t push(int rank, const char* name);
  void close(std::size_t idx);

  bool on_;
  pgasq::sim::Engine* engine_ = nullptr;
  int world_ = 0;
  std::vector<Span> spans_;
  // Open spans: a fixed-depth stack per rank.
  std::vector<std::size_t> stack_;
  std::vector<int> depth_;
};

// ---------------------------------------------------------------------------
// Timed region of one World.
// ---------------------------------------------------------------------------

/// Machine-wide counters read at the two edges of a timed region.
struct Snapshot {
  double host_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t swapcontexts = 0;   // see swapcontext_calls()
  pgasq::pami::ContextStats pami;    // summed over every context
};

/// ARMCI and collective counters: per-rank deltas across timed regions,
/// summed over ranks and Worlds.
struct ArmciTotals {
  // Contiguous, vector and strided ops alike.
  std::uint64_t gets = 0, puts = 0, accs = 0, rmws = 0, forced_fences = 0;
  Time t_get = 0, t_acc = 0, t_rmw = 0, t_wait = 0, t_barrier = 0;
  std::uint64_t coll_calls[armci::CollStats::kOps] = {};
  Time coll_time[armci::CollStats::kOps] = {};

  void add_delta(const armci::CommStats& after, const armci::CommStats& before);
};

/// Brackets the timed region of one World. Every rank calls enter()
/// where its timed work starts and leave() where it ends; the first
/// enter and the last leave snapshot the machine-wide counters and the
/// host clock; each leave() adds the rank's ARMCI deltas to `armci`.
/// Construct it before the World, so that its memory is not carved
/// from the heap the simulation runs on.
class Region {
 public:
  Region(int ranks, ArmciTotals& armci);

  void enter(armci::Comm& comm);
  void leave(armci::Comm& comm);

  const Snapshot& open() const { return open_; }
  const Snapshot& close() const { return close_; }
  const armci::World& world() const { return *world_; }
  bool closed() const { return left_ == ranks_; }

 private:
  Snapshot snapshot() const;

  armci::World* world_ = nullptr;
  int ranks_;
  int entered_ = 0;
  int left_ = 0;
  Snapshot open_, close_;
  std::vector<armci::CommStats> before_;
  ArmciTotals& armci_;
};

// ---------------------------------------------------------------------------
// Result of one workload run.
// ---------------------------------------------------------------------------

struct Result {
  double setup_s = 0.0;
  double host_s = 0.0;
  Time virt = 0;
  /// Virtual latency of every op (picoseconds), over all ranks.
  std::vector<Time> op_lat;
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  /// Per-layer figures that must repeat exactly run to run and between
  /// traced and untraced runs (counts and virtual times).
  std::map<std::string, double> exact;
  /// Per-layer figures only a traced run measures (host-clock spans).
  std::map<std::string, double> traced;
  std::vector<std::string> failures;
  /// Filled by the Regions of every World.
  ArmciTotals armci;

  /// Records a violated oracle; counts `n` failed ops.
  void fail(const std::string& why, std::uint64_t n = 1);
  /// Adds one World's region: set-up (from `construct`, taken just before
  /// the World was built) and timed host time, virtual time, and the
  /// sim/noc/pami counts. Call after spmd returns.
  void add_region(const Region& r, const HostMark& construct, Time virt_region);
  /// Host slices (see kSliceCalls) of every World's set-up and of every
  /// timed region, in World order.
  void slices(std::vector<double>& setup, std::vector<double>& timed) const;
  /// Names every per-layer metric (zero where a layer is unused) and
  /// derives the traced-run host figures from `spans`.
  void finish(const Spans& spans);

 private:
  static constexpr int kMaxWorlds = 4;
  // Construction, region open and region close of each World; fixed
  // storage, so that recording them allocates nothing between Worlds.
  HostMark marks_[kMaxWorlds][3];
  int worlds_ = 0;
  Snapshot sum_;  // region deltas summed over Worlds (host_s unused)
  // Whole-World totals: the arena grows in warm-up, and the region
  // cache publishes its counters only at finalize.
  std::uint64_t scratch_reallocs_ = 0;
  std::uint64_t cache_hits_ = 0, cache_misses_ = 0;
};

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
Time percentile(std::vector<Time>& v, double q);

// Workloads (wl_*.cpp). Each builds its Worlds from inputs generated
// from `seed`, drives them through the layers' public functions, checks
// its oracles and fills `res`.
void run_scf(std::uint64_t seed, Spans& spans, Result& res);
void run_coll(std::uint64_t seed, Spans& spans, Result& res);
void run_kvs(std::uint64_t seed, Spans& spans, Result& res);

/// Reduced-deck check that the scf workload code reproduces apps::run_scf
/// exactly (checksum, task count, virtual time). Returns 0 on success.
int check_scf_mirror();

}  // namespace perfbench
