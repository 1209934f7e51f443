// Virtual-time execution tracing in Chrome trace-event format.
//
// When enabled (pami::MachineConfig::trace_json_path), the engine
// records one duration span per fiber execution slice — who ran when
// in virtual time — plus user instant markers, short complete events,
// and *flow events* ('s'/'t'/'f' phases sharing an id) that Perfetto
// renders as arrows between tracks: message injection → delivery →
// ack, collective hops, async-progress handoffs. Load the resulting
// JSON in chrome://tracing or Perfetto; see docs/observability.md for
// the schema.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/time_types.hpp"

namespace pgasq::sim {

/// Argument map attached to an event, rendered under "args" in the
/// trace. Values are emitted as JSON strings.
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultMaxEvents = 1 << 20;

  /// Caps memory: recording stops after `max_events`; the first
  /// dropped event logs a WARN and truncated() turns true (surfaced
  /// as a report row). Configurable via trace.max_events.
  explicit TraceRecorder(std::size_t max_events = kDefaultMaxEvents)
      : max_events_(max_events) {}

  /// A named track (one per fiber); returns a dense track id. A muted
  /// track (trace.sample_ranks excludes its rank) still gets an id and
  /// thread-name metadata, but every event recorded on it is dropped —
  /// callers keep their plumbing, the file stays small.
  std::uint32_t register_track(const std::string& name, bool muted = false);

  /// True once any track was registered muted (rank sampling active);
  /// to_json() then prunes flow continuations whose start was muted.
  bool sampling() const { return sampling_; }
  bool track_muted(std::uint32_t track) const { return muted_[track]; }

  void begin_slice(std::uint32_t track, Time at);
  void end_slice(std::uint32_t track, Time at);
  /// Instant marker on a track ("barrier release", "steal", ...).
  void instant(std::uint32_t track, const std::string& name, Time at,
               TraceArgs args = {});
  /// Complete event ('X'): a self-contained slice of length `dur`.
  void complete(std::uint32_t track, const std::string& name, Time at,
                Time dur, TraceArgs args = {});

  /// Fresh id for a flow (an arrow chain). Never returns 0, so 0 can
  /// mean "no flow attached" in caller-side plumbing.
  std::uint64_t next_flow_id() { return ++last_flow_id_; }

  /// One point of a flow: phase 's' (start), 't' (step), or 'f'
  /// (finish). Each point also records a zero-length complete event at
  /// the same spot so Perfetto has a slice to anchor the arrow to even
  /// on tracks with no fiber slices. 'f' points bind to the enclosing
  /// slice ("bp":"e") per the trace-event spec.
  void flow_point(char phase, std::uint32_t track, const std::string& name,
                  std::uint64_t id, Time at, TraceArgs args = {});

  std::size_t event_count() const { return events_.size(); }
  std::size_t max_events() const { return max_events_; }
  bool truncated() const { return truncated_; }

  /// Serializes to Chrome trace-event JSON ({"traceEvents": [...]}).
  std::string to_json() const;
  /// Writes to_json() to a file; throws on I/O failure.
  void write_json(const std::string& path) const;

 private:
  struct Event {
    char phase;  // 'B', 'E', 'i', 'X', 's', 't', 'f'
    std::uint32_t track;
    Time at;
    Time dur;           // 'X' only
    std::uint64_t id;   // flow phases only (non-zero)
    std::string name;   // instants, completes, flows
    TraceArgs args;
  };
  /// False (and warns once) when the event cap is reached.
  bool room();

  std::size_t max_events_;
  bool truncated_ = false;
  bool sampling_ = false;
  std::uint64_t last_flow_id_ = 0;
  std::vector<std::string> tracks_;
  std::vector<bool> muted_;
  std::vector<Event> events_;
};

}  // namespace pgasq::sim
