// Continuous time-series telemetry: virtual-time-bucketed samplers
// that subsystems feed (obs.timeline). Where LinkUsage answers "how hot
// was each wire", the Timeline answers "what did each
// queue/window/backlog look like as a function of virtual time" — the
// signal needed to see dynamic pathologies (metastable queue runaway,
// AIMD oscillation, brownout backlogs) that end-of-run aggregates
// average away.
//
// Two series kinds:
//   gauge   — sample(id, at, value): per-bucket count/sum/min/max,
//             rendered as the bucket mean (queue depths, window
//             occupancy, lag).
//   counter — count(id, at, delta): per-bucket event sum, i.e. a rate
//             when divided by the bucket width (stalls, sheds,
//             retransmits, fiber switches).
//
// Pure observation: recording never changes timing, so timeline-on
// and timeline-off runs are virtual-time identical. A timeline always
// exists (see obs/sinks.hpp); with obs.timeline off it is disabled:
// series() registers nothing and returns kNone, so every sample() and
// count() is a no-op and feeders need no guard. Output stays
// byte-identical, like fault::Injector. Exports: a versioned
// pgasq.timeline v1 JSON section, a CSV (obs.timeline_csv), and a text
// sparkline block for the report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/time_types.hpp"

namespace pgasq::obs {

class Timeline {
 public:
  using SeriesId = std::uint32_t;
  /// Sentinel: sampling into it is a no-op. Returned by series() while
  /// disabled or once the series cap is hit, so callers never need
  /// their own guard.
  static constexpr SeriesId kNone = 0xffffffffu;

  enum class Kind { kGauge, kCounter };

  /// Current pgasq.timeline schema version.
  static constexpr int kSchemaVersion = 1;

  Timeline(Time bucket_width, std::size_t max_series);
  /// A disabled timeline: it registers no series.
  Timeline() = default;
  /// The disabled timeline shared by feeders built without sinks (a
  /// bare sim::Engine or network model in a unit test).
  static Timeline& disabled();

  bool enabled() const { return max_series_ > 0; }

  /// Finds or creates the series `name`. Registration order is
  /// deterministic (virtual-time order of first touch); exports sort
  /// by name so reports do not depend on it. Past `max_series` this
  /// warns once, sets truncated(), and returns kNone. Disabled: kNone.
  SeriesId series(const std::string& name, Kind kind);
  /// Same for a literal name, which is turned into a string only while
  /// enabled: a disabled timeline costs no allocation.
  SeriesId series(const char* name, Kind kind) {
    return enabled() ? series(std::string(name), kind) : kNone;
  }

  /// Gauge sample at virtual time `at`. No-op for kNone.
  void sample(SeriesId id, Time at, double value) {
    if (id == kNone) return;
    Series& s = series_[id];
    Bucket& b = s.buckets[at / bucket_];
    if (b.count == 0) {
      b.min = b.max = value;
    } else {
      if (value < b.min) b.min = value;
      if (value > b.max) b.max = value;
    }
    b.count += 1;
    b.sum += value;
    s.samples += 1;
    if (value > s.peak) s.peak = value;
  }

  /// Counter increment at virtual time `at`. No-op for kNone.
  void count(SeriesId id, Time at, std::uint64_t delta = 1) {
    if (id == kNone) return;
    Series& s = series_[id];
    s.buckets[at / bucket_].count += delta;
    s.samples += delta;
  }

  Time bucket_width() const { return bucket_; }
  std::size_t num_series() const { return series_.size(); }
  /// True once a series registration was refused by the cap.
  bool truncated() const { return truncated_; }
  /// End of the last non-empty bucket over all series.
  Time end_time() const;

  bool has(const std::string& name) const;
  /// Counter: total over all buckets; 0 when absent (or a gauge).
  std::uint64_t counter_total(const std::string& name) const;
  /// Gauge: peak value ever sampled; 0 when absent (or a counter).
  double gauge_peak(const std::string& name) const;

  /// Text sparklines for the report: top `top` series by activity,
  /// one row each, intensity normalized to the series' own peak.
  std::string render(int top) const;

  /// CSV: series,kind,samples,peak,us<t0>,us<t1>,... (gauges export
  /// the bucket mean, counters the bucket sum).
  std::string to_csv() const;
  void write_csv(const std::string& path) const;

  /// Versioned pgasq.timeline v1 document:
  /// {"schema":"pgasq.timeline","schema_version":1,"bucket_us":…,
  ///  "truncated":…,"series":[{"name","kind","samples","peak",
  ///  "buckets":[[idx,count,mean,max]…  (gauge)
  ///             [idx,value]…           (counter)]}…]} — sorted by name.
  Json to_json() const;

 private:
  struct Bucket {
    std::uint64_t count = 0;  // gauge: samples; counter: event sum
    double sum = 0.0;         // gauge only
    double min = 0.0;         // gauge only
    double max = 0.0;         // gauge only
  };
  struct Series {
    std::string name;
    Kind kind = Kind::kGauge;
    std::uint64_t samples = 0;  // gauge: samples; counter: total
    double peak = 0.0;          // gauge only
    std::map<std::int64_t, Bucket> buckets;
  };
  /// Series indices sorted by name (deterministic export order).
  std::vector<SeriesId> sorted_ids() const;

  Time bucket_ = 0;
  std::size_t max_series_ = 0;  // 0: disabled
  bool truncated_ = false;
  std::vector<Series> series_;
  std::map<std::string, SeriesId> index_;
};

/// One series per key (a node, a link, a shard), each registered on
/// first touch so that only keys that see activity get one. It holds
/// nothing, and never builds a name, while the timeline is disabled.
class KeyedSeries {
 public:
  KeyedSeries() = default;
  KeyedSeries(const Timeline& timeline, std::size_t keys)
      : ids_(timeline.enabled() ? keys : 0, kUnregistered) {}

  /// The series of `key` in `timeline` (the one this was sized for);
  /// `name()` builds its name at the first touch.
  template <class Name>
  Timeline::SeriesId get(Timeline& timeline, std::size_t key, Timeline::Kind kind,
                         const Name& name) {
    if (ids_.empty()) return Timeline::kNone;
    Timeline::SeriesId& id = ids_[key];
    if (id == kUnregistered) id = timeline.series(name(), kind);
    return id;
  }

 private:
  static constexpr Timeline::SeriesId kUnregistered = Timeline::kNone - 1;
  std::vector<Timeline::SeriesId> ids_;
};

}  // namespace pgasq::obs
