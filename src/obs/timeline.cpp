#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/log.hpp"

namespace pgasq::obs {

namespace {
// Intensity ramp shared with the link heatmap, index 0 (idle) .. 9.
constexpr char kRamp[] = " .:-=+*#%@";
constexpr int kRampLevels = 9;
// Widest sparkline body before buckets merge into wider columns.
constexpr std::int64_t kMaxColumns = 72;

const char* kind_name(Timeline::Kind k) {
  return k == Timeline::Kind::kGauge ? "gauge" : "counter";
}

// Representative value of one bucket for CSV/sparkline rendering.
double bucket_value(Timeline::Kind k, std::uint64_t count, double sum) {
  if (k == Timeline::Kind::kCounter) return static_cast<double>(count);
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}
}  // namespace

Timeline::Timeline(Time bucket_width, std::size_t max_series)
    : bucket_(bucket_width), max_series_(max_series) {
  PGASQ_CHECK(bucket_ > 0, << "timeline bucket width must be positive");
  PGASQ_CHECK(max_series_ > 0, << "timeline series cap must be positive");
}

Timeline& Timeline::disabled() {
  static Timeline off;
  return off;
}

Timeline::SeriesId Timeline::series(const std::string& name, Kind kind) {
  if (!enabled()) return kNone;
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  if (series_.size() >= max_series_) {
    if (!truncated_) {
      truncated_ = true;
      PGASQ_LOG(kWarn) << "timeline truncated at " << max_series_
                       << " series; later series are dropped "
                          "(raise obs.timeline_max_series)";
    }
    return kNone;
  }
  const SeriesId id = static_cast<SeriesId>(series_.size());
  series_.push_back(Series{name, kind, 0, 0.0, {}});
  index_.emplace(name, id);
  return id;
}

Time Timeline::end_time() const {
  std::int64_t last = -1;
  for (const Series& s : series_) {
    if (!s.buckets.empty()) last = std::max(last, s.buckets.rbegin()->first);
  }
  return (last + 1) * bucket_;
}

bool Timeline::has(const std::string& name) const {
  return index_.find(name) != index_.end();
}

std::uint64_t Timeline::counter_total(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return 0;
  const Series& s = series_[it->second];
  return s.kind == Kind::kCounter ? s.samples : 0;
}

double Timeline::gauge_peak(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return 0.0;
  const Series& s = series_[it->second];
  return s.kind == Kind::kGauge ? s.peak : 0.0;
}

std::vector<Timeline::SeriesId> Timeline::sorted_ids() const {
  std::vector<SeriesId> ids(series_.size());
  for (SeriesId i = 0; i < ids.size(); ++i) ids[i] = i;
  std::sort(ids.begin(), ids.end(), [this](SeriesId a, SeriesId b) {
    return series_[a].name < series_[b].name;
  });
  return ids;
}

std::string Timeline::render(int top) const {
  std::ostringstream os;
  if (series_.empty()) {
    os << "  (no timeline samples recorded)\n";
    return os.str();
  }
  const Time end = end_time();
  const std::int64_t n_buckets = std::max<std::int64_t>(1, end / bucket_);
  const std::int64_t merge =
      std::max<std::int64_t>(1, (n_buckets + kMaxColumns - 1) / kMaxColumns);
  const std::int64_t n_cols = (n_buckets + merge - 1) / merge;

  os << "timeline (per-series sparklines, busiest first):\n";
  char head[160];
  std::snprintf(head, sizeof head,
                "  bucket %.0f us x %lld cols (x%lld merge), scale \"%s\" = "
                "0..series max\n",
                to_us(bucket_), static_cast<long long>(n_cols),
                static_cast<long long>(merge), kRamp + 1);
  os << head;

  // Busiest-first: by total samples, ties by name.
  auto ids = sorted_ids();
  std::stable_sort(ids.begin(), ids.end(), [this](SeriesId a, SeriesId b) {
    return series_[a].samples > series_[b].samples;
  });
  const std::size_t shown = std::min<std::size_t>(
      ids.size(), static_cast<std::size_t>(std::max(1, top)));
  std::size_t label_width = 0;
  for (std::size_t i = 0; i < shown; ++i) {
    label_width = std::max(label_width, series_[ids[i]].name.size());
  }
  for (std::size_t i = 0; i < shown; ++i) {
    const Series& s = series_[ids[i]];
    std::string label = s.name;
    label.resize(label_width, ' ');
    std::vector<double> cols(static_cast<std::size_t>(n_cols), 0.0);
    for (const auto& [b, bucket] : s.buckets) {
      double& cell = cols[static_cast<std::size_t>(b / merge)];
      if (s.kind == Kind::kCounter) {
        cell += static_cast<double>(bucket.count);
      } else {
        // Merged gauge columns keep the max of their bucket means so
        // a brief spike still shows at coarse column widths.
        cell = std::max(cell, bucket_value(s.kind, bucket.count, bucket.sum));
      }
    }
    double col_peak = 0.0;
    for (const double v : cols) col_peak = std::max(col_peak, v);
    os << "  " << label << " |";
    for (const double v : cols) {
      int level = 0;
      if (v > 0.0 && col_peak > 0.0) {
        level = 1 + static_cast<int>((v / col_peak) * (kRampLevels - 1));
        level = std::min(level, kRampLevels);
      }
      os << kRamp[level];
    }
    char tail[96];
    if (s.kind == Kind::kCounter) {
      std::snprintf(tail, sizeof tail, "| total %llu\n",
                    static_cast<unsigned long long>(s.samples));
    } else {
      std::snprintf(tail, sizeof tail, "| peak %.1f (n=%llu)\n", s.peak,
                    static_cast<unsigned long long>(s.samples));
    }
    os << tail;
  }
  if (ids.size() > shown) {
    os << "  (" << ids.size() - shown
       << " quieter series not shown; CSV/JSON have all of them)\n";
  }
  if (truncated_) {
    os << "  WARNING: series cap hit; some series were dropped "
          "(raise obs.timeline_max_series)\n";
  }
  return os.str();
}

std::string Timeline::to_csv() const {
  std::ostringstream os;
  const Time end = end_time();
  const std::int64_t n_buckets = end / bucket_;
  os << "series,kind,samples,peak";
  for (std::int64_t b = 0; b < n_buckets; ++b) {
    os << ",us" << static_cast<long long>(to_us(bucket_ * b));
  }
  os << '\n';
  for (const SeriesId id : sorted_ids()) {
    const Series& s = series_[id];
    os << s.name << ',' << kind_name(s.kind) << ',' << s.samples << ','
       << s.peak;
    for (std::int64_t b = 0; b < n_buckets; ++b) {
      const auto it = s.buckets.find(b);
      os << ',';
      if (it == s.buckets.end()) {
        os << 0;
      } else {
        os << bucket_value(s.kind, it->second.count, it->second.sum);
      }
    }
    os << '\n';
  }
  return os.str();
}

void Timeline::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  PGASQ_CHECK(out.good(), << "cannot open timeline CSV file '" << path << "'");
  out << to_csv();
  PGASQ_CHECK(out.good(),
              << "failed writing timeline CSV file '" << path << "'");
}

Json Timeline::to_json() const {
  Json j = Json::object();
  j.set("schema", Json::string("pgasq.timeline"));
  j.set("schema_version", Json::number(kSchemaVersion));
  j.set("bucket_us", Json::number(to_us(bucket_)));
  j.set("truncated", Json::boolean(truncated_));
  Json arr = Json::array();
  for (const SeriesId id : sorted_ids()) {
    const Series& s = series_[id];
    Json row = Json::object();
    row.set("name", Json::string(s.name));
    row.set("kind", Json::string(kind_name(s.kind)));
    row.set("samples", Json::number(s.samples));
    if (s.kind == Kind::kGauge) row.set("peak", Json::number(s.peak));
    Json buckets = Json::array();
    for (const auto& [b, bucket] : s.buckets) {
      Json cell = Json::array();
      cell.push(Json::number(static_cast<std::int64_t>(b)));
      if (s.kind == Kind::kCounter) {
        cell.push(Json::number(bucket.count));
      } else {
        cell.push(Json::number(bucket.count));
        cell.push(Json::number(bucket_value(s.kind, bucket.count, bucket.sum)));
        cell.push(Json::number(bucket.max));
      }
      buckets.push(std::move(cell));
    }
    row.set("buckets", std::move(buckets));
    arr.push(std::move(row));
  }
  j.set("series", std::move(arr));
  return j;
}

}  // namespace pgasq::obs
