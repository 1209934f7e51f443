#include "obs/link_usage.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/table.hpp"

namespace pgasq::obs {

Options Options::from_config(const Config& cfg, Options defaults) {
  Options opt = defaults;
  opt.links = cfg.get_bool("obs.links", opt.links);
  opt.link_bucket = from_us(cfg.get_double("obs.link_bucket_us",
                                           to_us(opt.link_bucket)));
  opt.link_top = static_cast<int>(cfg.get_int("obs.link_top", opt.link_top));
  opt.timeline = cfg.get_bool("obs.timeline", opt.timeline);
  opt.timeline_bucket = from_us(
      cfg.get_double("obs.timeline_bucket_us", to_us(opt.timeline_bucket)));
  const std::int64_t max_series =
      cfg.get_int("obs.timeline_max_series", opt.timeline_max_series);
  PGASQ_CHECK(max_series > 0, << "obs.timeline_max_series must be positive");
  opt.timeline_max_series = static_cast<int>(max_series);
  opt.timeline_top =
      static_cast<int>(cfg.get_int("obs.timeline_top", opt.timeline_top));
  opt.critpath = cfg.get_bool("obs.critpath", opt.critpath);
  opt.critpath_top =
      static_cast<int>(cfg.get_int("obs.critpath_top", opt.critpath_top));
  return opt;
}

Options Options::from_config(const Config& cfg) {
  return from_config(cfg, Options{});
}

namespace {
constexpr char kDimNames[topo::kDims + 1] = "ABCDE";
// Intensity ramp, index 0 (idle) .. 9 (saturated).
constexpr char kRamp[] = " .:-=+*#%@";
constexpr int kRampLevels = 9;
// Widest heatmap body before buckets get merged into wider columns.
constexpr std::int64_t kMaxColumns = 72;
}  // namespace

LinkUsage::LinkUsage(const topo::Torus5D& torus, Time bucket_width)
    : torus_(torus), bucket_(bucket_width) {
  PGASQ_CHECK(bucket_ > 0, << "link bucket width must be positive");
}

void LinkUsage::record_hop(const topo::Link& link, Time at,
                           std::uint64_t bytes) {
  Row& row = links_[torus_.link_index(link)];
  row.total += bytes;
  row.buckets[bucket_of(at)] += bytes;
}

void LinkUsage::record_wait(const topo::Link& link, Time /*at*/, Time waited) {
  Row& row = links_[torus_.link_index(link)];
  row.wait_count += 1;
  row.wait_total += waited;
}

void LinkUsage::note_transfer(std::uint64_t bytes) {
  transfers_ += 1;
  injected_bytes_ += bytes;
}

void LinkUsage::record_transfer(const std::vector<topo::Link>& route, Time at,
                                std::uint64_t bytes) {
  note_transfer(bytes);
  for (const auto& link : route) record_hop(link, at, bytes);
}

std::uint64_t LinkUsage::link_bytes_total() const {
  std::uint64_t total = 0;
  for (const auto& [idx, row] : links_) total += row.total;
  return total;
}

Time LinkUsage::end_time() const {
  std::int64_t last = -1;
  for (const auto& [idx, row] : links_) {
    if (!row.buckets.empty()) last = std::max(last, row.buckets.rbegin()->first);
  }
  return (last + 1) * bucket_;
}

double LinkUsage::max_utilization(double bytes_per_ns) const {
  const double capacity = bytes_per_ns * to_ns(bucket_);
  double peak = 0.0;
  for (const auto& [idx, row] : links_) {
    for (const auto& [b, bytes] : row.buckets) {
      peak = std::max(peak, static_cast<double>(bytes) / capacity);
    }
  }
  return peak;
}

double LinkUsage::mean_utilization(double bytes_per_ns) const {
  // Mean over active links across the full [0, end_time) window.
  const Time end = end_time();
  if (end == 0 || links_.empty()) return 0.0;
  const double window_capacity = bytes_per_ns * to_ns(end);
  double sum = 0.0;
  for (const auto& [idx, row] : links_) {
    sum += static_cast<double>(row.total) / window_capacity;
  }
  return sum / static_cast<double>(links_.size());
}

std::string LinkUsage::link_name(int link_index) const {
  const int node = link_index / (topo::kDims * 2);
  const int rest = link_index % (topo::kDims * 2);
  const int dim = rest / 2;
  const char dir = (rest % 2) ? '-' : '+';
  std::ostringstream os;
  os << 'n' << node << ' ' << kDimNames[dim] << dir;
  return os.str();
}

std::vector<std::pair<int, const LinkUsage::Row*>> LinkUsage::sorted_rows()
    const {
  std::vector<std::pair<int, const Row*>> rows;
  rows.reserve(links_.size());
  for (const auto& [idx, row] : links_) rows.emplace_back(idx, &row);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second->total != b.second->total) {
      return a.second->total > b.second->total;
    }
    return a.first < b.first;
  });
  return rows;
}

std::string LinkUsage::heatmap(double bytes_per_ns, int top_links) const {
  std::ostringstream os;
  if (links_.empty()) {
    os << "  (no link traffic recorded)\n";
    return os.str();
  }
  const Time end = end_time();
  const std::int64_t n_buckets = end / bucket_;
  const std::int64_t merge = std::max<std::int64_t>(
      1, (n_buckets + kMaxColumns - 1) / kMaxColumns);
  const std::int64_t n_cols = (n_buckets + merge - 1) / merge;
  const double col_capacity =
      bytes_per_ns * to_ns(bucket_) * static_cast<double>(merge);

  os << "link utilization heatmap (hottest links first):\n";
  char head[160];
  std::snprintf(head, sizeof head,
                "  bucket %.0f us x %lld cols (x%lld merge), capacity %.2f "
                "GB/s/link, scale \"%s\" = 0..100%%\n",
                to_us(bucket_), static_cast<long long>(n_cols),
                static_cast<long long>(merge), bytes_per_ns, kRamp + 1);
  os << head;
  std::snprintf(head, sizeof head,
                "  max util %.1f%%  mean util %.1f%%  active links %zu/%d  "
                "bytes x hops %s\n",
                100.0 * max_utilization(bytes_per_ns),
                100.0 * mean_utilization(bytes_per_ns), links_.size(),
                torus_.num_links(), format_bytes(link_bytes_total()).c_str());
  os << head;

  auto rows = sorted_rows();
  const std::size_t shown =
      std::min<std::size_t>(rows.size(), static_cast<std::size_t>(
                                             std::max(1, top_links)));
  // Fixed-width link labels keep the columns aligned.
  std::size_t label_width = 0;
  for (std::size_t i = 0; i < shown; ++i) {
    label_width = std::max(label_width, link_name(rows[i].first).size());
  }
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& [idx, row] = rows[i];
    std::string label = link_name(idx);
    label.resize(label_width, ' ');
    std::vector<double> cols(static_cast<std::size_t>(n_cols), 0.0);
    for (const auto& [b, bytes] : row->buckets) {
      cols[static_cast<std::size_t>(b / merge)] +=
          static_cast<double>(bytes) / col_capacity;
    }
    os << "  " << label << " |";
    for (const double u : cols) {
      int level = 0;
      if (u > 0.0) {
        level = 1 + static_cast<int>(std::min(1.0, u) * (kRampLevels - 1));
        level = std::min(level, kRampLevels);
      }
      os << kRamp[level];
    }
    char tail[96];
    std::snprintf(tail, sizeof tail, "| %8s  wait %.1f us\n",
                  format_bytes(row->total).c_str(), to_us(row->wait_total));
    os << tail;
  }
  if (rows.size() > shown) {
    os << "  (" << rows.size() - shown << " cooler links not shown; CSV has "
       << "all of them)\n";
  }
  return os.str();
}

std::string LinkUsage::to_csv() const {
  std::ostringstream os;
  const Time end = end_time();
  const std::int64_t n_buckets = end / bucket_;
  os << "link_index,name,total_bytes,wait_ns,wait_count";
  for (std::int64_t b = 0; b < n_buckets; ++b) {
    os << ",us" << static_cast<long long>(to_us(bucket_ * b));
  }
  os << '\n';
  for (const auto& [idx, row] : sorted_rows()) {
    os << idx << ',' << link_name(idx) << ',' << row->total << ','
       << to_ns(row->wait_total) << ',' << row->wait_count;
    for (std::int64_t b = 0; b < n_buckets; ++b) {
      const auto it = row->buckets.find(b);
      os << ',' << (it == row->buckets.end() ? 0 : it->second);
    }
    os << '\n';
  }
  return os.str();
}

void LinkUsage::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  PGASQ_CHECK(out.good(), << "cannot open link CSV file '" << path << "'");
  out << to_csv();
  PGASQ_CHECK(out.good(), << "failed writing link CSV file '" << path << "'");
}

Json LinkUsage::to_json() const {
  Json j = Json::object();
  j.set("bucket_us", Json::number(to_us(bucket_)));
  j.set("transfers", Json::number(transfers_));
  j.set("injected_bytes", Json::number(injected_bytes_));
  j.set("link_bytes_total", Json::number(link_bytes_total()));
  Json arr = Json::array();
  for (const auto& [idx, row] : sorted_rows()) {
    Json l = Json::object();
    l.set("link", Json::number(static_cast<std::int64_t>(idx)));
    l.set("name", Json::string(link_name(idx)));
    l.set("bytes", Json::number(row->total));
    l.set("wait_ns", Json::number(to_ns(row->wait_total)));
    l.set("wait_count", Json::number(row->wait_count));
    Json buckets = Json::array();
    for (const auto& [b, bytes] : row->buckets) {
      Json pair = Json::array();
      pair.push(Json::number(static_cast<std::int64_t>(b)));
      pair.push(Json::number(bytes));
      buckets.push(std::move(pair));
    }
    l.set("buckets", std::move(buckets));
    arr.push(std::move(l));
  }
  j.set("links", std::move(arr));
  return j;
}

}  // namespace pgasq::obs
