#include "obs/registry.hpp"

#include <cstdio>

#include "util/error.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace pgasq::obs {

Registry::Metric& Registry::find_or_create(const std::string& name,
                                           const Labels& labels, Kind kind) {
  for (auto& m : metrics_) {
    if (m.name == name && m.labels == labels) {
      PGASQ_CHECK(m.kind == kind, << "metric '" << name
                                  << "' re-registered with a different type");
      return m;
    }
  }
  Metric& m = metrics_.emplace_back();
  m.name = name;
  m.labels = labels;
  m.kind = kind;
  return m;
}

void Registry::set_counter(const std::string& name, std::uint64_t value,
                           Labels labels) {
  find_or_create(name, labels, Kind::kCounter).count = value;
}

void Registry::set_gauge(const std::string& name, double value, Labels labels) {
  find_or_create(name, labels, Kind::kGauge).value = value;
}

template <class Hist>
void Registry::set_histogram(const std::string& name, const Hist& hist, Labels labels) {
  Metric& m = find_or_create(name, labels, Kind::kHistogram);
  m.total = hist.total();
  m.buckets.clear();
  for (std::size_t i = 0; i < hist.bucket_count(); ++i) m.buckets.push_back(hist.bucket(i));
}
template void Registry::set_histogram(const std::string&, const Log2Histogram&, Labels);
template void Registry::set_histogram(const std::string&, const util::Histogram&, Labels);

void Registry::merge_from(const Registry& other) {
  for (const Metric& src : other.metrics_) {
    find_or_create(src.name, src.labels, src.kind) = src;
  }
}

std::string Registry::to_text() const {
  std::string out;
  char buf[64];
  for (const auto& m : metrics_) {
    out += "  " + m.name;
    if (!m.labels.empty()) {
      char sep = '{';
      for (const auto& [k, v] : m.labels) {
        out += sep + k + '=' + v;
        sep = ',';
      }
      out += '}';
    }
    if (m.kind == Kind::kCounter) {
      std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(m.count));
    } else if (m.kind == Kind::kGauge) {
      std::snprintf(buf, sizeof buf, "%.3f", m.value);
    } else {
      std::snprintf(buf, sizeof buf, "histogram(total=%llu)",
                    static_cast<unsigned long long>(m.total));
    }
    out += " = ";
    out += buf;
    out += '\n';
  }
  return out;
}

Json Registry::to_json() const {
  Json arr = Json::array();
  for (const auto& m : metrics_) {
    Json j = Json::object();
    j.set("name", Json::string(m.name));
    if (!m.labels.empty()) {
      Json labels = Json::object();
      for (const auto& [k, v] : m.labels) labels.set(k, Json::string(v));
      j.set("labels", std::move(labels));
    }
    if (m.kind == Kind::kHistogram) {
      j.set("type", Json::string("histogram"));
      j.set("total", Json::number(m.total));
      Json buckets = Json::array();
      for (const std::uint64_t b : m.buckets) buckets.push(Json::number(b));
      j.set("buckets", std::move(buckets));
    } else if (m.kind == Kind::kCounter) {
      j.set("type", Json::string("counter"));
      j.set("value", Json::number(m.count));
    } else {
      j.set("type", Json::string("gauge"));
      j.set("value", Json::number(m.value));
    }
    arr.push(std::move(j));
  }
  return arr;
}

}  // namespace pgasq::obs
