#include "util/config.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "util/error.hpp"

namespace pgasq {

Config::Config(Config&& other) noexcept
    : values_(std::move(other.values_)),
      asked_(std::move(other.asked_)),
      check_unread_(std::exchange(other.check_unread_, false)) {}

Config::~Config() {
  if (!check_unread_ || std::uncaught_exceptions() > 0) return;
  const std::vector<std::string> unknown = unknown_options();
  if (unknown.empty()) return;
  for (const std::string& line : unknown) std::fprintf(stderr, "%s\n", line.c_str());
  std::exit(2);
}

Config Config::from_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const bool dashed = tok.rfind("--", 0) == 0;
    const std::string body = dashed ? tok.substr(2) : tok;
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      cfg.set(body.substr(0, eq), body.substr(eq + 1));
    } else {
      PGASQ_CHECK(dashed, << "argument '" << tok
                          << "' is neither key=value nor --flag");
      cfg.set(body, "true");  // bare flag: boolean true
    }
  }
  cfg.check_unread_ = true;
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  PGASQ_CHECK(!key.empty());
  values_[key] = Value{value};
}

bool Config::has(const std::string& key) const { return find(key) != nullptr; }

const std::string* Config::find(const std::string& key) const {
  asked_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  it->second.read = true;
  return &it->second.text;
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  const std::string* v = find(key);
  return v ? *v : fallback;
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 0);
  PGASQ_CHECK(end && *end == '\0', << "config key '" << key << "' is not an integer: " << *v);
  return parsed;
}

double Config::get_double(const std::string& key, double fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  PGASQ_CHECK(end && *end == '\0', << "config key '" << key << "' is not a number: " << *v);
  return parsed;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  PGASQ_CHECK(false, << "config key '" << key << "' is not a boolean: " << *v);
  return fallback;
}

namespace {

/// Plain Levenshtein distance, small strings only.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

std::vector<std::string> Config::unknown_options() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (value.read) continue;
    // Closest asked-for name, for the typo hint.
    std::size_t best_dist = 3;
    const std::string* best = nullptr;
    for (const std::string& name : asked_) {
      const std::size_t d = edit_distance(key, name);
      if (d < best_dist) {
        best_dist = d;
        best = &name;
      }
    }
    std::string line = "unknown option " + key;
    if (best != nullptr) line += " (did you mean " + *best + "?)";
    out.push_back(std::move(line));
  }
  return out;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace pgasq
