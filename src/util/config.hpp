// Small key=value configuration store with typed getters, used by the
// benchmark binaries to accept "--key=value" overrides without pulling
// in a CLI library.
//
// A key is valid exactly when the program reads it: every getter marks
// the key it asked for as read, and a Config made by from_args checks
// at destruction (the end of main) that no stored key went unread.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace pgasq {

class Config {
 public:
  Config() = default;
  /// Move-only: a copy would record reads the original never sees.
  Config(Config&& other) noexcept;
  Config(const Config&) = delete;
  Config& operator=(const Config&) = delete;
  /// From from_args only: prints unknown_options() to stderr and exits
  /// with status 2 if any are left. Skipped while an exception is
  /// propagating; never throws.
  ~Config();

  /// Parses "--key=value" / "key=value" tokens and bare "--flag"s
  /// (boolean true). Throws Error on any other token.
  static Config from_args(int argc, char** argv);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// All keys, for diagnostics (listing does not count as reading).
  std::vector<std::string> keys() const;

  /// "unknown option <key>" per stored key no getter read, plus
  /// "(did you mean <name>?)" for an asked-for name within edit
  /// distance 2.
  std::vector<std::string> unknown_options() const;

 private:
  struct Value {
    std::string text;
    mutable bool read = false;
  };
  const std::string* find(const std::string& key) const;
  std::map<std::string, Value> values_;
  /// Every name a getter asked for, stored or not: the typo hints.
  mutable std::set<std::string> asked_;
  bool check_unread_ = false;
};

}  // namespace pgasq
