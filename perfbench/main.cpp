// pgasq_perfbench: runs one workload of the two-clock benchmark once
// and prints its measurements as one JSON object on stdout.
//
//   pgasq_perfbench --workload scf|coll|kvs --seed N [--trace 0|1]
//                   [--trace-out spans.json]
//   pgasq_perfbench --check-scf-mirror
//
// perfbench/run.py repeats this, checks that every virtual figure and
// count repeats exactly, and summarises the host-clock figures.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

void print_map(const char* key, const std::map<std::string, double>& m) {
  std::printf("\"%s\":{", key);
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}");
}

void print_list(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i) std::printf("%s%.9g", i ? "," : "", v[i]);
  std::printf("]");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: pgasq_perfbench --workload scf|coll|kvs --seed N "
               "[--trace 0|1] [--trace-out PATH]\n"
               "       pgasq_perfbench --check-scf-mirror\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Arguments are only viewed, never copied: a heap allocation here would
  // shift the heap the simulation runs on, and the simulator keys memory
  // registrations by address, so a traced run (which has one more
  // argument) could then see different virtual times.
  std::string_view workload;
  const char* trace_out = nullptr;
  std::uint64_t seed = 1;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--check-scf-mirror") return check_scf_mirror();
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }

  Spans spans(trace);
  Result res;
  if (workload == "scf") {
    run_scf(seed, spans, res);
  } else if (workload == "coll") {
    run_coll(seed, spans, res);
  } else if (workload == "kvs") {
    run_kvs(seed, spans, res);
  } else {
    return usage();
  }
  res.finish(spans);
  if (trace && trace_out != nullptr) spans.write(trace_out);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::map<std::string, double> e2e;
  e2e["setup_s"] = res.setup_s;
  e2e["host_s"] = res.host_s;
  e2e["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  e2e["virt_ms"] = pgasq::to_ms(res.virt);
  e2e["virt_op_us.p50"] = pgasq::to_us(percentile(res.op_lat, 0.50));
  e2e["virt_op_us.p99"] = pgasq::to_us(percentile(res.op_lat, 0.99));
  e2e["ops"] = static_cast<double>(res.ops);
  e2e["ops_failed"] = static_cast<double>(res.ops_failed);

  std::printf("{\"workload\":\"%.*s\",\"seed\":%llu,\"trace\":%d,\"op_samples\":%zu,"
              "\"spans\":%zu,",
              static_cast<int>(workload.size()), workload.data(),
              static_cast<unsigned long long>(seed),
              trace ? 1 : 0, res.op_lat.size(), spans.size());
  print_map("e2e", e2e);
  std::printf(",");
  print_map("exact", res.exact);
  std::printf(",");
  print_map("traced", res.traced);
  // Host slices (see kSliceCalls), from which run.py takes each slice's
  // fastest run.
  std::vector<double> setup_slices, timed_slices;
  res.slices(setup_slices, timed_slices);
  std::printf(",\"slices\":{");
  print_list("setup_s", setup_slices);
  std::printf(",");
  print_list("host_s", timed_slices);
  std::printf("}");
  std::printf(",\"failures\":[");
  for (std::size_t i = 0; i < res.failures.size(); ++i) {
    std::printf("%s%s", i ? "," : "", json_string(res.failures[i]).c_str());
  }
  std::printf("]}\n");
  return 0;
}
