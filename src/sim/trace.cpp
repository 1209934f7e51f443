#include "sim/trace.hpp"

#include <fstream>
#include <sstream>
#include <unordered_set>

#include "util/error.hpp"
#include "util/log.hpp"

namespace pgasq::sim {

std::uint32_t TraceRecorder::register_track(const std::string& name,
                                            bool muted) {
  tracks_.push_back(name);
  muted_.push_back(muted);
  if (muted) sampling_ = true;
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

bool TraceRecorder::room() {
  if (events_.size() < max_events_) return true;
  if (!truncated_) {
    truncated_ = true;
    PGASQ_LOG(kWarn) << "trace truncated at " << max_events_
                     << " events; later events are dropped "
                        "(raise trace.max_events)";
  }
  return false;
}

void TraceRecorder::begin_slice(std::uint32_t track, Time at) {
  if (muted_[track] || !room()) return;
  events_.push_back(Event{'B', track, at, 0, 0, {}, {}});
}

void TraceRecorder::end_slice(std::uint32_t track, Time at) {
  if (muted_[track] || !room()) return;
  events_.push_back(Event{'E', track, at, 0, 0, {}, {}});
}

void TraceRecorder::instant(std::uint32_t track, const std::string& name,
                            Time at, TraceArgs args) {
  if (muted_[track] || !room()) return;
  events_.push_back(Event{'i', track, at, 0, 0, name, std::move(args)});
}

void TraceRecorder::complete(std::uint32_t track, const std::string& name,
                             Time at, Time dur, TraceArgs args) {
  if (muted_[track] || !room()) return;
  events_.push_back(Event{'X', track, at, dur, 0, name, std::move(args)});
}

void TraceRecorder::flow_point(char phase, std::uint32_t track,
                               const std::string& name, std::uint64_t id,
                               Time at, TraceArgs args) {
  PGASQ_CHECK(phase == 's' || phase == 't' || phase == 'f',
              << "bad flow phase '" << phase << "'");
  PGASQ_CHECK(id != 0, << "flow id 0 is reserved for 'no flow'");
  if (muted_[track]) return;
  // Anchor slice first so the flow event binds to it.
  complete(track, name, at, 0, std::move(args));
  if (!room()) return;
  events_.push_back(Event{phase, track, at, 0, id, name, {}});
}

namespace {
void append_escaped(std::ostringstream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

void append_args(std::ostringstream& os, const TraceArgs& args) {
  os << ",\"args\":{";
  bool first = true;
  for (const auto& [k, v] : args) {
    if (!first) os << ',';
    first = false;
    os << '"';
    append_escaped(os, k);
    os << "\":\"";
    append_escaped(os, v);
    os << '"';
  }
  os << '}';
}
}  // namespace

std::string TraceRecorder::to_json() const {
  // Under rank sampling a flow can start on a muted track: its 't'/'f'
  // points would render as arrows from nowhere (and trip the trace
  // validator). Prune continuations whose start was never recorded.
  std::unordered_set<std::uint64_t> started;
  if (sampling_) {
    for (const auto& e : events_)
      if (e.phase == 's') started.insert(e.id);
  }
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata so tracks show fiber names.
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(os, tracks_[t]);
    os << "\"}}";
  }
  for (const auto& e : events_) {
    if (sampling_ && (e.phase == 't' || e.phase == 'f') &&
        started.find(e.id) == started.end()) {
      continue;
    }
    if (!first) os << ',';
    first = false;
    // ts is in microseconds of virtual time.
    os << "{\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << e.track
       << ",\"ts\":" << to_us(e.at);
    switch (e.phase) {
      case 'B':
      case 'E':
        os << ",\"name\":\"run\"";
        break;
      case 'i':
        os << ",\"s\":\"t\",\"name\":\"";
        append_escaped(os, e.name);
        os << '"';
        if (!e.args.empty()) append_args(os, e.args);
        break;
      case 'X':
        os << ",\"dur\":" << to_us(e.dur) << ",\"name\":\"";
        append_escaped(os, e.name);
        os << '"';
        if (!e.args.empty()) append_args(os, e.args);
        break;
      case 's':
      case 't':
      case 'f':
        os << ",\"cat\":\"flow\",\"id\":" << e.id << ",\"name\":\"";
        append_escaped(os, e.name);
        os << '"';
        if (e.phase == 'f') os << ",\"bp\":\"e\"";
        break;
      default:
        PGASQ_UNREACHABLE("unknown trace phase");
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

void TraceRecorder::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  PGASQ_CHECK(out.good(), << "cannot open trace file '" << path << "'");
  out << to_json();
  PGASQ_CHECK(out.good(), << "failed writing trace file '" << path << "'");
}

}  // namespace pgasq::sim
