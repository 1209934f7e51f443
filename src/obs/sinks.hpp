// The observation sinks of one run. pami::Machine is the only code
// that decides which sinks exist: it builds them before the subsystems
// that feed them and hands each feeder this struct once, at
// construction. A feeder keeps the pointers it needs. The trace
// recorder, link usage and critical path are nullptr when off, and
// every call into them stays behind that pointer check (their
// arguments are not built when off). The timeline always exists and is
// disabled when obs.timeline is off, so feeding it needs no check.
//
// Adding a sink: a member here, built in pami::Machine's constructor;
// only its feeders read it.
#pragma once

#include "obs/timeline.hpp"

namespace pgasq::sim {
class TraceRecorder;
}  // namespace pgasq::sim

namespace pgasq::obs {

class CritPath;
class LinkUsage;

struct Sinks {
  sim::TraceRecorder* trace = nullptr;
  Timeline* timeline = &Timeline::disabled();
  LinkUsage* links = nullptr;
  CritPath* critpath = nullptr;
};

}  // namespace pgasq::obs
