// Per-phase query timing helpers shared by the batched QueryEngine and
// exact kNN. Each query path splits into the same four phases
// the paper's per-stage breakdowns use — prepare (normalise/PAA/signature),
// load (partition + sidecar reads), scan (tree traversal + ranking), merge
// (combining per-partition top-k) — and records each into a histogram named
// "tardis.query.<path>.<phase>_us".
//
// Everything here is inert when telemetry is disabled: the constructor costs
// one relaxed atomic load and no clock read.

#ifndef TARDIS_CORE_QUERY_TELEMETRY_H_
#define TARDIS_CORE_QUERY_TELEMETRY_H_

#include <string>

#include "common/stopwatch.h"
#include "common/telemetry.h"

namespace tardis {
namespace qtel {

inline telemetry::Histogram& PhaseHistogram(const char* path,
                                            const char* phase) {
  return telemetry::Registry::Global().GetHistogram(
      std::string("tardis.query.") + path + "." + phase + "_us");
}

// Records one phase duration (used from parallel sections where a single
// sequential timer cannot span the work).
inline void ObservePhase(const char* path, const char* phase,
                         double seconds) {
  if (!telemetry::Enabled()) return;
  PhaseHistogram(path, phase).ObserveSeconds(seconds);
}

// Sequential phase timer: Lap("prepare") observes the time since the last
// lap (or construction) and restarts the clock.
class PhaseTimer {
 public:
  explicit PhaseTimer(const char* path)
      : on_(telemetry::Enabled()), path_(path) {
    if (on_) sw_.Restart();
  }

  void Lap(const char* phase) {
    if (!on_) return;
    PhaseHistogram(path_, phase).ObserveSeconds(sw_.ElapsedSeconds());
    sw_.Restart();
  }

  // Restarts the clock without recording (skips a phase that belongs to
  // another timer, e.g. parallel work accounted via ObservePhase).
  void Skip() {
    if (on_) sw_.Restart();
  }

  bool on() const { return on_; }

 private:
  bool on_;
  const char* path_;
  Stopwatch sw_;
};

}  // namespace qtel
}  // namespace tardis

#endif  // TARDIS_CORE_QUERY_TELEMETRY_H_
