// Closed-loop load over loopback TCP against an in-process TardisServer.
//
// Each connection is one ServeClient driven by one thread that keeps a fixed
// number of requests outstanding: it fills the pipeline, then sends the next
// request only when a response comes back. A slower server therefore sees
// less offered load instead of a growing queue, which is what makes the
// latency and throughput figures repeat from run to run.
//
// The loop runs a warm-up, then a measured window whose length the caller
// controls, then drains every outstanding request. Every response is handed
// to the caller's checker; a wrong answer, an error or a refusal counts as a
// failed operation. While tracing is enabled, each request is recorded as a
// "bench.request.<op>" span (Send to Receive) carrying its request_id.

#ifndef TARDIS_PERFBENCH_CLOSED_LOOP_H_
#define TARDIS_PERFBENCH_CLOSED_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "net/serve_protocol.h"

namespace tardis {
namespace perfbench {

// One request as the workload generates it. The loop assigns request_id;
// `tag` is opaque to the loop and handed back to the checker.
struct Outgoing {
  net::ServeRequest req;
  uint64_t tag = 0;
};

struct LoadSpec {
  uint16_t port = 0;
  uint32_t connections = 2;
  uint32_t outstanding = 16;  // per connection
  // Builds the `seq`-th request of connection `conn`. Called concurrently
  // from the connection threads.
  std::function<Outgoing(uint32_t conn, uint64_t seq)> next;
  // Returns true when a kOk response answers its request correctly. Called
  // concurrently from the connection threads.
  std::function<bool(uint32_t conn, uint64_t tag,
                     const net::ServeResponse& resp)>
      check;
};

struct LoadTally {
  uint64_t attempted = 0;   // requests sent, warm-up and drain included
  uint64_t ok = 0;          // kOk and checked correct
  uint64_t wrong = 0;       // kOk but the answer failed its check
  uint64_t overloaded = 0;  // refused by admission control
  uint64_t errors = 0;      // kInvalidRequest, kError, transport failures
  // Send and Receive time of every correct response, in seconds from the
  // start of the measured window (negative during the warm-up).
  struct Sample {
    double sent_s;
    double recv_s;
  };
  std::vector<Sample> samples;
  double window_s = 0.0;

  uint64_t failed() const { return wrong + overloaded + errors; }
  // Correct responses received while the window was open.
  uint64_t CompletedInWindow() const;
  // Send-to-Receive milliseconds of the correct requests sent inside the
  // window.
  std::vector<double> WindowLatenciesMs() const;
  // The window cut into whole slices of `slice_s` seconds: the median over
  // the slices of each slice's throughput (responses received in it per
  // second) and of the q-quantile latency of the requests sent in it.
  // Medians over slices keep a burst of outside interference in one slice
  // from moving the figure.
  double SliceMedianQps(double slice_s) const;
  double SliceMedianLatencyMs(double slice_s, double q) const;
};

// Runs the loop: `warmup_s` seconds of traffic, then opens the measured
// window and calls `window`, which returns when the window should close;
// then stops sending and drains.
LoadTally RunClosedLoop(const LoadSpec& spec, double warmup_s,
                        const std::function<void()>& window);

// Interpolated quantile of `samples` (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

}  // namespace perfbench
}  // namespace tardis

#endif  // TARDIS_PERFBENCH_CLOSED_LOOP_H_
