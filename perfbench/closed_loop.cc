#include "closed_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/telemetry.h"
#include "net/client.h"

namespace tardis {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct InFlight {
  Clock::time_point sent;
  uint64_t tag = 0;
  net::ServeOp op = net::ServeOp::kPing;
};

// A correct response, before the window start is known.
struct RawSample {
  Clock::time_point sent;
  Clock::time_point recv;
};

struct ConnTally {
  LoadTally counts;
  std::vector<RawSample> samples;
};

void RecordRequestSpan(const InFlight& f, uint64_t request_id,
                       Clock::time_point now) {
  const uint64_t dur_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - f.sent)
          .count());
  telemetry::SpanRecord rec;
  rec.name = std::string("bench.request.") + net::ServeOpName(f.op);
  const uint64_t now_us = telemetry::NowMicros();
  rec.start_us = now_us > dur_us ? now_us - dur_us : 0;
  rec.dur_us = dur_us;
  rec.tid = telemetry::ThreadIndex();
  rec.attrs.emplace_back("request_id", std::to_string(request_id));
  telemetry::Registry::Global().RecordSpan(std::move(rec));
}

void RunConnection(const LoadSpec& spec, uint32_t conn,
                   const std::atomic<bool>* stop, ConnTally* out) {
  LoadTally* tally = &out->counts;
  auto client_r = net::ServeClient::Connect(spec.port);
  if (!client_r.ok()) {
    ++tally->errors;
    return;
  }
  net::ServeClient client = std::move(client_r).value();
  std::unordered_map<uint64_t, InFlight> inflight;
  uint64_t seq = 0;

  const auto send_one = [&]() -> bool {
    Outgoing out = spec.next(conn, seq);
    out.req.request_id = seq * spec.connections + conn;
    ++seq;
    InFlight f;
    f.tag = out.tag;
    f.op = out.req.op;
    f.sent = Clock::now();
    ++tally->attempted;
    if (!client.Send(out.req).ok()) {
      ++tally->errors;
      return false;
    }
    inflight.emplace(out.req.request_id, f);
    return true;
  };

  bool healthy = true;
  for (uint32_t i = 0; i < spec.outstanding && healthy; ++i) {
    healthy = send_one();
  }
  while (healthy && !inflight.empty()) {
    Result<net::ServeResponse> resp = client.Receive();
    const Clock::time_point now = Clock::now();
    if (!resp.ok()) break;
    auto it = inflight.find(resp->request_id);
    if (it == inflight.end()) {
      ++tally->errors;  // an id this connection never sent
      continue;
    }
    const InFlight f = it->second;
    inflight.erase(it);
    switch (resp->status) {
      case net::ServeStatus::kOk:
        if (!spec.check(conn, f.tag, *resp)) {
          ++tally->wrong;
          break;
        }
        ++tally->ok;
        out->samples.push_back({f.sent, now});
        break;
      case net::ServeStatus::kOverloaded:
        ++tally->overloaded;
        break;
      case net::ServeStatus::kInvalidRequest:
      case net::ServeStatus::kError:
        ++tally->errors;
        break;
    }
    if (telemetry::TraceEnabled()) {
      RecordRequestSpan(f, resp->request_id, now);
    }
    if (!stop->load(std::memory_order_relaxed)) healthy = send_one();
  }
  tally->errors += inflight.size();  // never answered: the connection died
}

}  // namespace

LoadTally RunClosedLoop(const LoadSpec& spec, double warmup_s,
                        const std::function<void()>& window) {
  std::atomic<bool> stop{false};
  std::vector<ConnTally> tallies(spec.connections);
  std::vector<std::thread> threads;
  threads.reserve(spec.connections);
  for (uint32_t c = 0; c < spec.connections; ++c) {
    threads.emplace_back(RunConnection, std::cref(spec), c, &stop,
                         &tallies[c]);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const Clock::time_point t0 = Clock::now();
  window();
  const Clock::time_point t1 = Clock::now();
  stop.store(true);
  for (std::thread& t : threads) t.join();

  const auto offset = [t0](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  LoadTally sum;
  sum.window_s = offset(t1);
  for (const ConnTally& t : tallies) {
    sum.attempted += t.counts.attempted;
    sum.ok += t.counts.ok;
    sum.wrong += t.counts.wrong;
    sum.overloaded += t.counts.overloaded;
    sum.errors += t.counts.errors;
    for (const RawSample& s : t.samples) {
      sum.samples.push_back({offset(s.sent), offset(s.recv)});
    }
  }
  return sum;
}

uint64_t LoadTally::CompletedInWindow() const {
  uint64_t n = 0;
  for (const Sample& s : samples) {
    if (s.recv_s >= 0 && s.recv_s < window_s) ++n;
  }
  return n;
}

std::vector<double> LoadTally::WindowLatenciesMs() const {
  std::vector<double> ms;
  for (const Sample& s : samples) {
    if (s.sent_s >= 0 && s.sent_s < window_s) {
      ms.push_back((s.recv_s - s.sent_s) * 1e3);
    }
  }
  return ms;
}

double LoadTally::SliceMedianQps(double slice_s) const {
  const size_t slices = static_cast<size_t>(window_s / slice_s);
  std::vector<double> count(slices, 0.0);
  for (const Sample& s : samples) {
    if (s.recv_s < 0) continue;
    const size_t i = static_cast<size_t>(s.recv_s / slice_s);
    if (i < slices) count[i] += 1.0;
  }
  for (double& c : count) c /= slice_s;
  return Median(std::move(count));
}

double LoadTally::SliceMedianLatencyMs(double slice_s, double q) const {
  const size_t slices = static_cast<size_t>(window_s / slice_s);
  std::vector<std::vector<double>> ms(slices);
  for (const Sample& s : samples) {
    if (s.sent_s < 0) continue;
    const size_t i = static_cast<size_t>(s.sent_s / slice_s);
    if (i < slices) ms[i].push_back((s.recv_s - s.sent_s) * 1e3);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& v : ms) {
    per_slice.push_back(Quantile(std::move(v), q));
  }
  return Median(std::move(per_slice));
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - lo);
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

}  // namespace perfbench
}  // namespace tardis
