// Optional per-event tracing of the simulated platform and the real
// host-parallel backend.
//
// The Timeline buckets only totals; when diagnosing scheduling decisions
// (why did GPU 2 idle during mode 1?) you want the actual event sequence.
// TraceLog records (device, engine, phase, start, duration, label) tuples
// and can export Chrome trace-event JSON, which chrome://tracing and
// Perfetto render as one row per (device, engine) pair. Tracing is opt-in
// via Platform::attach_trace — the hot paths pay nothing when no trace is
// attached.
//
// Both backends write the same rows for the same plan: the simulator
// records modelled timestamps, the host backend records wall-clock
// timestamps measured on its GPU threads and calling thread (host_now()
// gives seconds since the log was created, so events from many plan runs
// in one ALS share a monotone clock). Loading the two files side by side
// in Perfetto shows modelled vs measured timelines with identical row and
// label structure.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "sim/timeline.hpp"

namespace amped::sim {

struct TraceEvent {
  int device = 0;   // GPU id, or -1 for the host
  int engine = 0;   // 0 = compute/lane thread, 1 = copy engine
  Phase phase = Phase::kCompute;
  double start_s = 0.0;
  double duration_s = 0.0;
  std::string label;
};

class TraceLog {
 public:
  // `capacity` bounds memory; once full, further events are counted but
  // dropped (dropped() reports how many, and the Chrome export surfaces
  // the count instead of silently truncating the timeline).
  explicit TraceLog(std::size_t capacity = 1 << 20)
      : capacity_(capacity),
        origin_(std::chrono::steady_clock::now()) {}

  // Thread-safe: host-backend lane threads record concurrently.
  void record(TraceEvent event);

  // Wall-clock seconds since this log was created — the time base for
  // host-backend events, monotone across every plan run in a job.
  double host_now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t dropped() const { return dropped_; }
  void clear();

  // Total duration attributed to `phase` on `device` (-2 = any device).
  double total(Phase phase, int device = -2) const;

  // Chrome trace-event JSON: "traceEvents" holds one complete event
  // ("ph":"X", ts/dur in microseconds) per recorded event plus one
  // thread_name metadata event per (device, engine) row — "gpu0",
  // "gpu0 copy", "host". tid = device*2 + engine for devices, a high
  // sentinel range for host rows. Dropped-event counts land in
  // "otherData" so a truncated timeline is visibly truncated.
  void write_chrome_json(std::ostream& out) const;
  void write_chrome_json_file(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::size_t dropped_ = 0;
};

}  // namespace amped::sim
