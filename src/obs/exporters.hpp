// Telemetry exporters (ISSUE 2 tentpole).
//
// Two machine-readable views of a run:
//   - a metrics JSON dump of MetricsSnapshot(s) with a stable, sorted
//     schema ("tshmem.metrics.v1"), suitable for diffing across PRs and for
//     feeding BENCH_*.json comparison tooling;
//   - a Chrome trace-event / Perfetto JSON export of TraceRecorder events:
//     virtual picoseconds mapped to trace microseconds, one pid per device
//     run, one tid (track) per tile. Load in https://ui.perfetto.dev or
//     chrome://tracing.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace obs {

inline constexpr const char* kMetricsSchema = "tshmem.metrics.v1";

/// One device run's timeline: `pid`/`process_name` label the trace process
/// (benches sweeping several devices emit one track group per device).
struct TraceTrack {
  int pid = 0;
  std::string process_name;
  std::vector<TraceEvent> events;
};

/// Writes `{"schema": ..., "runs": [snapshot, ...]}`. Counters, gauges and
/// histograms are sorted by (name, pe) inside each run; keys are emitted in
/// a fixed order, so byte-level diffs of two dumps are meaningful.
void write_metrics_json(std::ostream& os,
                        const std::vector<MetricsSnapshot>& runs);

/// Single-run convenience overload.
void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot);

/// A wait-for dependency rendered as a Perfetto flow arrow: producer
/// (src_tile @ src_ps) -> consumer (dst_tile @ dst_ps) inside process
/// `pid`. Emitted as paired "s"/"f" events by write_chrome_trace_json.
struct TraceFlow {
  int pid = 0;
  std::uint64_t id = 0;  ///< flow id, unique within the trace
  std::string name;
  int src_tile = 0;
  tilesim::ps_t src_ps = 0;
  int dst_tile = 0;
  tilesim::ps_t dst_ps = 0;
};

/// Writes Chrome trace-event JSON ("X" complete events plus process/thread
/// metadata). Event timestamps/durations convert ps -> us (fractional).
void write_chrome_trace_json(std::ostream& os,
                             const std::vector<TraceTrack>& tracks);

/// As above, plus profiler wait-edge flow arrows ("s"/"f" events) layered
/// onto the tracks.
void write_chrome_trace_json(std::ostream& os,
                             const std::vector<TraceTrack>& tracks,
                             const std::vector<TraceFlow>& flows);

/// Single-device convenience overload (pid 0).
void write_chrome_trace_json(std::ostream& os,
                             const std::vector<TraceEvent>& events,
                             const std::string& process_name = "device");

/// JSON string escaping per RFC 8259 (shared with the exporters; exposed
/// for tests).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace obs
