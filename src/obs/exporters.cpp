#include "obs/exporters.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

void write_snapshot(std::ostream& os, const MetricsSnapshot& snap,
                    const char* indent) {
  os << indent << "{\n";
  os << indent << "  \"device\": \"" << json_escape(snap.device) << "\",\n";
  os << indent << "  \"npes\": " << snap.npes << ",\n";

  os << indent << "  \"counters\": [";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    const auto& c = snap.counters[i];
    os << (i == 0 ? "\n" : ",\n") << indent << "    {\"name\": \""
       << json_escape(c.name) << "\", \"pe\": " << c.pe
       << ", \"value\": " << c.value << "}";
  }
  os << (snap.counters.empty() ? "" : "\n") << indent
     << (snap.counters.empty() ? "],\n" : "  ],\n");

  os << indent << "  \"gauges\": [";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    const auto& g = snap.gauges[i];
    os << (i == 0 ? "\n" : ",\n") << indent << "    {\"name\": \""
       << json_escape(g.name) << "\", \"pe\": " << g.pe
       << ", \"value\": " << g.value << "}";
  }
  os << (snap.gauges.empty() ? "" : "\n") << indent
     << (snap.gauges.empty() ? "],\n" : "  ],\n");

  os << indent << "  \"histograms\": [";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    os << (i == 0 ? "\n" : ",\n") << indent << "    {\"name\": \""
       << json_escape(h.name) << "\", \"pe\": " << h.pe
       << ", \"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"min\": " << h.min << ", \"max\": " << h.max
       << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b != 0) os << ", ";
      os << "{\"log2\": " << h.buckets[b].bucket
         << ", \"count\": " << h.buckets[b].count << "}";
    }
    os << "]}";
  }
  os << (snap.histograms.empty() ? "" : "\n") << indent
     << (snap.histograms.empty() ? "]\n" : "  ]\n");
  os << indent << "}";
}

}  // namespace

void write_metrics_json(std::ostream& os,
                        const std::vector<MetricsSnapshot>& runs) {
  os << "{\n  \"schema\": \"" << kMetricsSchema << "\",\n  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_snapshot(os, runs[i], "    ");
  }
  os << (runs.empty() ? "" : "\n  ") << "]\n}\n";
}

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot) {
  write_metrics_json(os, std::vector<MetricsSnapshot>{snapshot});
}

namespace {

/// Virtual picoseconds -> trace microseconds (fractional, ns resolution).
double ps_to_trace_us(tilesim::ps_t ps) {
  return static_cast<double>(ps) / 1e6;
}

void write_trace_event(std::ostream& os, int pid, const TraceEvent& e,
                       bool first) {
  char ts[64];
  char dur[64];
  std::snprintf(ts, sizeof(ts), "%.6f", ps_to_trace_us(e.begin_ps));
  std::snprintf(dur, sizeof(dur), "%.6f",
                ps_to_trace_us(e.end_ps - e.begin_ps));
  const std::string name =
      e.label.empty() ? std::string(tilesim::to_string(e.kind)) : e.label;
  os << (first ? "\n" : ",\n") << "    {\"name\": \"" << json_escape(name)
     << "\", \"cat\": \"" << tilesim::to_string(e.kind)
     << "\", \"ph\": \"X\", \"ts\": " << ts << ", \"dur\": " << dur
     << ", \"pid\": " << pid << ", \"tid\": " << e.tile << "}";
}

}  // namespace

void write_chrome_trace_json(std::ostream& os,
                             const std::vector<TraceTrack>& tracks) {
  write_chrome_trace_json(os, tracks, {});
}

void write_chrome_trace_json(std::ostream& os,
                             const std::vector<TraceTrack>& tracks,
                             const std::vector<TraceFlow>& flows) {
  os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  bool first = true;
  for (const TraceTrack& track : tracks) {
    // Metadata events name the process (device) and each tile track.
    os << (first ? "\n" : ",\n")
       << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
       << track.pid << ", \"args\": {\"name\": \""
       << json_escape(track.process_name) << "\"}}";
    first = false;
    int max_tile = -1;
    for (const auto& e : track.events) max_tile = std::max(max_tile, e.tile);
    for (int t = 0; t <= max_tile; ++t) {
      os << ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
         << track.pid << ", \"tid\": " << t
         << ", \"args\": {\"name\": \"tile " << t << "\"}}";
    }
    for (const auto& e : track.events) {
      write_trace_event(os, track.pid, e, false);
    }
  }
  for (const TraceFlow& f : flows) {
    char sts[64];
    char fts[64];
    std::snprintf(sts, sizeof(sts), "%.6f", ps_to_trace_us(f.src_ps));
    std::snprintf(fts, sizeof(fts), "%.6f", ps_to_trace_us(f.dst_ps));
    os << (first ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(f.name) << "\", \"cat\": \"wait_edge\", \"ph\": \"s\""
       << ", \"id\": " << f.id << ", \"ts\": " << sts << ", \"pid\": "
       << f.pid << ", \"tid\": " << f.src_tile << "}";
    first = false;
    os << ",\n    {\"name\": \"" << json_escape(f.name)
       << "\", \"cat\": \"wait_edge\", \"ph\": \"f\", \"bp\": \"e\""
       << ", \"id\": " << f.id << ", \"ts\": " << fts << ", \"pid\": "
       << f.pid << ", \"tid\": " << f.dst_tile << "}";
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
}

void write_chrome_trace_json(std::ostream& os,
                             const std::vector<TraceEvent>& events,
                             const std::string& process_name) {
  std::vector<TraceTrack> tracks(1);
  tracks[0].pid = 0;
  tracks[0].process_name = process_name;
  tracks[0].events = events;
  write_chrome_trace_json(os, tracks);
}

}  // namespace obs
