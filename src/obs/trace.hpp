// Virtual-time event tracing.
//
// A TraceRecorder attached to a Device (Device::attach_probe) collects
// per-tile timeline intervals in virtual device time: compute charges,
// modeled copies, message receives and DMA transfers. Benches and
// examples dump the merged timeline as CSV or as Chrome trace-event JSON
// (obs/exporters.hpp) for offline visualization — the equivalent of the
// per-tile state trackers Tilera's Eclipse IDE provided (paper §III).
//
// Labels are rendered here from the interval's site, queue and peer
// ("udn q3 from 5", "dma put pe2"), so no string is built unless a
// recorder is attached.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/probe.hpp"

namespace obs {

using tilesim::ps_t;
using tilesim::TraceKind;

/// RFC 4180 field escaping used by dump_csv (exposed for tests).
[[nodiscard]] std::string csv_escape(const std::string& field);

struct TraceEvent {
  int tile = 0;
  TraceKind kind = TraceKind::kCustom;
  ps_t begin_ps = 0;
  ps_t end_ps = 0;
  std::string label;
};

class TraceRecorder final : public tilesim::Probe {
 public:
  explicit TraceRecorder(int tiles);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Raw mutator: records one interval with a ready-made label.
  void record(int tile, TraceKind kind, ps_t begin, ps_t end,
              std::string label = {});

  /// Renders the label — "" without a site, "<site> q<queue> from <peer>"
  /// for a queued message, "<site> pe<peer>" otherwise — and records it.
  void on_interval(int tile, TraceKind kind, ps_t begin, ps_t end,
                   const char* site, int queue, int peer) override;

  /// All events across tiles, sorted by (begin, tile).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t event_count() const;

  /// CSV: tile,kind,begin_ps,end_ps,duration_ps,label. Fields containing
  /// commas/quotes/newlines are quoted per RFC 4180.
  void dump_csv(std::ostream& os) const;

 private:
  struct PerTile {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
  };
  std::vector<std::unique_ptr<PerTile>> tiles_;
};

}  // namespace obs
