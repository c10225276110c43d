#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace obs {

TraceRecorder::TraceRecorder(int tiles) : Probe({tilesim::kIntervalChannel}) {
  if (tiles < 1) throw std::invalid_argument("TraceRecorder needs >= 1 tile");
  tiles_.reserve(static_cast<std::size_t>(tiles));
  for (int i = 0; i < tiles; ++i) {
    tiles_.push_back(std::make_unique<PerTile>());
  }
}

void TraceRecorder::record(int tile, TraceKind kind, ps_t begin, ps_t end,
                           std::string label) {
  if (tile < 0 || tile >= static_cast<int>(tiles_.size())) {
    throw std::out_of_range("TraceRecorder: tile out of range");
  }
  PerTile& pt = *tiles_[static_cast<std::size_t>(tile)];
  std::scoped_lock lk(pt.mu);
  pt.events.push_back(TraceEvent{tile, kind, begin, end, std::move(label)});
}

void TraceRecorder::on_interval(int tile, TraceKind kind, ps_t begin,
                                ps_t end, const char* site, int queue,
                                int peer) {
  std::string label;
  if (site != nullptr) {
    label = queue >= 0 ? std::string(site) + " q" + std::to_string(queue) +
                             " from " + std::to_string(peer)
                       : std::string(site) + " pe" + std::to_string(peer);
  }
  record(tile, kind, begin, end, std::move(label));
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  for (const auto& pt : tiles_) {
    std::scoped_lock lk(pt->mu);
    out.insert(out.end(), pt->events.begin(), pt->events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.begin_ps != b.begin_ps ? a.begin_ps < b.begin_ps
                                              : a.tile < b.tile;
            });
  return out;
}

std::size_t TraceRecorder::event_count() const {
  std::size_t n = 0;
  for (const auto& pt : tiles_) {
    std::scoped_lock lk(pt->mu);
    n += pt->events.size();
  }
  return n;
}

std::string csv_escape(const std::string& field) {
  // RFC 4180: fields containing separators, quotes, or line breaks are
  // double-quoted, with embedded quotes doubled.
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void TraceRecorder::dump_csv(std::ostream& os) const {
  os << "tile,kind,begin_ps,end_ps,duration_ps,label\n";
  for (const TraceEvent& e : events()) {
    os << e.tile << ',' << tilesim::to_string(e.kind) << ',' << e.begin_ps << ','
       << e.end_ps << ',' << (e.end_ps - e.begin_ps) << ','
       << csv_escape(e.label) << '\n';
  }
}

}  // namespace obs
