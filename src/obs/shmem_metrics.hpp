// Per-PE shmem metrics as a probe sink: every shmem.* per-PE cell and
// recovery.nbi.sync_fallbacks, derived from the spans and flight events a
// Context already reports (docs/OBSERVABILITY.md). Callbacks run on the
// owning tile's thread (the Probe contract), so per-PE state needs no lock.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/probe.hpp"

namespace obs {

class ShmemMetrics final : public tilesim::Probe {
 public:
  ShmemMetrics() : Probe({tilesim::kSpanChannel, tilesim::kFlightChannel}) {}

  /// Registers every per-PE cell of PEs [0, npes) in `registry`, zero
  /// cells included, and clears the per-PE state. Call at job entry,
  /// before tiles run.
  void begin_job(int npes, MetricsRegistry& registry);

  void on_span_begin(int tile, tilesim::ProfPhase phase, const char* site,
                     tilesim::ps_t now) override;
  void on_span_end(int tile, tilesim::ps_t now) override;
  void on_flight_event(int tile, tilesim::FlightKind kind, const char* site,
                       tilesim::ps_t vt, int peer, std::uint64_t bytes,
                       int errc, std::uint64_t aux) override;

 private:
  enum Count : std::uint8_t {
    kPutCalls, kPutBytes, kGetCalls, kGetBytes, kBarrierCalls, kBcastCalls,
    kBcastBytes, kCollectCalls, kCollectBytes, kReduceCalls, kReduceBytes,
    kAtomicCalls, kLockOps, kWaitCalls, kAllocCalls, kFreeCalls,
    kInterrupts, kNbiIssued, kNbiRetired, kNbiBytes, kNbiFallbacks, kCounts,
  };
  enum Hist : std::uint8_t {
    kPutLatency, kGetLatency, kBarrierWait, kCollectiveWait, kWaitLatency,
    kQuietWait, kOverlap, kHists,
  };
  struct Span {
    Log2Histogram* latency;  ///< null when the span is not timed
    tilesim::ps_t begin;
    bool nbi;                ///< a put_nbi / get_nbi issue
  };
  struct alignas(64) Pe {
    std::array<Counter*, kCounts> count{};
    std::array<Log2Histogram*, kHists> hist{};
    Gauge* queue_depth = nullptr;
    std::uint64_t pending = 0;  ///< NBI descriptors issued minus retired
    std::vector<Span> spans;    ///< open spans, innermost last
  };

  std::vector<Pe> pes_;  ///< one per PE of the current job
};

}  // namespace obs
