// The one instrumentation interface of a Device: every observer of virtual
// time — the per-PE shmem metrics, the critical-path profiler, the flight
// recorder, the virtual-time tracer and the tshmem-check race detector — is
// a Probe attached through Device::attach_probe.
//
// The interface lives in sim — the bottom layer — so tmc, tshmem and svc can
// report without an upward dependency, while the implementations live
// above: obs::ShmemMetrics (spans, flight events), obs::Profiler (spans,
// wait edges), obs::FlightRecorder (flight events; its tap feeds the
// windowed obs::TimeSeries), obs::TraceRecorder (intervals) and
// analysis::RaceDetector (rendezvous). Every callback is a no-op by
// default; a sink overrides the ones it consumes and names their channels
// (ProbeChannel, device.hpp), so the helpers never call it for the others.
//
// Contract (CI-enforced for every sink): callbacks never advance a
// SimClock, so every output is bit-identical with any probe on or off.
// Every per-tile callback is invoked from that tile's own thread in program
// order, stamped with that tile's own clock, which keeps what a sink
// records independent of the host schedule. on_clock_reset runs only at
// the single-threaded safe points reset_clocks() requires, before the
// reset, so a sink may read every tile's final clock there. A rendezvous
// is a true barrier: every participant's arrive completes (host order)
// before any participant's release runs.
//
// Call sites outside src/obs/ go through the helpers at the bottom
// (ProfSpan, prof_wait_edge, flight_event, trace_interval, rendezvous_*);
// lint rule R006 (tools/tshmem_lint.py) flags a direct callback call
// anywhere else. With no probe on its channel a helper costs one load and
// a branch.
#pragma once

#include <cstdint>
#include <initializer_list>

#include "sim/device.hpp"

namespace tilesim {

/// Phase taxonomy of a span / wait edge: where a PE's virtual time goes.
enum class ProfPhase : std::uint8_t {
  kCompute = 0,  ///< residual — time under no instrumented span
  kUdn,          ///< UDN receive / control-message wait
  kDma,          ///< data movement: put/get, NBI issue, quiet drain
  kBarrier,      ///< barrier algorithms (token, broadcast-release, spin)
  kCollective,   ///< broadcast / collect / reduce phases
  kLock,         ///< atomics and OpenSHMEM locks
  kWait,         ///< shmem_wait_until and other guarded waits
};

inline constexpr int kProfPhaseCount = 7;

[[nodiscard]] constexpr const char* prof_phase_name(ProfPhase p) noexcept {
  switch (p) {
    case ProfPhase::kCompute: return "compute";
    case ProfPhase::kUdn: return "udn_wait";
    case ProfPhase::kDma: return "dma";
    case ProfPhase::kBarrier: return "barrier";
    case ProfPhase::kCollective: return "collective";
    case ProfPhase::kLock: return "lock";
    case ProfPhase::kWait: return "guarded_wait";
  }
  return "?";
}

/// Compact taxonomy of a flight-recorder event: what a PE was doing.
enum class FlightKind : std::uint8_t {
  kPut = 0,       ///< blocking shmem_put family (one per element)
  kGet,           ///< blocking shmem_get family (one per element)
  kPutNbi,        ///< non-blocking put issue
  kGetNbi,        ///< non-blocking get issue
  kQuiet,         ///< shmem_quiet completion
  kFence,         ///< shmem_fence
  kBarrier,       ///< shmem_barrier / barrier_all exit; bytes = duration
  kBroadcast,     ///< broadcast entry, after the call overhead
  kCollect,       ///< collect / fcollect entry, after the call overhead
  kReduce,        ///< reduction entry, after the call overhead
  kAtomic,        ///< atomic memory operation
  kLock,          ///< set/clear/test lock completion
  kAlloc,         ///< shmalloc / shrealloc / shmemalign
  kFree,          ///< shfree
  kCtrlSend,      ///< TSHMEM control-message send
  kCtrlRecv,      ///< TSHMEM control-message consume (tag-matched)
  kWaitBegin,     ///< entered a bounded blocking wait (guarded_wait/spin)
  kWaitEnd,       ///< left a bounded blocking wait
  kUdnSend,       ///< UDN packet injected
  kUdnRecv,       ///< UDN packet consumed (clock-advancing receive)
  kDmaIssue,      ///< DMA descriptor posted
  kDmaDrain,      ///< DMA queue drained (quiet); bytes = retired count
  kFaultRetry,    ///< recovery retry (UDN backoff, cmem remap, ...)
  kError,         ///< structured tshmem::Error raised at this PE
  kSvcArrival,    ///< serving: query arrived
  kSvcComplete,   ///< serving: query completed
  kSvcShed,       ///< serving: query shed
  kSvcDegraded,   ///< serving: shard marked degraded
  kSvcRecovered,  ///< serving: shard recovered
  kSvcBatch,      ///< serving: batch dispatched to a shard
  kSvcCrash,      ///< serving: replica died (kShardCrash / kReplicaFlap)
  kSvcFailover,   ///< serving: queries moved to a surviving replica
  kSvcFailback,   ///< serving: a primary replica resumed serving
  kSvcDeadlineDrop,  ///< serving: admission control dropped a query
};

inline constexpr int kFlightKindCount = 34;

[[nodiscard]] constexpr const char* fr_kind_name(FlightKind k) noexcept {
  switch (k) {
    case FlightKind::kPut: return "put";
    case FlightKind::kGet: return "get";
    case FlightKind::kPutNbi: return "put_nbi";
    case FlightKind::kGetNbi: return "get_nbi";
    case FlightKind::kQuiet: return "quiet";
    case FlightKind::kFence: return "fence";
    case FlightKind::kBarrier: return "barrier";
    case FlightKind::kBroadcast: return "broadcast";
    case FlightKind::kCollect: return "collect";
    case FlightKind::kReduce: return "reduce";
    case FlightKind::kAtomic: return "atomic";
    case FlightKind::kLock: return "lock";
    case FlightKind::kAlloc: return "alloc";
    case FlightKind::kFree: return "free";
    case FlightKind::kCtrlSend: return "ctrl_send";
    case FlightKind::kCtrlRecv: return "ctrl_recv";
    case FlightKind::kWaitBegin: return "wait_begin";
    case FlightKind::kWaitEnd: return "wait_end";
    case FlightKind::kUdnSend: return "udn_send";
    case FlightKind::kUdnRecv: return "udn_recv";
    case FlightKind::kDmaIssue: return "dma_issue";
    case FlightKind::kDmaDrain: return "dma_drain";
    case FlightKind::kFaultRetry: return "fault_retry";
    case FlightKind::kError: return "error";
    case FlightKind::kSvcArrival: return "svc_arrival";
    case FlightKind::kSvcComplete: return "svc_complete";
    case FlightKind::kSvcShed: return "svc_shed";
    case FlightKind::kSvcDegraded: return "svc_degraded";
    case FlightKind::kSvcRecovered: return "svc_recovered";
    case FlightKind::kSvcBatch: return "svc_batch";
    case FlightKind::kSvcCrash: return "svc_crash";
    case FlightKind::kSvcFailover: return "svc_failover";
    case FlightKind::kSvcFailback: return "svc_failback";
    case FlightKind::kSvcDeadlineDrop: return "svc_deadline_drop";
  }
  return "?";
}

/// What a traced timeline interval was (the per-tile state trackers of
/// paper §III).
enum class TraceKind : std::uint8_t {
  kCompute,
  kCopy,
  kMessage,
  kBarrier,
  kCollective,
  kCustom,
};

[[nodiscard]] constexpr const char* to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kCompute: return "compute";
    case TraceKind::kCopy: return "copy";
    case TraceKind::kMessage: return "message";
    case TraceKind::kBarrier: return "barrier";
    case TraceKind::kCollective: return "collective";
    case TraceKind::kCustom: return "custom";
  }
  return "?";
}

class Probe {
 public:
  /// `channels`: the callback families this probe consumes (device.hpp).
  /// Every probe receives on_clock_reset.
  explicit Probe(std::initializer_list<ProbeChannel> channels) {
    for (const ProbeChannel c : channels) channel_mask_ |= 1u << c;
  }
  virtual ~Probe() = default;
  Probe(const Probe&) = delete;  // the Device holds its address
  Probe& operator=(const Probe&) = delete;

  [[nodiscard]] bool consumes(ProbeChannel channel) const noexcept {
    return ((channel_mask_ >> channel) & 1u) != 0;
  }

  /// Tile `tile` entered span (`phase`, `site`) at virtual time `now`.
  /// `site` must be a static string (stored by pointer).
  virtual void on_span_begin(int /*tile*/, ProfPhase /*phase*/,
                             const char* /*site*/, ps_t /*now*/) {}

  /// Tile `tile` left its innermost open span at virtual time `now`.
  virtual void on_span_end(int /*tile*/, ps_t /*now*/) {}

  /// Tile `tile`'s clock jumped from `from_ps` to `to_ps` waiting on a
  /// timestamp produced by `src_tile` (-1 when the producer is unknown,
  /// the tile itself for its own DMA engine). `fallback` classifies the
  /// edge when no span is open on the waiter. Only emitted for real jumps
  /// (to_ps > from_ps).
  virtual void on_wait_edge(int /*tile*/, int /*src_tile*/,
                            ProfPhase /*fallback*/, const char* /*site*/,
                            ps_t /*from_ps*/, ps_t /*to_ps*/) {}

  /// Tile `tile` performed `kind` at site `site` (static string, stored by
  /// pointer) at virtual time `vt` (epoch-local). `peer` is the remote PE
  /// involved (-1 when none), `bytes` the payload size (or a kind-specific
  /// count), `errc` a tshmem::Errc value (0 = ok). `aux`, which the flight
  /// recorder does not keep, is 1 on a kPut/kGet/kAtomic that a UDN
  /// interrupt services and the engine busy time on kDmaDrain, else 0.
  virtual void on_flight_event(int /*tile*/, FlightKind /*kind*/,
                               const char* /*site*/, ps_t /*vt*/,
                               int /*peer*/, std::uint64_t /*bytes*/,
                               int /*errc*/, std::uint64_t /*aux*/) {}

  /// Tile `tile` spent [`begin`, `end`] in `kind`: a compute or copy
  /// charge, a message receive or a DMA transfer. An unlabelled interval
  /// has a null `site`; otherwise the sink renders the label from `site`,
  /// `queue` (-1 when none) and `peer`, so nothing is formatted unless a
  /// tracer is attached.
  virtual void on_interval(int /*tile*/, TraceKind /*kind*/, ps_t /*begin*/,
                           ps_t /*end*/, const char* /*site*/,
                           int /*queue*/, int /*peer*/) {}

  /// Tile `tile` arrived at rendezvous instance (`barrier`, `generation`).
  virtual void on_rendezvous_arrive(const void* /*barrier*/,
                                    std::uint64_t /*generation*/,
                                    int /*tile*/) {}

  /// Tile `tile` was released from the same instance; `parties` is the
  /// total participant count (a sink uses it to retire the slot).
  virtual void on_rendezvous_release(const void* /*barrier*/,
                                     std::uint64_t /*generation*/,
                                     int /*tile*/, int /*parties*/) {}

  /// All tile clocks are about to reset to zero (epoch boundary).
  virtual void on_clock_reset() {}

 private:
  unsigned channel_mask_ = 1u << kAnyChannel;
};

/// Calls `f(probe)` for each attached probe that consumes `channel`, in
/// attach order. Always inlined: the helpers below sit on every shmem
/// operation, and an outlined call costs more than the empty-list check.
template <typename F>
[[gnu::always_inline]] inline void for_each_probe(const Device& device,
                                                  ProbeChannel channel,
                                                  F&& f) {
  for (Probe* const* p = device.probes(channel); *p != nullptr; ++p) f(**p);
}

/// RAII span. The site string must be static.
class ProfSpan {
 public:
  ProfSpan(Tile& tile, ProfPhase phase, const char* site)
      : probes_(tile.device().probes(kSpanChannel)), tile_(&tile) {
    for (Probe* const* p = probes_; *p != nullptr; ++p) {
      (*p)->on_span_begin(tile.id(), phase, site, tile.clock().now());
    }
  }

  ~ProfSpan() {
    for (Probe* const* p = probes_; *p != nullptr; ++p) {
      (*p)->on_span_end(tile_->id(), tile_->clock().now());
    }
  }

  ProfSpan(const ProfSpan&) = delete;
  ProfSpan& operator=(const ProfSpan&) = delete;

 private:
  Probe* const* probes_;
  Tile* tile_;
};

/// Records a wait-for edge (no-op when the clock did not actually jump).
inline void prof_wait_edge(Tile& tile, int src_tile, ProfPhase fallback,
                           const char* site, ps_t from_ps, ps_t to_ps) {
  if (to_ps <= from_ps) return;
  for_each_probe(tile.device(), kSpanChannel, [&](Probe& p) {
    p.on_wait_edge(tile.id(), src_tile, fallback, site, from_ps, to_ps);
  });
}

/// Records a flight event. The site string must be static.
inline void flight_event(const Device& device, int tile, FlightKind kind,
                         const char* site, ps_t vt, int peer = -1,
                         std::uint64_t bytes = 0, int errc = 0,
                         std::uint64_t aux = 0) {
  for_each_probe(device, kFlightChannel, [&](Probe& p) {
    p.on_flight_event(tile, kind, site, vt, peer, bytes, errc, aux);
  });
}

/// Records a timeline interval. The site string must be static.
inline void trace_interval(const Device& device, int tile, TraceKind kind,
                           ps_t begin, ps_t end, const char* site = nullptr,
                           int queue = -1, int peer = -1) {
  for_each_probe(device, kIntervalChannel, [&](Probe& p) {
    p.on_interval(tile, kind, begin, end, site, queue, peer);
  });
}

/// Reports a rendezvous arrival / release (the true-barrier contract above).
inline void rendezvous_arrive(const Device& device, const void* barrier,
                              std::uint64_t generation, int tile) {
  for_each_probe(device, kRendezvousChannel, [&](Probe& p) {
    p.on_rendezvous_arrive(barrier, generation, tile);
  });
}

inline void rendezvous_release(const Device& device, const void* barrier,
                               std::uint64_t generation, int tile,
                               int parties) {
  for_each_probe(device, kRendezvousChannel, [&](Probe& p) {
    p.on_rendezvous_release(barrier, generation, tile, parties);
  });
}

}  // namespace tilesim
