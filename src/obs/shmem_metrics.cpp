#include "obs/shmem_metrics.hpp"

#include <iterator>
#include <string_view>

namespace obs {

namespace {

using tilesim::FlightKind;
using tilesim::ps_t;

// Cell names, in Count and Hist order.
constexpr const char* kCountNames[] = {
    "shmem.put.calls", "shmem.put.bytes", "shmem.get.calls",
    "shmem.get.bytes", "shmem.barrier.calls", "shmem.broadcast.calls",
    "shmem.broadcast.bytes", "shmem.collect.calls", "shmem.collect.bytes",
    "shmem.reduce.calls", "shmem.reduce.bytes", "shmem.atomic.calls",
    "shmem.lock.ops", "shmem.wait.calls", "shmem.heap.alloc.calls",
    "shmem.heap.free.calls", "shmem.interrupt.services", "shmem.nbi.issued",
    "shmem.nbi.retired", "shmem.nbi.bytes", "recovery.nbi.sync_fallbacks"};
constexpr const char* kHistNames[] = {
    "shmem.put.latency_ps", "shmem.get.latency_ps", "shmem.barrier.wait_ps",
    "shmem.collective.wait_ps", "shmem.wait.latency_ps",
    "shmem.nbi.quiet_wait_ps", "shmem.nbi.overlap_pct"};

}  // namespace

void ShmemMetrics::begin_job(int npes, MetricsRegistry& registry) {
  static_assert(std::size(kCountNames) == kCounts);
  static_assert(std::size(kHistNames) == kHists);
  pes_.assign(static_cast<std::size_t>(npes), Pe{});
  for (int pe = 0; pe < npes; ++pe) {
    Pe& p = pes_[static_cast<std::size_t>(pe)];
    for (int c = 0; c < kCounts; ++c) {
      p.count[c] = counter_handle(registry, kCountNames[c], pe);
    }
    for (int h = 0; h < kHists; ++h) {
      p.hist[h] = histogram_handle(registry, kHistNames[h], pe);
    }
    p.queue_depth = gauge_handle(registry, "shmem.nbi.queue_depth", pe);
  }
}

void ShmemMetrics::on_span_begin(int tile, tilesim::ProfPhase /*phase*/,
                                 const char* site, ps_t now) {
  if (static_cast<std::size_t>(tile) >= pes_.size()) return;
  Pe& p = pes_[static_cast<std::size_t>(tile)];
  const std::string_view s(site);  // unique per span kind, unlike phase
  Span span{nullptr, now, s == "shmem_put_nbi" || s == "shmem_get_nbi"};
  if (s == "shmem_put" || s == "shmem_get") {
    span.latency = p.hist[s == "shmem_put" ? kPutLatency : kGetLatency];
    // A failed descriptor post is the only transfer transfer_nbi runs
    // under its own span: the synchronous fallback.
    if (!p.spans.empty() && p.spans.back().nbi) p.count[kNbiFallbacks]->inc();
  } else if (s == "shmem_broadcast" || s == "shmem_collect" ||
             s == "shmem_reduce") {
    span.latency = p.hist[kCollectiveWait];
  } else if (s == "shmem_wait_until") {
    span.latency = p.hist[kWaitLatency];
    p.count[kWaitCalls]->inc();
  }
  p.spans.push_back(span);
}

void ShmemMetrics::on_span_end(int tile, ps_t now) {
  if (static_cast<std::size_t>(tile) >= pes_.size()) return;
  Pe& p = pes_[static_cast<std::size_t>(tile)];
  if (p.spans.empty()) return;
  const Span span = p.spans.back();
  p.spans.pop_back();
  if (span.latency != nullptr) span.latency->record(now - span.begin);
}

void ShmemMetrics::on_flight_event(int tile, FlightKind kind,
                                   const char* /*site*/, ps_t vt,
                                   int /*peer*/, std::uint64_t bytes,
                                   int /*errc*/, std::uint64_t aux) {
  if (static_cast<std::size_t>(tile) >= pes_.size()) return;
  Pe& p = pes_[static_cast<std::size_t>(tile)];
  const auto call = [&](Count calls, Count bytes_cell) {
    p.count[calls]->inc();
    p.count[bytes_cell]->add(bytes);
  };
  // `aux` is 1 on a put, get or atomic a UDN interrupt services.
  if (aux != 0 && (kind == FlightKind::kPut || kind == FlightKind::kGet ||
                   kind == FlightKind::kAtomic)) {
    p.count[kInterrupts]->inc();
  }
  switch (kind) {
    case FlightKind::kPut: call(kPutCalls, kPutBytes); break;
    case FlightKind::kGet: call(kGetCalls, kGetBytes); break;
    case FlightKind::kBroadcast: call(kBcastCalls, kBcastBytes); break;
    case FlightKind::kCollect: call(kCollectCalls, kCollectBytes); break;
    case FlightKind::kReduce: call(kReduceCalls, kReduceBytes); break;
    case FlightKind::kAtomic: p.count[kAtomicCalls]->inc(); break;
    case FlightKind::kLock: p.count[kLockOps]->inc(); break;
    case FlightKind::kAlloc: p.count[kAllocCalls]->inc(); break;
    case FlightKind::kFree: p.count[kFreeCalls]->inc(); break;
    case FlightKind::kBarrier:  // `bytes` is the barrier's duration
      p.count[kBarrierCalls]->inc();
      p.hist[kBarrierWait]->record(bytes);
      break;
    case FlightKind::kDmaIssue:
      call(kNbiIssued, kNbiBytes);
      p.queue_depth->set(static_cast<std::int64_t>(++p.pending));
      break;
    case FlightKind::kDmaDrain: {
      // `bytes` is the retired count, `aux` their engine busy time. Only
      // quiet drains, right inside its own span, which opened at the clock
      // the wait starts from.
      p.count[kNbiRetired]->add(bytes);
      p.pending -= bytes;
      p.queue_depth->set(static_cast<std::int64_t>(p.pending));
      const ps_t from = p.spans.empty() ? vt : p.spans.back().begin;
      const ps_t wait = vt > from ? vt - from : 0;
      p.hist[kQuietWait]->record(wait);
      // Share of the engine's transfer time hidden behind computation
      // since issue (100 = fully overlapped).
      if (aux > 0) {
        const std::uint64_t hidden = aux > wait ? aux - wait : 0;
        p.hist[kOverlap]->record(100 * hidden / aux);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace obs
