// Watchdog-aware blocking primitives, shared by every blocking wait in the
// tree (UDN queues, barriers, mPIPE/STN receives, SHMEM waits and locks).
// These are the ONLY place src/ is allowed to block on a condition variable
// or spin-yield: tools/tshmem_lint.py (rules raw-condvar-wait and
// unbounded-spin) machine-checks that every other blocking wait routes
// through here, so the "every blocking wait is bounded by the watchdog"
// invariant of docs/ROBUSTNESS.md holds by construction, not convention.
//
// With no watchdog attached guarded_wait is exactly cv.wait(lk, pred); with
// one attached the wait wakes every `timeout` and hands control to
// on_timeout, which is expected to throw a diagnostic tshmem::Error instead
// of letting the tile hang.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "sim/device.hpp"
#include "sim/fault.hpp"
#include "sim/probe.hpp"

namespace tilesim {

/// guarded_wait without the flight-recorder bracket, for waits whose count
/// depends on the host schedule: UdnFabric::recv_raw, whose tag-matching
/// callers pull packets in host-arrival order and bracket the whole
/// receive themselves.
template <typename Pred>
void guarded_wait_unbracketed(const Device& device,
                              std::unique_lock<std::mutex>& lk,
                              std::condition_variable& cv, int tile,
                              const char* what, Pred pred) {
  const Watchdog* wd = device.watchdog();
  if (wd == nullptr) {
    cv.wait(lk, pred);
    return;
  }
  while (!cv.wait_for(lk, wd->timeout, pred)) {
    // Release the wait's lock around the callback: the diagnostic snapshot
    // reads queue depths and per-PE state, which may need this same lock.
    lk.unlock();
    wd->on_timeout(tile, what);
    lk.lock();
  }
}

template <typename Pred>
void guarded_wait(const Device& device, std::unique_lock<std::mutex>& lk,
                  std::condition_variable& cv, int tile, const char* what,
                  Pred pred) {
  // Flight-recorder bracket: the clock cannot advance inside a cv wait, so
  // begin and end carry the same virtual time — host-schedule independent.
  const ps_t wait_vt = device.tile(tile).clock().now();
  flight_event(device, tile, FlightKind::kWaitBegin, what, wait_vt);
  guarded_wait_unbracketed(device, lk, cv, tile, what, pred);
  flight_event(device, tile, FlightKind::kWaitEnd, what, wait_vt);
}

/// Nullable-device variant for components whose Device is optional (the
/// tmc barriers): a null device degrades to the plain wait.
template <typename Pred>
void guarded_wait(const Device* device, std::unique_lock<std::mutex>& lk,
                  std::condition_variable& cv, int tile, const char* what,
                  Pred pred) {
  if (device == nullptr) {
    cv.wait(lk, pred);
    return;
  }
  guarded_wait(*device, lk, cv, tile, what, pred);
}

/// Watchdog-aware spin loop: retries `attempt` (which may have side
/// effects — e.g. a CAS that advances virtual time per try) until it
/// returns true, yielding between tries. Used by shmem_wait_until and
/// shmem_set_lock, whose progress comes from another PE's plain store
/// rather than a condition variable.
template <typename Attempt>
void guarded_spin(const Device& device, int tile, const char* what,
                  Attempt attempt) {
  // Begin-only bracket: attempts may advance virtual time (a failed lock
  // CAS charges the atomic cost model), so the matching end event belongs
  // to the caller, which records it after merging the final timestamp.
  flight_event(device, tile, FlightKind::kWaitBegin, what,
               device.tile(tile).clock().now());
  const Watchdog* wd = device.watchdog();
  auto deadline = wd != nullptr
                      ? std::chrono::steady_clock::now() + wd->timeout
                      : std::chrono::steady_clock::time_point::max();
  while (!attempt()) {
    std::this_thread::yield();
    if (wd != nullptr && std::chrono::steady_clock::now() >= deadline) {
      wd->on_timeout(tile, what);
      deadline = std::chrono::steady_clock::now() + wd->timeout;
    }
  }
}

}  // namespace tilesim
