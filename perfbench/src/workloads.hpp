// The four benchmark workloads. Each one builds its inputs from the seed,
// runs them through the library's public API and checks every virtual-time
// result against the goldens. See README.md for why each workload exists
// and which layer metrics it carries.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"

namespace pb {

/// Every job in the benchmark runs on this many PEs (the host's core
/// count; larger jobs were bimodal on a 4-core host, see README.md).
inline constexpr int kPes = 4;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Construction plus warm-up, timed as setup_s.
  virtual void setup() = 0;

  /// Timed phase: runs steps until `seconds` elapse (or, when tracing,
  /// until the tracer is full) and checks each against the goldens.
  virtual PhaseResult run(double seconds, Tracer* tracer) = 0;

  /// Per-layer metrics from a traced phase's spans, plus the direct
  /// layer probes this workload owns. Probe failures count in `res`.
  virtual void layer_metrics(const Tracer& tracer, PhaseResult& res,
                             Metrics& out) = 0;
};

struct WorkloadArgs {
  std::uint64_t seed = 1;
  Goldens* goldens = nullptr;
};

std::unique_ptr<Workload> make_job_churn(const WorkloadArgs& args);
std::unique_ptr<Workload> make_pe_sync(const WorkloadArgs& args);
std::unique_ptr<Workload> make_fft2d(const WorkloadArgs& args);
std::unique_ptr<Workload> make_serve(const WorkloadArgs& args);

}  // namespace pb
