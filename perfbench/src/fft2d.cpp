// fft2d: repeated apps::fft2d_run on a 1024x1024 matrix (the Fig 13 size)
// inside one job. Same Context transfer layer as pe-sync, but with
// MiB-sized transposes and heavy host compute, so a change that speeds up
// small ops at the expense of bulk copies shows here.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>

#include "apps/fft.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr std::size_t kN = 1024;
// The seed picks each transform's input from this recorded catalog, so
// every input has a golden output checksum.
constexpr std::uint64_t kInputs[] = {2013, 2014, 2015, 2016};
constexpr std::size_t kNumInputs = std::size(kInputs);
// fft2d_run and fft2d_reference order their float operations differently;
// they must agree to this share of the output's largest magnitude.
constexpr double kRefTolerance = 1e-4;
constexpr std::size_t kBulkBytes = std::size_t{512} << 10;  // one transpose
                                                            // block
constexpr int kBulkIters = 64;
constexpr int kLayerReps = 20;  // samples behind each layer-probe median

std::vector<apps::cfloat> input_matrix(std::uint64_t seed) {
  std::vector<apps::cfloat> m(kN * kN);
  for (std::size_t r = 0; r < kN; ++r) {
    for (std::size_t c = 0; c < kN; ++c) {
      m[r * kN + c] = apps::fft2d_input(r, c, seed);
    }
  }
  return m;
}

// fft2d_reference of every catalog input: checking data, computed once per
// process (the first set-up pays for it; setup_s is a median).
const std::vector<std::vector<apps::cfloat>>& references() {
  static const std::vector<std::vector<apps::cfloat>> refs = [] {
    std::vector<std::vector<apps::cfloat>> r;
    for (const std::uint64_t seed : kInputs) {
      r.push_back(input_matrix(seed));
      apps::fft2d_reference(r.back(), kN);
    }
    return r;
  }();
  return refs;
}

class Fft2d final : public Workload {
 public:
  explicit Fft2d(const WorkloadArgs& a) : args_(a), rng_(a.seed) {}

  void setup() override {
    tshmem::RuntimeOptions opts;
    opts.heap_per_pe = 2 * kN * kN * sizeof(apps::cfloat) + (4 << 20);
    rt_ = std::make_unique<tshmem::Runtime>(tilesim::tile_gx36(), opts);
    (void)references();
    PhaseResult warm;
    run_transforms(1, 60.0, nullptr, warm);
    if (warm.failed != 0) throw std::runtime_error("fft2d warm-up failed");
  }

  PhaseResult run(double seconds, Tracer* tr) override {
    PhaseResult res;
    const Usage u0 = Usage::now();
    const std::int64_t t0 = now_ns();
    run_transforms(~0ULL, seconds, tr, res);
    res.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    res.usage = Usage::now() - u0;
    return res;
  }

  void layer_metrics(const Tracer& tr, PhaseResult& /*res*/,
                     Metrics& out) override {
    const auto st = tr.stats();
    std::vector<double> spmd = st.at("apps.fft2d_run").dur_ns;
    for (double& x : spmd) x *= 1e-6;
    out.pct("apps.fft.spmd_ms", spmd, 0.5, "ms");
    std::vector<double> ref_ms;
    for (int i = 0; i < kLayerReps; ++i) {
      std::vector<apps::cfloat> m = input_matrix(kInputs[0]);
      const std::int64_t t0 = now_ns();
      apps::fft2d_reference(m, kN);
      ref_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    out.pct("apps.fft.reference_ms", ref_ms, 0.5, "ms");
    out.pct("tshmem.ctx.put_bulk_GBps", bulk_put_gbps(), 0.5, "GB/s");
  }

 private:
  // Runs transforms in one job until `max`, `seconds` or a full tracer;
  // PE 0 checks each output against its golden and the reference.
  void run_transforms(std::uint64_t max, double seconds, Tracer* tr,
                      PhaseResult& res) {
    // Every PE draws the same input sequence from one phase seed.
    const std::uint64_t phase_seed = rng_.next();
    std::atomic<bool> stop{false};
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t t0 = now_ns();
    rt_->run(kPes, [&](tshmem::Context& ctx) {
      const bool root = ctx.my_pe() == 0;
      tshmem_util::Xoshiro256 picks(phase_seed);
      for (std::uint64_t k = 0;; ++k) {
        const std::size_t pick = picks.below(kNumInputs);
        const std::int64_t h0 = now_ns();
        apps::Fft2dResult r;
        {
          ScopedSpan s(root ? tr : nullptr, "apps.fft2d_run");
          r = apps::fft2d_run(ctx, kN, kInputs[pick]);
        }
        if (root) {
          res.step_ms.push_back(static_cast<double>(now_ns() - h0) * 1e-6);
          ++res.steps;
          ++res.work;
          ++res.attempted;
          if (!check(pick, r)) ++res.failed;
          stop.store(k + 1 >= max || now_ns() - t0 >= budget ||
                     (tr != nullptr && tr->full()));
        }
        ctx.barrier_all();  // publishes stop
        if (stop.load()) break;
      }
    });
  }

  bool check(std::size_t pick, const apps::Fft2dResult& r) {
    const std::string key = "input/" + std::to_string(kInputs[pick]);
    Goldens& g = *args_.goldens;
    bool ok = g.check("fft2d", key + "/total_ps", r.timing.total_ps);
    ok = g.check("fft2d", key + "/checksum",
                 fnv1a(r.output.data(),
                       r.output.size() * sizeof(apps::cfloat))) &&
         ok;
    const std::vector<apps::cfloat>& ref = references()[pick];
    if (r.output.size() != ref.size()) return false;
    double err = 0.0;
    double mag = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      err = std::max(err, static_cast<double>(std::abs(r.output[i] - ref[i])));
      mag = std::max(mag, static_cast<double>(std::abs(ref[i])));
    }
    return ok && err <= kRefTolerance * mag;
  }

  // Host GB/s of 512 KiB puts (one transpose block) to every other PE.
  std::vector<double> bulk_put_gbps() {
    Tracer tr(2 * kPes * kBulkIters);
    rt_->run(kPes, [&](tshmem::Context& ctx) {
      auto* dst = static_cast<std::byte*>(ctx.shmalloc(kBulkBytes * kPes));
      std::vector<std::byte> src(kBulkBytes, std::byte{0x5a});
      ctx.barrier_all();
      for (int i = 0; i < kBulkIters; ++i) {
        const int pe = (ctx.my_pe() + 1 + i % (kPes - 1)) % kPes;
        ScopedSpan s(&tr, "tshmem.Context.put");
        ctx.put(dst + static_cast<std::size_t>(ctx.my_pe()) * kBulkBytes,
                src.data(), kBulkBytes, pe);
      }
      ctx.barrier_all();
      ctx.shfree(dst);
    });
    std::vector<double> gbps;
    for (const double ns : tr.stats().at("tshmem.Context.put").dur_ns) {
      gbps.push_back(static_cast<double>(kBulkBytes) / ns);
    }
    return gbps;
  }

  WorkloadArgs args_;
  tshmem_util::Xoshiro256 rng_;
  std::unique_ptr<tshmem::Runtime> rt_;
};

}  // namespace

std::unique_ptr<Workload> make_fft2d(const WorkloadArgs& args) {
  return std::make_unique<Fft2d>(args);
}

}  // namespace pb
