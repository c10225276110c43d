// job-churn: many short Runtime::run jobs, each doing one collective in the
// fig09-fig12 sweep shape. Host time goes mostly to the job lifecycle
// (arena setup/teardown, tile-thread spawn and join), so this is where
// arena reuse or a worker pool must show.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>

#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

enum class Op { kBcastPush, kBcastPull, kFcollect, kReduce, kBarrier };
constexpr int kOps = 5;
constexpr const char* kOpName[kOps] = {"bcast_push", "bcast_pull", "fcollect",
                                       "reduce", "barrier"};
constexpr const char* kOpSpan[kOps] = {
    "tshmem.Context.broadcast", "tshmem.Context.broadcast",
    "tshmem.Context.fcollect", "tshmem.Context.reduce",
    "tshmem.Context.barrier_all"};
constexpr int kSizeSteps = 9;  // 256 B .. 64 KiB, powers of two

// Element i of PE `pe`'s source block for a job seeded with `seed`. Small
// values keep the int sum-reduction far from overflow.
int element(std::uint64_t seed, int pe, std::size_t i) {
  std::uint64_t z = seed ^ (static_cast<std::uint64_t>(pe) << 48) ^ i;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<int>((z ^ (z >> 31)) % 1000);
}

void atomic_min(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v)) {
  }
}

void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v)) {
  }
}

// Host timestamps of one traced job, relative to its run() call.
struct JobTiming {
  double enter_ns = 0;  ///< run() to the first PE body entry
  double body_ns = 0;   ///< first body entry to the last body exit
  double exit_ns = 0;   ///< last body exit to run() returning
  double skew_ns = 0;   ///< first to last PE body entry
  Usage usage;          ///< getrusage delta around the run() call
};

class JobChurn final : public Workload {
 public:
  explicit JobChurn(const WorkloadArgs& a) : args_(a), rng_(a.seed) {}

  void setup() override {
    rt_ = std::make_unique<tshmem::Runtime>(tilesim::tile_gx36());
    // Warm-up job: first-touch costs of the process (thread stacks, the
    // allocator's arenas) land here, not on the first timed job.
    PhaseResult warm;
    run_job(Op::kBarrier, 0, rng_.next(), nullptr, warm);
    if (warm.failed != 0) throw std::runtime_error("job-churn warm-up failed");
  }

  PhaseResult run(double seconds, Tracer* tr) override {
    PhaseResult res;
    const Usage u0 = Usage::now();
    const std::int64_t t0 = now_ns();
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() - t0 < budget && (tr == nullptr || !tr->full())) {
      const Op op = static_cast<Op>(next_op_++ % kOps);
      const std::size_t bytes =
          op == Op::kBarrier ? 0 : std::size_t{256} << rng_.below(kSizeSteps);
      const std::int64_t s0 = now_ns();
      run_job(op, bytes, rng_.next(), tr, res);
      res.step_ms.push_back(static_cast<double>(now_ns() - s0) * 1e-6);
      ++res.steps;
      ++res.work;
    }
    res.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    res.usage = Usage::now() - u0;
    return res;
  }

  void layer_metrics(const Tracer& /*tr*/, PhaseResult& /*res*/,
                     Metrics& out) override {
    std::vector<double> enter, body, exit, skew, job, minflt;
    for (const JobTiming& t : timings_) {
      minflt.push_back(static_cast<double>(t.usage.minflt));
      enter.push_back(t.enter_ns * 1e-3);
      body.push_back(t.body_ns * 1e-3);
      exit.push_back(t.exit_ns * 1e-3);
      skew.push_back(t.skew_ns * 1e-3);
      job.push_back((t.enter_ns + t.body_ns + t.exit_ns) * 1e-3);
    }
    out.pct("tshmem.run.enter_us.p50", enter, 0.5, "us");
    out.pct("tshmem.run.body_us.p50", body, 0.5, "us");
    out.pct("tshmem.run.exit_us.p50", exit, 0.5, "us");
    out.pct("sim.spawn_skew_us.p90", skew, 0.9, "us");
    out.pct("tshmem.run.minflt", minflt, 0.5, "count");
    // Share of the traced job's p50 that the three lifecycle parts cover.
    const double parts = percentile(enter, 0.5) + percentile(body, 0.5) +
                         percentile(exit, 0.5);
    out.set("tshmem.run.accounted_frac", parts / percentile(job, 0.5),
            "ratio");
  }

 private:
  // Runs one job of `op` over `bytes` per PE, checks its data and its
  // slowest-PE virtual elapsed time against the golden for (op, bytes).
  void run_job(Op op, std::size_t bytes, std::uint64_t seed, Tracer* tr,
               PhaseResult& res) {
    std::mutex mu;
    tilesim::ps_t slowest = 0;
    std::atomic<bool> data_ok{true};
    std::atomic<std::int64_t> first_in{std::numeric_limits<std::int64_t>::max()};
    std::atomic<std::int64_t> last_in{0};
    std::atomic<std::int64_t> last_out{0};
    const int oi = static_cast<int>(op);
    const Usage u0 = tr != nullptr ? Usage::now() : Usage{};
    const std::int64_t t_call = now_ns();
    std::int64_t t_ret = 0;
    {
      ScopedSpan run_span(tr, "tshmem.Runtime.run");
      const std::uint32_t cause = run_span.id();
      rt_->run(kPes, [&](tshmem::Context& ctx) {
        if (tr != nullptr) {
          const std::int64_t t = now_ns();
          atomic_min(first_in, t);
          atomic_max(last_in, t);
        }
        {
          ScopedSpan body(tr, "job.body", cause);
          if (!pe_body(ctx, op, bytes, seed, tr, mu, slowest)) {
            data_ok.store(false);
          }
        }
        if (tr != nullptr) atomic_max(last_out, now_ns());
      });
      t_ret = now_ns();
    }
    if (tr != nullptr) {
      timings_.push_back(JobTiming{
          static_cast<double>(first_in.load() - t_call),
          static_cast<double>(last_out.load() - first_in.load()),
          static_cast<double>(t_ret - last_out.load()),
          static_cast<double>(last_in.load() - first_in.load()),
          Usage::now() - u0});
    }
    const std::string key =
        std::string(kOpName[oi]) + "/" + std::to_string(bytes);
    const bool vt_ok = args_.goldens->check("job-churn", key, slowest);
    ++res.attempted;
    if (!vt_ok || !data_ok.load()) ++res.failed;
  }

  static bool pe_body(tshmem::Context& ctx, Op op, std::size_t bytes,
                      std::uint64_t seed, Tracer* tr, std::mutex& mu,
                      tilesim::ps_t& slowest) {
    const int me = ctx.my_pe();
    const std::size_t n = bytes / sizeof(int);
    const tshmem::ActiveSet world = ctx.world();
    int* src = nullptr;
    int* dst = nullptr;
    if (op != Op::kBarrier) {
      ScopedSpan s(tr, "tshmem.Context.shmalloc");
      const std::size_t dst_n = op == Op::kFcollect ? n * kPes : n;
      src = ctx.shmalloc_n<int>(n);
      dst = ctx.shmalloc_n<int>(dst_n);
      for (std::size_t i = 0; i < n; ++i) src[i] = element(seed, me, i);
      std::memset(dst, 0, dst_n * sizeof(int));
    }
    {
      ScopedSpan s(tr, "tshmem.Context.barrier_all");
      ctx.barrier_all();
    }
    const tilesim::ps_t v0 = ctx.clock().now();
    {
      ScopedSpan s(tr, kOpSpan[static_cast<int>(op)]);
      switch (op) {
        case Op::kBcastPush:
          ctx.broadcast(dst, src, bytes, 0, world, tshmem::BcastAlgo::kPush);
          break;
        case Op::kBcastPull:
          ctx.broadcast(dst, src, bytes, 0, world, tshmem::BcastAlgo::kPull);
          break;
        case Op::kFcollect:
          ctx.fcollect(dst, src, bytes, world);
          break;
        case Op::kReduce:
          ctx.reduce(dst, src, n, tshmem::RedOp::kSum, world);
          break;
        case Op::kBarrier:
          ctx.barrier_all();
          break;
      }
    }
    const tilesim::ps_t dt = ctx.clock().now() - v0;
    {
      std::scoped_lock lk(mu);
      slowest = std::max(slowest, dt);
    }
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      switch (op) {
        case Op::kBcastPush:
        case Op::kBcastPull:
          // OpenSHMEM broadcast leaves the root's target untouched.
          ok = ok && (me == 0 || dst[i] == element(seed, 0, i));
          break;
        case Op::kFcollect:
          for (int pe = 0; pe < kPes; ++pe) {
            ok = ok && dst[static_cast<std::size_t>(pe) * n + i] ==
                           element(seed, pe, i);
          }
          break;
        case Op::kReduce: {
          int sum = 0;
          for (int pe = 0; pe < kPes; ++pe) sum += element(seed, pe, i);
          ok = ok && dst[i] == sum;
          break;
        }
        case Op::kBarrier:
          break;
      }
    }
    if (op != Op::kBarrier) {
      ctx.barrier_all();  // every PE is done reading before the frees
      ScopedSpan s(tr, "tshmem.Context.shfree");
      ctx.shfree(dst);
      ctx.shfree(src);
    }
    return ok;
  }

  WorkloadArgs args_;
  tshmem_util::Xoshiro256 rng_;
  std::unique_ptr<tshmem::Runtime> rt_;
  std::uint64_t next_op_ = 0;
  std::vector<JobTiming> timings_;  ///< traced jobs only
};

}  // namespace

std::unique_ptr<Workload> make_job_churn(const WorkloadArgs& args) {
  return std::make_unique<JobChurn>(args);
}

}  // namespace pb
