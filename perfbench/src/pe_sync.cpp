// pe-sync: one long job made of rounds of small point-to-point traffic.
// Lifecycle cost is paid once, so host time here is per-op cost in
// tshmem::Context, the tmc UDN handoff and sim's guarded spin/yield.
//
// A round, on every PE: put 8-256 B into the right neighbour's inbox, get
// the same amount from the left neighbour's table, fadd a counter on PE 0,
// quiet, then pass a token around the ring (PE 0 -> 1 -> ... -> 0) with
// put + wait_until, and barrier_all. Inboxes alternate by round parity so
// a round's puts never land on the inbox a slower PE is still checking.
// The token chain orders every delivery
// into a PE before that PE's wait ends, which should keep each round's
// virtual time independent of host scheduling.
//
// It does not quite, at this library version: an elemental put makes its
// store visible before it records the delivery time that wait_until merges,
// so a waiter that wakes in that window keeps a stale clock. Each PE detects
// this exactly (its clock after the wait is behind the token's delivery
// time, which the sender reports through a host-side slot); such rounds are
// counted as tshmem.ctx.wait_until_races and left out of the golden check.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>

#include "tmc/udn.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kSizeSteps = 6;        // 8 B .. 256 B
constexpr std::size_t kMaxBytes = 256;
constexpr std::size_t kTableBytes = 4096;
constexpr std::uint64_t kOpsPerRound = 7 * kPes;  // put get fadd quiet p
                                                  // wait_until barrier_all
constexpr int kUdnProbeIters = 2000;

std::uint8_t pattern(std::uint64_t seed, int pe, std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1) +
                    (static_cast<std::uint64_t>(pe) << 40);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<std::uint8_t>((z ^ (z >> 27)) >> 56);
}

struct RoundLog {
  std::vector<tilesim::ps_t> vt;    ///< PE 0 virtual time per round
  std::vector<int> size_step;       ///< log2(bytes / 8) per round
  std::vector<double> host_us;      ///< PE 0 host time per round
  std::uint64_t bad_rounds = 0;     ///< rounds whose data did not match
  std::vector<bool> raced;          ///< a wait_until woke with a stale clock
};

// Runs rounds in one job until `max_rounds`, `seconds` or a full tracer.
RoundLog run_rounds(tshmem::Runtime& rt, std::uint64_t seed,
                    std::uint64_t max_rounds, double seconds, Tracer* tr) {
  RoundLog log;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  // token_vt[parity][pe]: delivery time of the token put into pe's flag,
  // written by its left neighbour, read by pe after the round's barrier.
  std::vector<tilesim::ps_t> token_vt[2] = {
      std::vector<tilesim::ps_t>(kPes), std::vector<tilesim::ps_t>(kPes)};
  std::vector<std::uint64_t> raced[kPes];  // rounds, per detecting PE
  const tilesim::ps_t call_ps = rt.config().shmem_call_overhead_ps;
  rt.run(kPes, [&](tshmem::Context& ctx) {
    const int me = ctx.my_pe();
    const int right = (me + 1) % kPes;
    const int left = (me + kPes - 1) % kPes;
    auto* inboxes = ctx.shmalloc_n<std::uint8_t>(2 * kMaxBytes);
    auto* table = ctx.shmalloc_n<std::uint8_t>(kTableBytes);
    auto* flag = ctx.shmalloc_n<long>(1);
    auto* counter = ctx.shmalloc_n<long>(1);
    for (std::size_t i = 0; i < kTableBytes; ++i) {
      table[i] = pattern(seed, me, i);
    }
    *flag = 0;
    *counter = 0;
    std::uint8_t out[kMaxBytes];
    std::uint8_t got[kMaxBytes];
    // Every PE draws the same size sequence from the seed.
    tshmem_util::Xoshiro256 rng(seed);
    ctx.barrier_all();
    const std::int64_t t0 = now_ns();
    for (std::uint64_t r = 0;; ++r) {
      const int step = static_cast<int>(rng.below(kSizeSteps));
      const std::size_t bytes = std::size_t{8} << step;
      const std::size_t off = rng.below(kTableBytes - kMaxBytes);
      std::uint8_t* inbox = inboxes + (r % 2) * kMaxBytes;
      const std::int64_t h0 = now_ns();
      const tilesim::ps_t v0 = ctx.clock().now();
      tilesim::ps_t waited_vt = 0;
      bool ok = true;
      {
        ScopedSpan round(tr, "pe_sync.round");
        for (std::size_t i = 0; i < bytes; ++i) {
          out[i] = pattern(seed ^ r, me, i);
        }
        {
          ScopedSpan s(tr, "tshmem.Context.put");
          ctx.put(inbox, out, bytes, right);
        }
        {
          ScopedSpan s(tr, "tshmem.Context.get");
          ctx.get(got, table + off, bytes, left);
        }
        for (std::size_t i = 0; i < bytes; ++i) {
          ok = ok && got[i] == pattern(seed, left, off + i);
        }
        {
          ScopedSpan s(tr, "tshmem.Context.fadd");
          // Round r's fadds all land between the barriers of rounds r-1
          // and r, so each sees one of the round's kPes slots.
          const long old = ctx.fadd(counter, 1L, 0);
          ok = ok && old >= static_cast<long>(r * kPes) &&
               old < static_cast<long>((r + 1) * kPes);
        }
        {
          ScopedSpan s(tr, "tshmem.Context.quiet");
          ctx.quiet();
        }
        const long token = static_cast<long>(r + 1);
        auto pass_token = [&] {
          {
            ScopedSpan s(tr, "tshmem.Context.put");
            ctx.p(flag, token, right);
          }
          token_vt[r % 2][static_cast<std::size_t>(right)] = ctx.clock().now();
        };
        if (me == 0) pass_token();
        {
          ScopedSpan s(tr, "tshmem.Context.wait_until");
          ctx.wait_until(flag, tshmem::Cmp::kGe, token);
        }
        waited_vt = ctx.clock().now() - call_ps;
        if (me != 0) pass_token();
        if (me == 0) {
          const bool done = r + 1 >= max_rounds ||
                            now_ns() - t0 >= budget ||
                            (tr != nullptr && tr->full());
          stop.store(done);
        }
        {
          ScopedSpan s(tr, "tshmem.Context.barrier_all");
          ctx.barrier_all();
        }
      }
      for (std::size_t i = 0; i < bytes; ++i) {
        ok = ok && inbox[i] == pattern(seed ^ r, left, i);
      }
      if (waited_vt < token_vt[r % 2][static_cast<std::size_t>(me)]) {
        raced[me].push_back(r);
      }
      if (me == 0) {
        log.vt.push_back(ctx.clock().now() - v0);
        log.size_step.push_back(step);
        log.host_us.push_back(static_cast<double>(now_ns() - h0) * 1e-3);
      }
      if (!ok) bad.fetch_add(1);
      if (stop.load()) break;
    }
    ctx.shfree(counter);
    ctx.shfree(flag);
    ctx.shfree(table);
    ctx.shfree(inboxes);
  });
  log.bad_rounds = bad.load();
  log.raced.assign(log.vt.size(), false);
  for (const auto& rounds : raced) {
    for (const std::uint64_t r : rounds) log.raced[r] = true;
  }
  return log;
}

// Checks every round's virtual time against the golden for its size (all
// but the rounds a wait_until race perturbed) and adds them to `res`.
void check_rounds(const RoundLog& log, Goldens& goldens, PhaseResult& res) {
  res.attempted += log.vt.size();
  res.failed += log.bad_rounds;
  for (std::size_t i = 0; i < log.vt.size(); ++i) {
    if (log.raced[i]) continue;
    const std::string key =
        "round/" + std::to_string(std::size_t{8} << log.size_step[i]);
    if (!goldens.check("pe-sync", key, log.vt[i])) ++res.failed;
  }
}

// pe-sync host time with the obs sinks (metrics, profiler, flight
// recorder) on, divided by the same rounds with all three off. The virtual
// results must be identical; differing rounds fail `res`.
double sink_overhead(std::uint64_t seed, PhaseResult& res) {
  constexpr std::uint64_t kRounds = 3000;
  tshmem::RuntimeOptions on;
  on.metrics = true;
  on.profile = true;
  on.flightrec = true;
  double host_s[2] = {0.0, 0.0};
  RoundLog log[2];
  for (int sinks = 0; sinks < 2; ++sinks) {
    tshmem::Runtime rt(tilesim::tile_gx36(),
                       sinks == 1 ? on : tshmem::RuntimeOptions{});
    (void)run_rounds(rt, seed, 64, 60.0, nullptr);  // warm-up
    const std::int64_t t0 = now_ns();
    log[sinks] = run_rounds(rt, seed, kRounds, 60.0, nullptr);
    host_s[sinks] = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  // Same seed, same rounds: virtual time must not see the sinks.
  res.attempted += kRounds;
  res.failed += log[0].bad_rounds + log[1].bad_rounds;
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    if (!log[0].raced[i] && !log[1].raced[i] &&
        log[0].vt[i] != log[1].vt[i]) {
      ++res.failed;
    }
  }
  return host_s[1] / host_s[0];
}

class PeSync final : public Workload {
 public:
  explicit PeSync(const WorkloadArgs& a) : args_(a) {}

  void setup() override {
    rt_ = std::make_unique<tshmem::Runtime>(tilesim::tile_gx36());
    PhaseResult warm;
    check_rounds(run_rounds(*rt_, args_.seed, 64, 60.0, nullptr),
                 *args_.goldens, warm);
    if (warm.failed != 0) throw std::runtime_error("pe-sync warm-up failed");
  }

  PhaseResult run(double seconds, Tracer* tr) override {
    PhaseResult res;
    const Usage u0 = Usage::now();
    const std::int64_t t0 = now_ns();
    ScopedSpan phase(tr, "tshmem.Runtime.run");
    const RoundLog log = run_rounds(*rt_, args_.seed + 1, ~0ULL, seconds, tr);
    res.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    res.usage = Usage::now() - u0;
    res.steps = log.vt.size();
    res.work = res.steps * kOpsPerRound;
    for (const double us : log.host_us) res.step_ms.push_back(us * 1e-3);
    check_rounds(log, *args_.goldens, res);
    raced_rounds_ = static_cast<std::uint64_t>(
        std::count(log.raced.begin(), log.raced.end(), true));
    return res;
  }

  void layer_metrics(const Tracer& tr, PhaseResult& res,
                     Metrics& out) override {
    const auto st = tr.stats();
    auto ns = [&](const char* name) {
      const auto it = st.find(name);
      return it == st.end() ? std::vector<double>{} : it->second.dur_ns;
    };
    auto us = [&](const char* name) {
      std::vector<double> v = ns(name);
      for (double& x : v) x *= 1e-3;
      return v;
    };
    out.pct("tshmem.ctx.put_ns.p50", ns("tshmem.Context.put"), 0.5, "ns");
    out.pct("tshmem.ctx.get_ns.p50", ns("tshmem.Context.get"), 0.5, "ns");
    out.pct("tshmem.ctx.fadd_ns.p50", ns("tshmem.Context.fadd"), 0.5, "ns");
    out.pct("tshmem.ctx.quiet_ns.p50", ns("tshmem.Context.quiet"), 0.5, "ns");
    const std::vector<double> barrier = us("tshmem.Context.barrier_all");
    out.pct("tshmem.ctx.barrier_us.p50", barrier, 0.5, "us");
    out.pct("tshmem.ctx.barrier_us.p99", barrier, 0.99, "us");
    out.pct("tshmem.ctx.wait_until_us.p50", us("tshmem.Context.wait_until"),
            0.5, "us");
    std::vector<double> round_us = res.step_ms;
    for (double& x : round_us) x *= 1e3;
    out.pct("round_us.p99", round_us, 0.99, "us");
    const auto rounds = static_cast<double>(std::max<std::uint64_t>(1, res.steps));
    out.set("sim.nvcsw_per_round", static_cast<double>(res.usage.nvcsw) / rounds,
            "count");
    out.set("sim.nivcsw_per_round",
            static_cast<double>(res.usage.nivcsw) / rounds, "count");
    out.set("tshmem.ctx.wait_until_races", static_cast<double>(raced_rounds_),
            "count");
    udn_probe(out);
    out.set("obs.sink_overhead", sink_overhead(args_.seed, res), "ratio");
  }

 private:
  // Times UdnFabric::send/recv directly: PE pairs (0,1) and (2,3) ping-pong
  // one-word packets on demux queue 0, which the library leaves unused.
  void udn_probe(Metrics& out) {
    Tracer tr(8 * kPes * kUdnProbeIters);
    rt_->run(kPes, [&](tshmem::Context& ctx) {
      const int me = ctx.my_pe();
      const int peer = me ^ 1;
      tmc::UdnFabric& udn = ctx.runtime().udn();
      const std::uint64_t word = static_cast<std::uint64_t>(me);
      for (int i = 0; i < kUdnProbeIters; ++i) {
        if ((me & 1) == (i & 1)) {
          ScopedSpan s(&tr, "tmc.UdnFabric.send");
          udn.send(ctx.tile(), peer, tmc::kUdnQueue0,
                   std::span<const std::uint64_t>(&word, 1));
        } else {
          ScopedSpan s(&tr, "tmc.UdnFabric.recv");
          (void)udn.recv(ctx.tile(), tmc::kUdnQueue0);
        }
      }
    });
    const auto st = tr.stats();
    out.pct("tmc.udn.send_ns.p50", st.at("tmc.UdnFabric.send").dur_ns, 0.5,
            "ns");
    std::vector<double> recv = st.at("tmc.UdnFabric.recv").dur_ns;
    for (double& x : recv) x *= 1e-3;
    out.pct("tmc.udn.recv_us.p50", recv, 0.5, "us");
  }

  WorkloadArgs args_;
  std::unique_ptr<tshmem::Runtime> rt_;
  std::uint64_t raced_rounds_ = 0;  ///< in the last phase
};

}  // namespace

std::unique_ptr<Workload> make_pe_sync(const WorkloadArgs& args) {
  return std::make_unique<PeSync>(args);
}

}  // namespace pb
