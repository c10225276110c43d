// serve: svc::Service on a 2-shard gx36 cluster, driven by an open loop of
// seeded Poisson arrivals with Zipf keys and a fixed query count. The only
// workload that runs the single-threaded discrete-event loop, the router,
// LruCache and the batcher. Each Service::run re-calibrates its shards
// with real cbir jobs; the warm-up calibration in setup fills FeatureCache
// so those jobs replay cached feature extraction.
#include <algorithm>
#include <string>

#include "apps/cbir.hpp"
#include "svc/batcher.hpp"
#include "svc/cache.hpp"
#include "svc/loadgen.hpp"
#include "svc/router.hpp"
#include "svc/service.hpp"
#include "tshmem/cluster.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kShards = 2;
// The seed picks each run's traffic from this recorded catalog of
// load-generator seeds, so every run has a golden report.
constexpr std::uint64_t kTraffic[] = {11, 12, 13, 14, 15, 16, 17, 18};
constexpr std::size_t kNumTraffic = std::size(kTraffic);
constexpr int kMicroCalls = 1024;  // calls per timed batch in micro probes
constexpr int kMicroBatches = 64;
constexpr int kLayerReps = 20;  // samples behind each layer-probe median

svc::ServiceConfig service_config(std::uint64_t traffic_seed) {
  svc::ServiceConfig cfg;
  cfg.pes_per_shard = kPes;
  cfg.db.images = 512;
  cfg.load.seed = traffic_seed;
  cfg.load.queries = 50'000;
  cfg.load.start_qps = 50'000.0;  // flat, below the calibrated capacity
  cfg.load.end_qps = 0.0;
  cfg.load.zipf_s = 0.9;
  cfg.load.key_space = cfg.db.images;
  cfg.cache_capacity = 128;
  return cfg;
}

class Serve final : public Workload {
 public:
  explicit Serve(const WorkloadArgs& a) : args_(a), rng_(a.seed) {}

  void setup() override {
    cluster_ = std::make_unique<tshmem::Cluster>(tilesim::tile_gx36(),
                                                 tshmem::ClusterOptions{},
                                                 kShards);
    apps::cbir::FeatureCache::shared().clear();
    svc::Service warm(*cluster_, service_config(kTraffic[0]));
    for (int s = 0; s < kShards; ++s) (void)warm.calibrate_shard(s);
  }

  PhaseResult run(double seconds, Tracer* tr) override {
    PhaseResult res;
    hits_ = 0;
    lookups_ = 0;
    const Usage u0 = Usage::now();
    const std::int64_t t0 = now_ns();
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() - t0 < budget && (tr == nullptr || !tr->full())) {
      const std::uint64_t traffic = kTraffic[rng_.below(kNumTraffic)];
      svc::Service service(*cluster_, service_config(traffic));
      const std::int64_t s0 = now_ns();
      svc::ServiceReport rep;
      {
        ScopedSpan s(tr, "svc.Service.run");
        rep = service.run();
      }
      res.step_ms.push_back(static_cast<double>(now_ns() - s0) * 1e-6);
      ++res.steps;
      res.work += rep.offered;
      res.attempted += rep.offered;
      if (!check(traffic, rep)) {
        res.failed += rep.offered;
      } else {
        res.failed += rep.shed + rep.deadline_dropped + rep.hung;
      }
      hits_ += rep.cache_hits;
      lookups_ += rep.offered;
    }
    res.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    res.usage = Usage::now() - u0;
    return res;
  }

  void layer_metrics(const Tracer& /*tr*/, PhaseResult& res,
                     Metrics& out) override {
    out.set("svc.cache.hit_ratio",
            static_cast<double>(hits_) /
                static_cast<double>(std::max<std::uint64_t>(1, lookups_)),
            "ratio");
    svc::Service service(*cluster_, service_config(kTraffic[0]));
    std::vector<double> cal_ms;
    for (int i = 0; i < kLayerReps; ++i) {
      const std::int64_t t0 = now_ns();
      const svc::ShardCalibration cal = service.calibrate_shard(i % kShards);
      cal_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      ++res.attempted;
      if (!check_calibration(cal)) ++res.failed;
    }
    out.pct("svc.calibrate_ms", cal_ms, 0.5, "ms");
    cbir_probe(out);
    micro_probes(out);
  }

 private:
  bool check_calibration(const svc::ShardCalibration& c) {
    const std::string key = "calibration/shard" + std::to_string(c.shard);
    Goldens& g = *args_.goldens;
    bool ok = g.check("serve", key + "/build_ps", c.build_ps);
    ok = g.check("serve", key + "/setup_ps", c.setup_ps) && ok;
    return g.check("serve", key + "/per_query_ps", c.per_query_ps) && ok;
  }

  bool check(std::uint64_t traffic, const svc::ServiceReport& rep) {
    const std::string key = "traffic/" + std::to_string(traffic);
    Goldens& g = *args_.goldens;
    bool ok = rep.offered == rep.completed + rep.shed + rep.deadline_dropped;
    const std::pair<const char*, std::uint64_t> fields[] = {
        {"/offered", rep.offered},
        {"/completed", rep.completed},
        {"/cache_hits", rep.cache_hits},
        {"/shed", rep.shed},
        {"/deadline_dropped", rep.deadline_dropped},
        {"/hung", rep.hung},
        {"/duration_ps", rep.duration_ps},
        {"/latency_p50_ps", rep.latency.p50},
        {"/latency_p99_ps", rep.latency.p99},
    };
    for (const auto& [field, value] : fields) {
      ok = g.check("serve", key + field, value) && ok;
    }
    for (const svc::ShardCalibration& c : rep.calibration) {
      ok = check_calibration(c) && ok;
    }
    return ok;
  }

  // ShardIndex build and query_batch timed directly in a shard job.
  void cbir_probe(Metrics& out) {
    const svc::ServiceConfig cfg = service_config(kTraffic[0]);
    const apps::cbir::Params db = cfg.db;
    const int count = db.images / kShards;
    const int batch = cfg.batch.max_batch;
    Tracer tr(16 * kLayerReps);
    cluster_->run_shard(0, kPes, [&](tshmem::Context& ctx) {
      const bool root = ctx.my_pe() == 0;
      std::vector<apps::cbir::Feature> queries(static_cast<std::size_t>(batch));
      std::vector<std::uint8_t> img(static_cast<std::size_t>(db.width) *
                                    static_cast<std::size_t>(db.height));
      for (int i = 0; i < batch; ++i) {
        const std::uint64_t s = db.seed + static_cast<std::uint64_t>(i * 97);
        apps::cbir::generate_image(img, db.width, db.height, s);
        queries[static_cast<std::size_t>(i)] =
            apps::cbir::FeatureCache::shared()
                .seeded(img, db.width, db.height, s)
                .feature;
      }
      std::vector<apps::cbir::Hit> hits(static_cast<std::size_t>(batch));
      for (int rep = 0; rep < kLayerReps; ++rep) {
        std::unique_ptr<apps::cbir::ShardIndex> index;
        {
          ScopedSpan s(root ? &tr : nullptr, "apps.cbir.ShardIndex");
          index = std::make_unique<apps::cbir::ShardIndex>(ctx, db, 0, count);
        }
        for (int q = 0; q < 10; ++q) {
          ScopedSpan s(root ? &tr : nullptr, "apps.cbir.query_batch");
          index->query_batch(ctx, queries, hits);
        }
        index->destroy(ctx);
      }
    });
    const auto st = tr.stats();
    std::vector<double> build = st.at("apps.cbir.ShardIndex").dur_ns;
    for (double& x : build) x *= 1e-6;
    out.pct("apps.cbir.index_build_ms", build, 0.5, "ms");
    std::vector<double> qb = st.at("apps.cbir.query_batch").dur_ns;
    for (double& x : qb) x *= 1e-3;
    out.pct("apps.cbir.query_batch_us.p50", qb, 0.5, "us");
  }

  // LoadGen, Router, LruCache and Batcher called directly. Each sample is
  // the mean over kMicroCalls calls, since one call is near clock cost.
  void micro_probes(Metrics& out) {
    const svc::ServiceConfig cfg = service_config(kTraffic[0]);
    svc::LoadGen gen(cfg.load);
    std::vector<svc::Arrival> arrivals;
    std::vector<double> next_ns, route_ns, get_ns, add_ns;
    for (int b = 0; b < kMicroBatches; ++b) {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kMicroCalls; ++i) {
        if (gen.exhausted()) gen = svc::LoadGen(cfg.load);
        arrivals.push_back(gen.next());
      }
      next_ns.push_back(static_cast<double>(now_ns() - t0) / kMicroCalls);
    }
    svc::Router router(kShards, cfg.policy, cfg.replicas);
    svc::LruCache cache(cfg.cache_capacity);
    svc::Batcher batcher(cfg.batch);
    std::uint64_t sink = 0;
    for (int b = 0; b < kMicroBatches; ++b) {
      const auto base = static_cast<std::size_t>(b) * kMicroCalls;
      std::int64_t t0 = now_ns();
      for (int i = 0; i < kMicroCalls; ++i) {
        sink += static_cast<std::uint64_t>(
            router.route(arrivals[base + static_cast<std::size_t>(i)].key)
                .shard);
      }
      route_ns.push_back(static_cast<double>(now_ns() - t0) / kMicroCalls);
      t0 = now_ns();
      for (int i = 0; i < kMicroCalls; ++i) {
        const int key = arrivals[base + static_cast<std::size_t>(i)].key;
        if (cache.get(key) == nullptr) cache.put(key, {key, 0.0f});
      }
      get_ns.push_back(static_cast<double>(now_ns() - t0) / kMicroCalls);
      t0 = now_ns();
      for (int i = 0; i < kMicroCalls; ++i) {
        const svc::Arrival& a = arrivals[base + static_cast<std::size_t>(i)];
        if (batcher.add({a.id, a.key, a.at_ps, 0}, a.at_ps).full) {
          sink += batcher.close().size();
        }
      }
      add_ns.push_back(static_cast<double>(now_ns() - t0) / kMicroCalls);
    }
    if (sink == 0) throw std::logic_error("serve micro probes did no work");
    out.pct("svc.loadgen.next_ns", next_ns, 0.5, "ns");
    out.pct("svc.router.route_ns", route_ns, 0.5, "ns");
    out.pct("svc.cache.get_ns", get_ns, 0.5, "ns");
    out.pct("svc.batcher.add_ns", add_ns, 0.5, "ns");
  }

  WorkloadArgs args_;
  tshmem_util::Xoshiro256 rng_;
  std::unique_ptr<tshmem::Cluster> cluster_;
  std::uint64_t hits_ = 0;     ///< cache hits in the last phase
  std::uint64_t lookups_ = 0;  ///< queries offered in the last phase
};

}  // namespace

std::unique_ptr<Workload> make_serve(const WorkloadArgs& args) {
  return std::make_unique<Serve>(args);
}

}  // namespace pb
