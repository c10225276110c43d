// Host-time benchmark driver (see README.md).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --goldens PATH [--traced-seconds T] [--report PATH]
//                    [--spans-dir DIR] [--record-goldens PATH]
//
// --trace 0: set up the workload several times (setup_s is the median),
// run its timed phase untraced as kWindows equal windows and print the
// end-to-end metrics. The step-time median pools every step; throughput and
// CPU per step come from the best window, because the host's cores are
// shared and contention arrives in bursts of seconds that can cover most of
// a run, while a quiet window is nearly always there to measure the
// program's own cost.
// --trace 1: run the workload untraced for S seconds, then traced with
// in-memory spans for T (default S/2); report its layer metrics, its
// process-level ledger and the tracing overhead (traced host time per step
// over untraced). run.py runs one such process per workload so that every
// layer metric comes from a fresh process of the workload that carries it.
//
// Every virtual-time result is checked against the goldens; the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}, and
// the exit code is non-zero when anything failed.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using pb::Metrics;
using pb::PhaseResult;

constexpr int kSetupReps = 20;  // setup_s is their median
constexpr int kWindows = 10;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;
// Pooled step times are kept in a buffer touched before the timed phase,
// so the benchmark's own bookkeeping does not move peak_rss_mb.
constexpr std::size_t kPooledSteps = std::size_t{1} << 21;

struct Factory {
  const char* name;
  std::unique_ptr<pb::Workload> (*make)(const pb::WorkloadArgs&);
};
constexpr Factory kWorkloads[] = {
    {"job-churn", pb::make_job_churn},
    {"pe-sync", pb::make_pe_sync},
    {"fft2d", pb::make_fft2d},
    {"serve", pb::make_serve},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double traced_seconds = 0.0;  ///< 0 = seconds / 2
  int trace = 0;
  std::string goldens;
  std::string report;
  std::string spans_dir;
  std::string record;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = std::stoi(v);
    else if (flag == "--traced-seconds") a.traced_seconds = std::stod(v);
    else if (flag == "--goldens") a.goldens = v;
    else if (flag == "--report") a.report = v;
    else if (flag == "--spans-dir") a.spans_dir = v;
    else if (flag == "--record-goldens") a.record = v;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (a.traced_seconds < 0.0) {
    throw std::invalid_argument("--traced-seconds must be >= 0");
  }
  if (a.traced_seconds == 0.0) a.traced_seconds = a.seconds / 2;
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  return a;
}

void add_counts(PhaseResult& total, const PhaseResult& ph) {
  total.attempted += ph.attempted;
  total.failed += ph.failed;
}

// Runs the untraced timed phase as kWindows windows and records the
// end-to-end metrics; returns the summed counts.
PhaseResult end_to_end(pb::Workload& w, double seconds, Metrics& m) {
  std::vector<double> pooled;
  pooled.resize(kPooledSteps);
  pooled.clear();
  std::vector<double> rate, cpu;
  PhaseResult total;
  for (int i = 0; i < kWindows; ++i) {
    const PhaseResult ph = w.run(seconds / kWindows, nullptr);
    add_counts(total, ph);
    const double steps =
        static_cast<double>(std::max<std::uint64_t>(1, ph.steps));
    rate.push_back(static_cast<double>(ph.work) / ph.wall_s);
    cpu.push_back((ph.usage.user_s + ph.usage.sys_s) * 1e3 / steps);
    pooled.insert(pooled.end(), ph.step_ms.begin(), ph.step_ms.end());
  }
  m.set("peak_rss_mb", pb::peak_rss_mb(), "MB");
  m.set("work_per_s", *std::max_element(rate.begin(), rate.end()), "1/s");
  m.set("cpu_ms_per_step", *std::min_element(cpu.begin(), cpu.end()), "ms");
  m.pct("step_ms.p50", pooled, 0.5, "ms");
  return total;
}

// Process-level ledger and step-time tail of an untraced phase; counts are
// per step so phases of any length compare.
void ledger(const PhaseResult& ph, Metrics& m) {
  m.pct("step_ms.p90", ph.step_ms, 0.9, "ms");
  const double steps = static_cast<double>(std::max<std::uint64_t>(1, ph.steps));
  m.set("proc.user_s", ph.usage.user_s, "s");
  m.set("proc.sys_s", ph.usage.sys_s, "s");
  m.set("proc.minflt_per_step", static_cast<double>(ph.usage.minflt) / steps,
        "count");
  m.set("proc.majflt", static_cast<double>(ph.usage.majflt), "count");
  m.set("proc.nvcsw_per_step", static_cast<double>(ph.usage.nvcsw) / steps,
        "count");
  m.set("proc.nivcsw_per_step", static_cast<double>(ph.usage.nivcsw) / steps,
        "count");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // such a run is already failed
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void write_report(const std::string& path, const Args& a, const PhaseResult& t,
                  const Metrics& m, const pb::Goldens& g,
                  const std::vector<std::string>& errors) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write report " + path);
  out << "{\n  \"schema\": \"tshmem.perfbench.report.v1\",\n"
      << "  \"workload\": " << json_string(a.workload) << ",\n"
      << "  \"seed\": " << a.seed << ",\n  \"trace\": " << a.trace << ",\n"
      << "  \"attempted\": " << t.attempted << ",\n"
      << "  \"failed\": " << t.failed << ",\n  \"failed_frac\": "
      << json_number(static_cast<double>(t.failed) /
                     static_cast<double>(std::max<std::uint64_t>(1, t.attempted)))
      << ",\n  \"errors\": [";
  std::vector<std::string> all = g.mismatches();
  all.insert(all.end(), errors.begin(), errors.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    out << (i ? ", " : "") << json_string(all[i]);
  }
  out << "],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : m.entries()) {
    out << (first ? "\n" : ",\n") << "    " << json_string(name)
        << ": {\"value\": " << json_number(e.value)
        << ", \"unit\": " << json_string(e.unit)
        << ", \"samples\": " << e.samples << ", \"q\": " << json_number(e.q)
        << "}";
    first = false;
  }
  out << "\n  }\n}\n";
}

// glibc raises its mmap threshold after a large block is freed, after which
// the runtime's per-job 8 MiB arenas come from the heap and are either
// reused warm or trimmed and re-faulted, depending on what else happens to
// sit at the top of the heap (the benchmark's own bookkeeping included).
// Pinning the threshold at its default makes every large block a fresh
// mapping, so the arena cost measured is the library's, every run.
void pin_allocator() { mallopt(M_MMAP_THRESHOLD, 128 * 1024); }

void unset_library_overrides() {
  // The library reads these to switch instrumentation on; the benchmark
  // measures the defaults.
  for (const char* var :
       {"TSHMEM_BLACKBOX", "TSHMEM_DEBUG", "TSHMEM_FAULT_PLAN",
        "TSHMEM_FLIGHTREC", "TSHMEM_METRICS", "TSHMEM_PROFILE",
        "TSHMEM_RACECHECK", "TSHMEM_RACECHECK_GRANULE",
        "TSHMEM_TIMESERIES_WINDOW_PS", "TSHMEM_WATCHDOG_MS"}) {
    unsetenv(var);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
  const Factory* factory = nullptr;
  for (const Factory& f : kWorkloads) {
    if (args.workload == f.name) factory = &f;
  }
  if (factory == nullptr) {
    std::cerr << "perfbench_driver: unknown workload '" << args.workload
              << "'\n";
    return 2;
  }
  unset_library_overrides();
  pin_allocator();

  pb::Goldens goldens;
  PhaseResult total;
  Metrics m;
  std::vector<std::string> errors;
  try {
    goldens = pb::Goldens::load(args.goldens);
    goldens.set_recording(!args.record.empty());
    const pb::WorkloadArgs wargs{args.seed, &goldens};
    if (args.trace == 0) {
      std::vector<double> setup_s;
      std::unique_ptr<pb::Workload> w;
      for (int i = 0; i < kSetupReps; ++i) {
        w.reset();
        const std::int64_t t0 = pb::now_ns();
        w = factory->make(wargs);
        w->setup();
        setup_s.push_back(static_cast<double>(pb::now_ns() - t0) * 1e-9);
      }
      m.pct("setup_s", setup_s, 0.5, "s");
      add_counts(total, end_to_end(*w, args.seconds, m));
    } else {
      std::unique_ptr<pb::Workload> w = factory->make(wargs);
      w->setup();
      const PhaseResult plain = w->run(args.seconds, nullptr);
      pb::Tracer tr(kSpanCapacity);
      PhaseResult traced = w->run(args.traced_seconds, &tr);
      add_counts(total, plain);
      w->layer_metrics(tr, traced, m);
      add_counts(total, traced);
      ledger(plain, m);
      auto per_step = [](const PhaseResult& ph) {
        return ph.wall_s /
               static_cast<double>(std::max<std::uint64_t>(1, ph.steps));
      };
      m.set("trace.overhead_ratio", per_step(traced) / per_step(plain),
            "ratio");
      if (!args.spans_dir.empty()) {
        tr.write(args.spans_dir + "/spans-" + args.workload + ".tsv");
      }
    }
  } catch (const std::exception& e) {
    errors.push_back(e.what());
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    ++total.failed;
    ++total.attempted;
  }
  for (const auto& [name, e] : m.entries()) {
    if (!std::isfinite(e.value)) {
      errors.push_back("metric " + name + " is not finite");
      ++total.failed;
      ++total.attempted;
    }
  }

  const double failed_frac =
      static_cast<double>(total.failed) /
      static_cast<double>(std::max<std::uint64_t>(1, total.attempted));
  for (const auto& [name, e] : m.entries()) {
    std::cout << "# " << std::left << std::setw(34) << name << " "
              << std::setprecision(6) << e.value << " " << e.unit;
    if (e.samples != 0) std::cout << "  (n=" << e.samples << ")";
    std::cout << "\n";
  }
  std::cout << "# failed_frac " << failed_frac << " (" << total.failed << "/"
            << total.attempted << ")\n";
  for (const std::string& s : goldens.mismatches()) {
    std::cout << "# golden mismatch: " << s << "\n";
  }
  if (!args.report.empty()) {
    write_report(args.report, args, total, m, goldens, errors);
  }
  if (!args.record.empty() && total.failed == 0) goldens.save(args.record);

  const bool correct = total.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, total.attempted)
            << ", \"failed\": " << total.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : m.entries()) {
    std::cout << (first ? "" : ", ") << json_string(name)
              << ": {\"value\": " << json_number(e.value)
              << ", \"unit\": " << json_string(e.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
