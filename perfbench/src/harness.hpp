// Shared pieces of the host-time benchmark driver: host clocks, the
// getrusage ledger, percentiles, the in-memory span tracer, the
// virtual-time golden table and the metric sink.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// getrusage(RUSAGE_SELF) snapshot; subtract two to get a phase's cost.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long minflt = 0;
  long majflt = 0;
  long nvcsw = 0;
  long nivcsw = 0;

  static Usage now();
  friend Usage operator-(const Usage& a, const Usage& b);
};

/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 when `v` is empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// One timed phase of a workload. A step is the unit `step_ms` times (a
/// job, a round, a transform, a serve run); work is the unit `work_per_s`
/// counts (jobs, shmem ops, transforms, queries).
struct PhaseResult {
  std::uint64_t steps = 0;
  std::uint64_t work = 0;
  std::uint64_t attempted = 0;  ///< golden-checked jobs/rounds/... units
  std::uint64_t failed = 0;     ///< mismatched or errored units
  std::vector<double> step_ms;
  double wall_s = 0.0;
  Usage usage;
};

/// Metric sink: name -> (value, unit), plus the sample count behind each
/// percentile so the self-test can check its tail support.
class Metrics {
 public:
  /// `samples` and `q` describe the sample behind a percentile-like value.
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0, double q = 0.0);
  /// Records percentile `q` of `samples` under `name` (with its support).
  void pct(const std::string& name, const std::vector<double>& samples,
           double q, const std::string& unit);

  struct Entry {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< 0 unless recorded by pct()
    double q = 0.0;
  };
  [[nodiscard]] const std::map<std::string, Entry>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, Entry> entries_;
};

// ---------------------------------------------------------------------------
// Span tracer: spans kept in one preallocated array (slot claimed with an
// atomic increment), parents tracked per thread, written out at the end.

struct Span {
  const char* name = nullptr;  ///< string literal
  std::uint32_t id = 0;        ///< slot + 1
  std::uint32_t parent = 0;    ///< 0 = root
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  /// Claims a slot; returns 0 (span dropped) once the array is full. The
  /// parent is the calling thread's innermost open span, or `cause` (a
  /// span opened on another thread) when the thread has none open.
  std::uint32_t begin(const char* name, std::uint32_t cause = 0);
  void end(std::uint32_t id);

  [[nodiscard]] bool full() const noexcept {
    return next_.load(std::memory_order_relaxed) >= spans_.size();
  }
  [[nodiscard]] std::size_t size() const noexcept;

  struct Stats {
    std::vector<double> dur_ns;  ///< one entry per span
  };
  /// Per-name durations over all recorded spans.
  [[nodiscard]] std::map<std::string, Stats> stats() const;

  /// Writes every span as TSV: id parent thread name start end self.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint32_t> threads_{0};
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tr, const char* name, std::uint32_t cause = 0)
      : tr_(tr), id_(tr != nullptr ? tr->begin(name, cause) : 0) {}
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  ~ScopedSpan() {
    if (id_ != 0) tr_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tr_;
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Virtual-time goldens: per workload, key -> exact value. In record mode a
// missing key is stored; otherwise a missing or different value fails.

class Goldens {
 public:
  /// Loads `path`; an empty path yields an empty table.
  static Goldens load(const std::string& path);
  void save(const std::string& path) const;

  void set_recording(bool on) noexcept { recording_ = on; }

  /// True when `value` matches (or was just recorded). Mismatches are
  /// counted and the first few are kept for the report.
  bool check(const std::string& workload, const std::string& key,
             std::uint64_t value);

  [[nodiscard]] const std::vector<std::string>& mismatches() const {
    return mismatches_;
  }

 private:
  std::map<std::string, std::map<std::string, std::uint64_t>> table_;
  bool recording_ = false;
  std::vector<std::string> mismatches_;
};

/// 64-bit FNV-1a over raw bytes, chained through `h`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace pb
