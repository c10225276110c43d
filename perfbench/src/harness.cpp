#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace pb {

namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// Parent bookkeeping for the span tracer: one open-span stack and one
// small thread number per host thread.
thread_local std::vector<std::uint32_t> t_open;
thread_local std::uint32_t t_thread = 0;

}  // namespace

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = tv_s(ru.ru_utime);
  u.sys_s = tv_s(ru.ru_stime);
  u.minflt = ru.ru_minflt;
  u.majflt = ru.ru_majflt;
  u.nvcsw = ru.ru_nvcsw;
  u.nivcsw = ru.ru_nivcsw;
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  Usage d;
  d.user_s = a.user_s - b.user_s;
  d.sys_s = a.sys_s - b.sys_s;
  d.minflt = a.minflt - b.minflt;
  d.majflt = a.majflt - b.majflt;
  d.nvcsw = a.nvcsw - b.nvcsw;
  d.nivcsw = a.nivcsw - b.nivcsw;
  return d;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit, std::size_t samples, double q) {
  entries_[name] = Entry{value, unit, samples, q};
}

void Metrics::pct(const std::string& name, const std::vector<double>& samples,
                  double q, const std::string& unit) {
  entries_[name] = Entry{percentile(samples, q), unit, samples.size(), q};
}

// ---------------------------------------------------------------------------

Tracer::Tracer(std::size_t capacity) : spans_(capacity) {}

std::uint32_t Tracer::begin(const char* name, std::uint32_t cause) {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) return 0;
  if (t_thread == 0) {
    t_thread = threads_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  Span& s = spans_[slot];
  s.name = name;
  s.id = static_cast<std::uint32_t>(slot + 1);
  s.parent = t_open.empty() ? cause : t_open.back();
  s.thread = t_thread;
  t_open.push_back(s.id);
  s.start_ns = now_ns();
  return s.id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  t_open.pop_back();
}

std::size_t Tracer::size() const noexcept {
  return std::min(next_.load(std::memory_order_relaxed), spans_.size());
}

namespace {

// Time the union of each span's children covers, indexed by span slot.
// Children on other threads (a job's PE bodies) may overlap each other.
std::vector<double> child_ns(const std::vector<Span>& spans, std::size_t n) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.parent != 0 && s.end_ns != 0) {
      kids[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> child(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    for (std::size_t k = 0; k < iv.size(); ++k) {
      const auto [b, e] = iv[k];
      if (k == 0 || b > hi) {
        covered += hi - lo;
        lo = b;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    covered += hi - lo;
    child[i] = static_cast<double>(covered);
  }
  return child;
}

}  // namespace

std::map<std::string, Tracer::Stats> Tracer::stats() const {
  std::map<std::string, Stats> out;
  for (std::size_t i = 0; i < size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;  // still open when the phase stopped
    out[s.name].dur_ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  const std::size_t n = size();
  const std::vector<double> child = child_ns(spans_, n);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "id\tparent\tthread\tname\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    out << s.id << '\t' << s.parent << '\t' << s.thread << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << static_cast<std::int64_t>(
               static_cast<double>(s.end_ns - s.start_ns) - child[i])
        << '\n';
  }
}

// ---------------------------------------------------------------------------

Goldens Goldens::load(const std::string& path) {
  Goldens g;
  if (path.empty()) return g;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read goldens " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::JsonValue root = obs::JsonValue::parse(ss.str());
  for (const auto& [workload, entries] : root.at("workloads").as_object()) {
    for (const auto& [key, value] : entries.as_object()) {
      g.table_[workload][key] = value.as_uint();
    }
  }
  return g;
}

void Goldens::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write goldens " + path);
  out << "{\n  \"schema\": \"tshmem.perfbench.goldens.v1\",\n"
      << "  \"workloads\": {";
  bool first_w = true;
  for (const auto& [workload, entries] : table_) {
    out << (first_w ? "\n" : ",\n") << "    \"" << workload << "\": {";
    first_w = false;
    bool first = true;
    for (const auto& [key, value] : entries) {
      out << (first ? "\n" : ",\n") << "      \"" << key << "\": " << value;
      first = false;
    }
    out << "\n    }";
  }
  out << "\n  }\n}\n";
}

bool Goldens::check(const std::string& workload, const std::string& key,
                    std::uint64_t value) {
  auto& entries = table_[workload];
  const auto it = entries.find(key);
  if (it == entries.end() && recording_) {
    entries.emplace(key, value);
    return true;
  }
  if (it != entries.end() && it->second == value) return true;
  if (mismatches_.size() < 16) {
    std::ostringstream os;
    os << workload << " " << key << ": got " << value << ", golden "
       << (it == entries.end() ? std::string("missing")
                               : std::to_string(it->second));
    mismatches_.push_back(os.str());
  }
  return false;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace pb
