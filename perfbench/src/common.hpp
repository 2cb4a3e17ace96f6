// Small helpers shared by perfbench_serve and the traced ladder:
// clocks, summary statistics, the span recorder, and /proc readers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// One timed interval at a layer boundary. `parent` indexes the enclosing
/// span (-1: none); spans of one request share `request`.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint32_t request;
};

/// In-memory span log, written out once at the end of the run.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 16);
  }

  std::int32_t open(const char* name, std::uint32_t request,
                    std::int32_t parent = -1) {
    spans_.push_back({name, now_ns(), 0, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Closes span `id`; returns its duration in milliseconds.
  double close(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }

  /// One JSON object per line: name, start/end (ns since the run's
  /// origin), parent span id and request id.
  bool write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"request\":%u}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.request);
    }
    return std::fclose(out) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// A size field of /proc/self/status ("VmHWM:" is the peak resident set,
/// "VmRSS:" the current one) in MiB; -1 if unreadable.
inline double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  return -1.0;
}

/// Steal and total jiffies of all CPUs, from the first line of /proc/stat.
/// Steal is time the hypervisor ran something else while a vCPU wanted to
/// run: a run with much of it was slowed by the host, not the program.
struct CpuTimes {
  double steal = 0;
  double total = 0;
};

inline CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  double field = 0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

/// Resets VmHWM to the current RSS (writes "5" to /proc/self/clear_refs).
inline bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
