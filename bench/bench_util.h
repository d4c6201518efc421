#ifndef SCC_BENCH_BENCH_UTIL_H_
#define SCC_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sys/perf_counters.h"
#include "sys/timer.h"
#include "util/rng.h"

// Shared helpers for the figure/table reproduction harnesses. Each bench
// binary is a standalone main() that prints the same rows/series the
// paper reports, so `for b in build/bench/*; do $b; done` regenerates the
// whole evaluation.

namespace scc {
namespace bench {

/// Synthetic values for the Section 3 microbenchmarks: codes uniform in
/// [0, 2^b), outliers above the frame with probability `exception_rate`.
template <typename T>
std::vector<T> ExceptionData(size_t n, int b, T base, double exception_rate,
                             uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  const uint64_t max_code = (uint64_t(1) << b) - 1;
  for (size_t i = 0; i < n; i++) {
    if (rng.Bernoulli(exception_rate)) {
      v[i] = T(base + T(max_code) + T(2 + rng.Uniform(100000)));
    } else {
      v[i] = T(base + T(rng.Uniform(max_code)));  // strictly below escape
    }
  }
  return v;
}

/// Runs `fn` repeatedly, returns best-of-reps seconds (steadier than the
/// mean on a shared machine).
inline double BestSeconds(int reps, const std::function<void()>& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; r++) {
    Timer t;
    fn();
    double s = t.ElapsedSeconds();
    if (s < best) best = s;
  }
  return best;
}

/// Measures `fn` under the perf counter group (if available).
struct MeasuredRun {
  double seconds = 0;
  PerfReading perf;
};

inline MeasuredRun MeasureWithCounters(int reps,
                                       const std::function<void()>& fn) {
  MeasuredRun out;
  out.seconds = BestSeconds(reps, fn);
  PerfCounters counters;
  if (counters.available()) {
    counters.Start();
    fn();
    out.perf = counters.Stop();
  }
  return out;
}

/// Formats -1 readings as "n/a".
inline std::string FmtRate(double v, const char* suffix = "%") {
  char buf[32];
  if (v < 0) return "   n/a";
  snprintf(buf, sizeof(buf), "%5.1f%s", v, suffix);
  return buf;
}

inline std::string FmtIpc(double v) {
  char buf[32];
  if (v < 0) return " n/a";
  snprintf(buf, sizeof(buf), "%4.2f", v);
  return buf;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  printf("\n=== %s ===\n", title);
  printf("(reproduces %s)\n\n", paper_ref);
}

/// Removes every occurrence of `flag` from argv (so the remainder can be
/// handed to a stricter parser, e.g. google-benchmark's). Returns whether
/// the flag was present.
inline bool StripFlag(int* argc, char** argv, const char* flag) {
  int w = 1;
  bool found = false;
  for (int i = 1; i < *argc; i++) {
    if (std::strcmp(argv[i], flag) == 0) {
      found = true;
    } else {
      argv[w++] = argv[i];
    }
  }
  *argc = w;
  return found;
}

/// The one machine-readable report format (--json): a single object
///
///   {"bench":"micro_morsel","config":{"max_threads":4},"metrics":{
///   "morsel_scan/threads:1.bytes_per_second":1.07e+09,
///   "morsel_scan/threads:1.speedup":1}}
///
/// whose flat "metrics" map holds one metric per line, so json.load reads
/// the whole report and `grep KEY` picks single metrics out of it.
/// Stackbench (stackbench/README.md) is the ledger performance claims
/// come from; these reports are per-bench detail with no baseline.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  void Config(const std::string& key, double value) {
    config_.emplace_back(key, Number(value));
  }
  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, Quote(value));
  }
  void Metric(const std::string& key, double value) {
    metrics_.emplace_back(key, Number(value));
  }
  /// `name.bytes_per_second` and `name.ns_per_value` of a run that took
  /// `seconds` over `bytes` bytes holding `values` values.
  void Rate(const std::string& name, double bytes, double values,
            double seconds) {
    Metric(name + ".bytes_per_second", bytes / seconds);
    Metric(name + ".ns_per_value", seconds * 1e9 / values);
  }

  void Write(FILE* out) const {
    fprintf(out, "{\"bench\":%s,\"config\":{", Quote(bench_).c_str());
    for (size_t i = 0; i < config_.size(); i++) {
      fprintf(out, "%s%s:%s", i == 0 ? "" : ",",
              Quote(config_[i].first).c_str(), config_[i].second.c_str());
    }
    fprintf(out, "},\"metrics\":{");
    for (size_t i = 0; i < metrics_.size(); i++) {
      fprintf(out, "%s\n%s:%s", i == 0 ? "" : ",",
              Quote(metrics_[i].first).c_str(), metrics_[i].second.c_str());
    }
    fprintf(out, "}}\n");
  }
  /// Writes the report to `path`; false, with a message, when it cannot.
  bool Save(const char* path) const {
    FILE* f = std::fopen(path, "w");
    bool ok = f != nullptr;
    if (ok) {
      Write(f);
      ok = std::fclose(f) == 0;
    }
    if (!ok) {
      fprintf(stderr, "error: cannot write %s\n", path);
      return false;
    }
    printf("wrote %s\n", path);
    return true;
  }

 private:
  /// A timer that read zero makes a rate infinite; JSON has no literal
  /// for that, so it is written as null.
  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
  }
  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + "\"";
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> config_, metrics_;
};

/// Geometric mean (the right average for throughput ratios across bit
/// widths); zero/negative entries are skipped.
inline double GeoMean(const std::vector<double>& values) {
  double log_sum = 0;
  size_t count = 0;
  for (double v : values) {
    if (v > 0) {
      log_sum += std::log(v);
      count++;
    }
  }
  return count ? std::exp(log_sum / double(count)) : 0.0;
}

}  // namespace bench
}  // namespace scc

#endif  // SCC_BENCH_BENCH_UTIL_H_
