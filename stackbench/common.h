#ifndef STACKBENCH_COMMON_H_
#define STACKBENCH_COMMON_H_

// Shared pieces of the stack benchmark: options, latency samples, the
// metric set printed as the result, the span log of the traced run, and
// process memory readings.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace stackbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Served table rows (a multiple of 128).
  size_t rows = size_t(1) << 24;
  /// TPC-H scale factor.
  double sf = 0.5;
  /// Directory the traced run writes its span file into.
  std::string spans_dir;
  /// Test hook: perturbs one expected answer, so verification must fail.
  bool corrupt_expected = false;
};

/// Set-ups per untraced run; setup_s is their median. A traced run sets up
/// once.
constexpr int kSetups = 3;

inline uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Latency samples in nanoseconds.
struct Samples {
  std::vector<uint64_t> ns;

  void Add(uint64_t v) {
    ns.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& o) {
    ns.insert(ns.end(), o.ns.begin(), o.ns.end());
    sorted_ = false;
  }
  size_t size() const { return ns.size(); }
  /// Linearly interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) {
    if (ns.empty()) return 0;
    if (!sorted_) {
      std::sort(ns.begin(), ns.end());
      sorted_ = true;
    }
    const double r = q * double(ns.size() - 1);
    const size_t i = size_t(r);
    const double f = r - double(i);
    if (i + 1 >= ns.size()) return double(ns.back());
    return double(ns[i]) * (1 - f) + double(ns[i + 1]) * f;
  }
  double Median() { return Quantile(0.5); }

 private:
  bool sorted_ = false;
};

/// Median of a few repeated readings (set-up times, probe repeats).
inline double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Operation completions of a timed phase: (completion time, latency).
///
/// Summarize() cuts [start, end) into equal windows and reports each figure
/// as the median over windows, so a burst of interference from outside the
/// process that spoils a window or two does not move it. Each window holds
/// at least kMinPerWindow operations on average (so its p95 has a dozen
/// samples above it), which caps the window count for slow workloads down
/// to one window: a plain whole-phase figure.
class Timeline {
 public:
  static constexpr size_t kMaxWindows = 10;
  static constexpr size_t kMinPerWindow = 250;

  struct Figures {
    double rate = 0;  // operations per second
    double p50_ns = 0;
    double p95_ns = 0;
    size_t windows = 0;
  };

  void Add(uint64_t done_ns, uint64_t latency_ns) {
    ops_.emplace_back(done_ns, latency_ns);
  }
  void Reserve(size_t n) { ops_.reserve(n); }
  void Append(const Timeline& o) {
    ops_.insert(ops_.end(), o.ops_.begin(), o.ops_.end());
  }

  /// Figures over the operations that completed in [start_ns, end_ns).
  Figures Summarize(uint64_t start_ns, uint64_t end_ns) const {
    Figures f;
    if (end_ns <= start_ns) return f;
    size_t n = 0;
    for (const auto& [done, lat] : ops_) n += done >= start_ns && done < end_ns;
    f.windows = std::clamp<size_t>(n / kMinPerWindow, 1, kMaxWindows);
    const uint64_t width = (end_ns - start_ns) / f.windows;
    std::vector<Samples> win(f.windows);
    for (const auto& [done, lat] : ops_) {
      if (done < start_ns || done >= start_ns + width * f.windows) continue;
      win[(done - start_ns) / width].Add(lat);
    }
    std::vector<double> rate, p50, p95;
    for (Samples& s : win) {
      rate.push_back(double(s.size()) * 1e9 / double(width));
      if (s.size() == 0) continue;
      p50.push_back(s.Quantile(0.5));
      p95.push_back(s.Quantile(0.95));
    }
    f.rate = MedianOf(rate);
    f.p50_ns = MedianOf(p50);
    f.p95_ns = MedianOf(p95);
    return f;
  }

 private:
  std::vector<std::pair<uint64_t, uint64_t>> ops_;
};

/// Named metrics in insertion order, printed as the result's "metrics".
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Item& it : items_) {
      if (it.name == name) {
        it.value = value;
        it.unit = unit;
        return;
      }
    }
    items_.push_back(Item{name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < items_.size(); i++) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(), items_[i].value,
                    items_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const Item& it : items_) {
      std::printf("  %-34s %14.6g %s\n", it.name.c_str(), it.value,
                  it.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// One span the benchmark recorded around a call into the program.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t req = 0;     // request the span belongs to (0 = none)
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// In-memory span store. Each recording thread (or scan slot) owns one
/// Buffer, so recording takes no lock; buffers are merged when written.
/// A null Buffer* means tracing is off and ScopedSpan does nothing.
class SpanLog {
 public:
  struct Buffer {
    std::vector<Span> spans;
  };

  Buffer* NewBuffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->spans.reserve(1 << 16);
    return buffers_.back().get();
  }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  std::vector<Span> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    return all;
  }

  /// Writes every span as CSV: id,parent,req,name,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

  /// Prints, per span name, the count, median duration and median self
  /// time (duration minus the part covered by child spans).
  void PrintSelfTimes() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<uint64_t> next_id_{1};
};

/// Records one span on scope exit (no-op when `buf` is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanLog::Buffer* buf, const char* name,
             uint64_t parent = 0, uint64_t req = 0)
      : buf_(buf) {
    if (buf_ == nullptr) return;
    span_.id = log->NextId();
    span_.parent = parent;
    span_.req = req;
    span_.name = name;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (buf_ == nullptr) return;
    span_.end_ns = NowNs();
    buf_->spans.push_back(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  SpanLog::Buffer* buf_;
  Span span_;
};

/// Returns freed heap to the kernel (so earlier set-ups do not linger in
/// RSS), then resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
bool ResetPeakRss();
/// A /proc/self/status field in MB ("VmRSS", "VmHWM"); -1 if unreadable.
double StatusMb(const char* field);

/// The host and build facts every result records.
struct HostInfo {
  unsigned nproc = 0;
  std::string isa;
  std::string crc32c;
};
HostInfo ReadHostInfo();

/// What one run reports: the result line's counts plus its metrics.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet e2e;    // --trace 0
  MetricSet layer;  // --trace 1
};

}  // namespace stackbench

#endif  // STACKBENCH_COMMON_H_
