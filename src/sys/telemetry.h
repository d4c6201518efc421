#ifndef SCC_SYS_TELEMETRY_H_
#define SCC_SYS_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

// Library-wide observability. Three facilities:
//
//  * MetricsRegistry — a process-global registry of named counters, gauges
//    and histograms. Counters are sharded over cache-line-padded
//    relaxed-atomic cells indexed by a per-thread anchor, so a hot codec
//    loop pays one uncontended relaxed add per vector; reads sum the
//    shards. The paper's whole argument is quantitative (IPC, exception
//    rates, RAM->cache bandwidth); this gives the library itself, not just
//    the bench binaries, a way to report those numbers. Snapshots export
//    as a table, JSON, or Prometheus text format (ToPrometheus).
//
//  * TraceRecorder — per-thread buffers of completed spans, dumped as
//    Chrome trace_event JSON (load in chrome://tracing or Perfetto).
//    Spans are created with the RAII macro SCC_TRACE_SPAN("scan.q1");
//    names must be string literals (the recorder stores the pointer) OR
//    std::strings, which are interned (SCC_TRACE_SPAN_DYNAMIC) so
//    per-operation labels like "scan.q=3" are safe.
//
//  * TraceContext — a thread-local (operation id, parent span id) pair
//    that spans inherit, so concurrent operations interleaved on the
//    work-stealing pool still export as per-operation trees. TaskGroup /
//    ParallelFor / ParallelScan capture the submitting thread's context
//    into each task and reinstall it on the worker (exec/thread_pool.cc),
//    recording a queue-wait vs run-time split and a flow event linking
//    submit to execution.
//
// Overhead discipline:
//  * Compile-time: building with -DSCC_TELEMETRY=0 turns SCC_TRACE_SPAN
//    into a no-op and makes TelemetryEnabled() a constant false, so every
//    guarded call site folds away.
//  * Runtime: metrics honor the SCC_TELEMETRY env var (0/off disables;
//    default enabled) and tracing honors SCC_TRACE (default DISABLED —
//    traces accumulate memory). Disabled counters skip the atomic add;
//    disabled spans skip the clock reads.
//
// Metric naming convention (see docs/OBSERVABILITY.md for the inventory):
// dot-separated lowercase families, e.g. codec.pfor.decode.values,
// storage.tier.dram.evictions, engine.select.rows_out, tpch.queries.

namespace scc {

#ifndef SCC_TELEMETRY
#define SCC_TELEMETRY 1
#endif

namespace telemetry_internal {
extern std::atomic<bool> g_metrics_enabled;
extern std::atomic<bool> g_trace_enabled;
extern std::atomic<uint64_t> g_next_trace_id;

/// Shard index for the calling thread: hashes a thread-local anchor
/// address. Stable for a thread's lifetime; different threads usually land
/// on different cache lines, which is all the sharding needs.
inline size_t ThisShard(size_t nshards) {
  thread_local char anchor;
  size_t h = reinterpret_cast<uintptr_t>(&anchor);
  h ^= h >> 17;
  return (h >> 6) & (nshards - 1);
}
}  // namespace telemetry_internal

/// True when runtime metric collection is on (and compiled in).
inline bool TelemetryEnabled() {
#if SCC_TELEMETRY
  return telemetry_internal::g_metrics_enabled.load(
      std::memory_order_relaxed);
#else
  return false;
#endif
}
void SetTelemetryEnabled(bool enabled);

/// True when span recording is on (and compiled in).
inline bool TraceEnabled() {
#if SCC_TELEMETRY
  return telemetry_internal::g_trace_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}
void SetTraceEnabled(bool enabled);

/// Microseconds since process start (steady clock); the trace time base.
double TraceNowMicros();

/// Process-unique id for operations, spans and flow arrows (never 0).
inline uint64_t NextTraceId() {
  return telemetry_internal::g_next_trace_id.fetch_add(
      1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Shards per counter. Power of two; 16 covers typical core counts while
/// keeping a counter at 1 KB.
constexpr size_t kMetricShards = 16;

/// Log2 histogram buckets: bucket i holds values v with bit_width(v) == i
/// (v == 0 lands in bucket 0), so bucket 63 tops out any uint64.
constexpr size_t kHistogramBuckets = 64;

/// Smallest value that lands in bucket `i` (0 for bucket 0).
inline uint64_t HistogramBucketLowerBound(size_t i) {
  return i == 0 ? 0 : uint64_t(1) << (i - 1);
}
/// Largest value that lands in bucket `i` (bucket 63 tops out uint64).
inline uint64_t HistogramBucketUpperBound(size_t i) {
  return i >= 64 ? UINT64_MAX : (uint64_t(1) << i) - 1;
}

/// Monotonic counter. Add() is the hot-path operation: one enabled check
/// plus one relaxed fetch_add on the calling thread's shard.
class Counter {
 public:
  void Add(uint64_t delta) {
    if (!TelemetryEnabled()) return;
    cells_[telemetry_internal::ThisShard(kMetricShards)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over shards. Racy-but-consistent under concurrent Add().
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::string name_;
  Cell cells_[kMetricShards];
};

/// One object's count of an event beside the process-wide registry
/// counter for it, both bumped by one Add(). The object's own count is
/// exact whether or not metrics are enabled; the registry counter sums
/// every object's events while they are.
class Flow {
 public:
  explicit Flow(Counter* reg) : reg_(reg) {}

  void Add(uint64_t n = 1) {
    n_.fetch_add(n, std::memory_order_relaxed);
    reg_->Add(n);
  }
  uint64_t Get() const { return n_.load(std::memory_order_relaxed); }
  /// Zeroes this object's count; the registry keeps its total.
  void Reset() { n_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> n_{0};
  Counter* const reg_;
};

/// Point-in-time signed value (e.g. resident bytes). Not sharded: gauges
/// are set at coarse granularity, not in codec loops. A gauge that
/// several objects share is a process-wide sum: each object Adds its own
/// deltas, never Sets its own value over the others'.
class Gauge {
 public:
  void Set(int64_t v) {
    if (!TelemetryEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  /// Applied even while metrics are disabled at run time (only compiling
  /// metrics out drops it): a sum that missed one delta would stay wrong
  /// after metrics are enabled again.
  void Add(int64_t delta) {
#if SCC_TELEMETRY
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Offline copy of a histogram's state: bucket counts plus endpoint
/// summaries, detached from the live atomics so it can be diffed,
/// serialized, and queried for quantiles.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Interpolated quantile, q in [0, 1]: the covering log2 bucket is
  /// located by rank, then the value is linearly interpolated across the
  /// bucket's [lower, upper] range by the rank's position within it and
  /// clamped to the observed [min, max]. Exactness is bucket-bounded: the
  /// estimate always lands in (or adjacent to) the bucket holding the
  /// exact quantile, so the relative error is at most 2x — against raw
  /// log2 upper bounds this recovers most of a bucket's resolution
  /// (tests validate p50..p999 against exactly computed percentiles).
  double Quantile(double q) const;

  /// Derives min/max from the first/last non-empty bucket's bounds and
  /// count from the bucket sum — what DeltaSince can recover for a window
  /// where true endpoints were not observed.
  void DeriveEndpointsFromBuckets();
};

/// Log2-bucketed distribution (latencies in ns, segment sizes, ...).
/// Buckets are shared atomics, not sharded: intended for events at >= µs
/// granularity, not per-value codec work.
class Histogram {
 public:
  void Observe(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Racy-but-consistent copy of the current state.
  HistogramSnapshot SnapshotNow() const;
  /// Interpolated quantile (see HistogramSnapshot::Quantile), q in [0,1].
  uint64_t Quantile(double q) const;
  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  std::string name_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kHistogramBuckets]{};
};

/// One exported metric value, decoupled from the live objects so
/// snapshots can be diffed and serialized offline.
struct MetricEntry {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  int64_t value = 0;  // counter total / gauge value / histogram count
  // Histogram detail (kind == kHistogram only). Quantiles are
  // interpolated (HistogramSnapshot::Quantile), rounded to integers.
  uint64_t hist_sum = 0;
  uint64_t hist_min = 0;
  uint64_t hist_max = 0;
  uint64_t hist_p50 = 0;
  uint64_t hist_p95 = 0;
  uint64_t hist_p99 = 0;
  uint64_t hist_p999 = 0;
  std::vector<uint64_t> hist_buckets;

  /// Rebuilds a HistogramSnapshot view of the entry's histogram fields.
  HistogramSnapshot ToHistogramSnapshot() const;
  /// Recomputes p50/p95/p99/p999 from hist_buckets (after a delta).
  void RecomputeHistogramQuantiles();
};

/// A consistent-enough copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricEntry> entries;

  /// Counters/histograms become (this - base); gauges keep their current
  /// value. Metrics absent from `base` are reported as-is. Histogram
  /// deltas subtract bucket-wise and re-derive min/max from the window's
  /// non-empty bucket bounds and quantiles from the delta buckets, so a
  /// windowed reading reports the window's distribution, not lifetime
  /// totals.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& base) const;

  /// Human-readable aligned table, one metric per line; zero-valued
  /// metrics are skipped unless `include_zero`.
  std::string ToTable(bool include_zero = false) const;
  /// JSON object keyed by metric name.
  std::string ToJson() const;
  /// Prometheus text exposition format: names are prefixed "scc_" with
  /// non-alphanumerics mapped to '_'; counters/gauges emit one sample,
  /// histograms emit cumulative `_bucket{le="..."}` series (log2 upper
  /// bounds) plus `_sum`/`_count`.
  std::string ToPrometheus() const;

  const MetricEntry* Find(std::string_view name) const;
};

/// Process-wide registry. Get* registers on first use and returns a
/// reference that stays valid for the process lifetime, so call sites can
/// cache it in a function-local static and skip the map lookup.
class MetricsRegistry {
 public:
  /// The process-wide instance (never destroyed, safe during shutdown).
  static MetricsRegistry& Instance();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every registered metric (registration is kept).
  void ResetAll();

 private:
  MetricsRegistry();
  ~MetricsRegistry();
  struct Impl;
  Impl* impl_;
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// The ambient attribution for spans on this thread: which operation the
/// work belongs to and which span is the current parent. Captured by the
/// thread pool at task submission and reinstalled on the executing worker
/// so spans recorded on stolen tasks still link to their operation.
struct TraceContext {
  uint64_t op_id = 0;        // 0 = no enclosing operation
  uint64_t parent_span = 0;  // span id new child spans attach under

  bool active() const { return op_id != 0; }
};

/// Thread-local context accessors (cheap: one TLS read / write).
TraceContext CurrentTraceContext();
void SetCurrentTraceContext(const TraceContext& ctx);

/// RAII: installs `ctx` for the scope, restores the previous context on
/// exit. Used by the pool around task bodies.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx)
      : prev_(CurrentTraceContext()) {
    SetCurrentTraceContext(ctx);
  }
  ~TraceContextScope() { SetCurrentTraceContext(prev_); }
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

/// Per-span attribution attached to a recorded event; all-zero for spans
/// recorded outside any operation by pre-context code.
struct SpanDetail {
  uint64_t op_id = 0;    // operation this span belongs to
  uint64_t span_id = 0;  // this span's own id
  uint64_t parent = 0;   // parent span id (0 = operation root)
};

/// Collects completed spans per thread; serializes to the Chrome
/// trace_event format ("X" complete events, plus "s"/"f" flow arrows
/// linking task submission to execution). Buffers are bounded
/// (kMaxEventsPerThread); overflow is counted, not stored.
class TraceRecorder {
 public:
  static constexpr size_t kMaxEventsPerThread = 1u << 20;

  static TraceRecorder& Instance();

  /// Records a completed span. `name`/`category` must outlive the
  /// recorder (string literals or interned strings). `detail` carries the
  /// operation/span/parent ids exported as event args.
  void RecordComplete(const char* name, const char* category, double ts_us,
                      double dur_us, const SpanDetail& detail = {});

  /// Records one end of a flow arrow (`start` ? "s" : "f") with the given
  /// id; Perfetto draws the arrow between the matching halves.
  void RecordFlow(const char* name, const char* category, double ts_us,
                  bool start, uint64_t flow_id);

  /// Copies `name` into a process-lifetime intern pool and returns a
  /// stable pointer, so dynamically built span names (e.g. "scan.q=3")
  /// can be recorded safely. Deduplicated; cost is a mutex + set lookup,
  /// so intern once per label, not per span, where possible.
  const char* InternName(std::string_view name);

  std::string ToChromeTraceJson() const;
  /// Writes ToChromeTraceJson() to `path`; returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

  size_t event_count() const;
  size_t dropped_count() const;
  void Clear();

 private:
  TraceRecorder();
  ~TraceRecorder();
  struct Impl;
  Impl* impl_;
};

/// RAII span: measures construction->destruction and records it when
/// tracing is enabled. While alive, the thread's TraceContext points at
/// this span, so nested spans (and pool tasks submitted from the scope)
/// link to it as their parent. Prefer the SCC_TRACE_SPAN macro.
///
/// Name lifetime: the char-array constructor is intended for string
/// literals — the recorder stores the pointer. It deliberately does NOT
/// accept `const char*` lvalues (compile-time guard: a dynamic pointer
/// does not bind to `const char (&)[N]`), and a debug assert rejects
/// absurd lengths, so a dangling buffer trips at the call site rather
/// than at dump time. For dynamic labels use the std::string overload,
/// which interns the name.
class TraceSpan {
 public:
  template <size_t N>
  explicit TraceSpan(const char (&name)[N], const char* category = "scc") {
    static_assert(N > 1, "span name must be non-empty");
    Begin(name, category);
  }
  /// Owned-name variant: `name` is interned (copied into the recorder's
  /// pool), so the argument may be temporary.
  explicit TraceSpan(const std::string& name, const char* category = "scc");

  ~TraceSpan() { End(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// This span's id (0 when tracing was off at construction).
  uint64_t span_id() const { return span_id_; }

 private:
  void Begin(const char* name, const char* category);
  void End();

  const char* name_ = nullptr;
  const char* category_ = nullptr;
  double start_us_ = 0;
  uint64_t span_id_ = 0;
  TraceContext prev_;
};

/// RAII operation root: allocates a fresh operation id and parents the
/// scope's spans (and pool tasks submitted within) under it. The
/// operation itself records as a span with parent 0. This is what makes
/// "all the work of query Q" one tree in the trace viewer, no matter
/// which workers ran it.
class TraceOperation {
 public:
  template <size_t N>
  explicit TraceOperation(const char (&name)[N], const char* category = "op") {
    Begin(name, category);
  }
  /// Owned-name variant for per-operation labels ("scan.q=3"); interned.
  explicit TraceOperation(const std::string& name,
                          const char* category = "op");
  ~TraceOperation() { End(); }
  TraceOperation(const TraceOperation&) = delete;
  TraceOperation& operator=(const TraceOperation&) = delete;

  /// The operation id spans in this scope inherit (0 = tracing off).
  uint64_t id() const { return op_id_; }

 private:
  void Begin(const char* name, const char* category);
  void End();

  const char* name_ = nullptr;
  const char* category_ = nullptr;
  double start_us_ = 0;
  uint64_t op_id_ = 0;
  TraceContext prev_;
};

#define SCC_TELEM_CAT2(a, b) a##b
#define SCC_TELEM_CAT(a, b) SCC_TELEM_CAT2(a, b)
#if SCC_TELEMETRY
#define SCC_TRACE_SPAN(name) \
  ::scc::TraceSpan SCC_TELEM_CAT(scc_trace_span_, __LINE__)(name)
/// Span with a runtime-built name (std::string expression); interned.
#define SCC_TRACE_SPAN_DYNAMIC(name_expr)                \
  ::scc::TraceSpan SCC_TELEM_CAT(scc_trace_span_,        \
                                 __LINE__)(::std::string(name_expr))
#else
#define SCC_TRACE_SPAN(name) ((void)0)
#define SCC_TRACE_SPAN_DYNAMIC(name_expr) ((void)0)
#endif

}  // namespace scc

#endif  // SCC_SYS_TELEMETRY_H_
