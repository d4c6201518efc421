#include "sys/telemetry.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sys/perf_counters.h"

// Telemetry subsystem tests: registry identity and exact totals under
// concurrent sharded increments, per-object Flow counts beside their
// registry counter, snapshot/delta/export, span recording
// and nesting, and the disabled-mode no-op guarantees.
//
// The registry is process-global and shared across TEST cases, so every
// test uses metric names under its own "test.<case>." prefix and restores
// the enabled flags it flips.

namespace scc {
namespace {

/// Pulls ts/dur (microseconds) for the named event out of chrome-trace
/// JSON. Relies on the serializer's fixed key order (name ... ts, dur).
bool FindEvent(const std::string& json, const std::string& name, double* ts,
               double* dur) {
  size_t pos = json.find("\"name\":\"" + name + "\"");
  if (pos == std::string::npos) return false;
  size_t tpos = json.find("\"ts\":", pos);
  size_t dpos = json.find("\"dur\":", pos);
  if (tpos == std::string::npos || dpos == std::string::npos) return false;
  *ts = std::atof(json.c_str() + tpos + 5);
  *dur = std::atof(json.c_str() + dpos + 6);
  return true;
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { SetTelemetryEnabled(true); }
  void TearDown() override {
    SetTelemetryEnabled(true);
    SetTraceEnabled(false);
  }
};

TEST_F(TelemetryTest, GetCounterReturnsSameObjectForSameName) {
  Counter& a = MetricsRegistry::Instance().GetCounter("test.identity.c");
  Counter& b = MetricsRegistry::Instance().GetCounter("test.identity.c");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.name(), "test.identity.c");
  Counter& c = MetricsRegistry::Instance().GetCounter("test.identity.other");
  EXPECT_NE(&a, &c);
}

TEST_F(TelemetryTest, CounterExactUnderConcurrentIncrements) {
  Counter& c = MetricsRegistry::Instance().GetCounter("test.concurrent.c");
  c.Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; i++) c.Add(3);
    });
  }
  for (auto& th : threads) th.join();
  // Sharded relaxed adds must still sum exactly: no lost updates.
  EXPECT_EQ(c.Value(), uint64_t(kThreads) * kPerThread * 3);
}

// Registry asserts on Flow sit under SCC_TELEMETRY (counters are no-ops
// in a -DSCC_TELEMETRY=0 tree); the per-object count must hold either way.

TEST_F(TelemetryTest, FlowAddBumpsOwnCountAndRegistry) {
  Counter& c = MetricsRegistry::Instance().GetCounter("test.flow.add");
  c.Reset();
  Flow f(&c);
  EXPECT_EQ(f.Get(), 0u);
  f.Add();
  f.Add(4);
  EXPECT_EQ(f.Get(), 5u);
#if SCC_TELEMETRY
  EXPECT_EQ(c.Value(), 5u);
#endif
}

TEST_F(TelemetryTest, FlowResetZeroesOwnCountOnly) {
  Counter& c = MetricsRegistry::Instance().GetCounter("test.flow.reset");
  c.Reset();
  Flow f(&c);
  f.Add(3);
  f.Reset();
  EXPECT_EQ(f.Get(), 0u);
  f.Add();
  EXPECT_EQ(f.Get(), 1u);
#if SCC_TELEMETRY
  // The registry is a process total: an object's reset must not undo it.
  EXPECT_EQ(c.Value(), 4u);
#endif
}

TEST_F(TelemetryTest, FlowCountsExactlyWhileMetricsDisabled) {
  Counter& c = MetricsRegistry::Instance().GetCounter("test.flow.disabled");
  c.Reset();
  Flow f(&c);
  SetTelemetryEnabled(false);
  f.Add(7);
  EXPECT_EQ(f.Get(), 7u);
  EXPECT_EQ(c.Value(), 0u);
  SetTelemetryEnabled(true);
  f.Add();
  EXPECT_EQ(f.Get(), 8u);
#if SCC_TELEMETRY
  EXPECT_EQ(c.Value(), 1u);
#endif
}

TEST_F(TelemetryTest, FlowsSharingACounterSumInRegistry) {
  Counter& c = MetricsRegistry::Instance().GetCounter("test.flow.shared");
  c.Reset();
  Flow a(&c);
  Flow b(&c);
  a.Add(2);
  b.Add(5);
  EXPECT_EQ(a.Get(), 2u);
  EXPECT_EQ(b.Get(), 5u);
#if SCC_TELEMETRY
  EXPECT_EQ(c.Value(), a.Get() + b.Get());
#endif
}

TEST_F(TelemetryTest, FlowExactUnderConcurrentAdds) {
  Counter& c = MetricsRegistry::Instance().GetCounter("test.flow.concurrent");
  c.Reset();
  Flow f(&c);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&f] {
      for (uint64_t i = 0; i < kPerThread; i++) f.Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(f.Get(), uint64_t(kThreads) * kPerThread);
#if SCC_TELEMETRY
  EXPECT_EQ(c.Value(), f.Get());
#endif
}

TEST_F(TelemetryTest, GaugeSetAndAdd) {
  Gauge& g = MetricsRegistry::Instance().GetGauge("test.gauge.g");
  g.Set(100);
  EXPECT_EQ(g.Value(), 100);
  g.Add(-30);
  EXPECT_EQ(g.Value(), 70);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST_F(TelemetryTest, HistogramBucketsAndQuantiles) {
  Histogram& h = MetricsRegistry::Instance().GetHistogram("test.hist.h");
  h.Reset();
  // bit_width(v) picks the bucket: 0 -> 0, 1 -> 1, 2 -> 2, 1000 -> 10.
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1003u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  // Quantiles are bucket upper bounds: p100 covers the 1000 observation.
  EXPECT_GE(h.Quantile(1.0), 1000u);
  EXPECT_LE(h.Quantile(0.25), 1u);
  // 64-bit values clamp into the top bucket instead of overflowing it.
  h.Observe(UINT64_MAX);
  EXPECT_EQ(h.bucket(kHistogramBuckets - 1), 1u);
  EXPECT_EQ(h.max(), UINT64_MAX);
}

TEST_F(TelemetryTest, SnapshotFindAndDelta) {
  Counter& c = MetricsRegistry::Instance().GetCounter("test.delta.c");
  Gauge& g = MetricsRegistry::Instance().GetGauge("test.delta.g");
  c.Reset();
  c.Add(5);
  g.Set(42);
  MetricsSnapshot base = MetricsRegistry::Instance().Snapshot();
  const MetricEntry* e = base.Find("test.delta.c");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 5);
  EXPECT_EQ(e->kind, MetricEntry::Kind::kCounter);

  c.Add(7);
  g.Set(17);
  MetricsSnapshot now = MetricsRegistry::Instance().Snapshot();
  MetricsSnapshot delta = now.DeltaSince(base);
  // Counters difference; gauges report the current value.
  EXPECT_EQ(delta.Find("test.delta.c")->value, 7);
  EXPECT_EQ(delta.Find("test.delta.g")->value, 17);
}

TEST_F(TelemetryTest, DeltaClampsCounterResetsToZero) {
  // Regression for scc_stats --watch across a registry Clear/ResetAll or
  // a process restart: the new sample is *below* the base, and the
  // windowed delta must clamp to the observable progress (the post-reset
  // value), never go negative or print a wrapped garbage rate.
  Counter& c = MetricsRegistry::Instance().GetCounter("test.clamp.c");
  Histogram& h = MetricsRegistry::Instance().GetHistogram("test.clamp.h");
  c.Reset();
  h.Reset();
  c.Add(100);
  for (int i = 0; i < 50; i++) h.Observe(1000);
  MetricsSnapshot base = MetricsRegistry::Instance().Snapshot();

  c.Reset();  // simulated restart: lifetime value drops below the base
  h.Reset();
  c.Add(3);
  h.Observe(2000);
  MetricsSnapshot delta =
      MetricsRegistry::Instance().Snapshot().DeltaSince(base);
  const MetricEntry* dc = delta.Find("test.clamp.c");
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(dc->value, 0);  // clamped, not 3 - 100
  const MetricEntry* dh = delta.Find("test.clamp.h");
  ASSERT_NE(dh, nullptr);
  EXPECT_GE(dh->value, 0);
  EXPECT_GE(dh->hist_sum, 0u);
}

TEST_F(TelemetryTest, SnapshotEntriesSortedByName) {
  MetricsRegistry::Instance().GetCounter("test.sorted.b");
  MetricsRegistry::Instance().GetCounter("test.sorted.a");
  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  for (size_t i = 1; i < snap.entries.size(); i++) {
    EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);
  }
}

TEST_F(TelemetryTest, ExportersRenderRegisteredMetrics) {
  Counter& c = MetricsRegistry::Instance().GetCounter("test.export.c");
  c.Reset();
  c.Add(9);
  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  std::string table = snap.ToTable();
  EXPECT_NE(table.find("test.export.c"), std::string::npos);
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"test.export.c\":9"), std::string::npos);
  // Zero-valued metrics are hidden from the table unless asked for.
  Counter& z = MetricsRegistry::Instance().GetCounter("test.export.zero");
  z.Reset();
  MetricsSnapshot snap2 = MetricsRegistry::Instance().Snapshot();
  EXPECT_EQ(snap2.ToTable().find("test.export.zero"), std::string::npos);
  EXPECT_NE(snap2.ToTable(/*include_zero=*/true).find("test.export.zero"),
            std::string::npos);
}

TEST_F(TelemetryTest, DisabledModeIsANoOp) {
  Counter& c = MetricsRegistry::Instance().GetCounter("test.disabled.c");
  Gauge& g = MetricsRegistry::Instance().GetGauge("test.disabled.g");
  Histogram& h = MetricsRegistry::Instance().GetHistogram("test.disabled.h");
  c.Reset();
  g.Reset();
  h.Reset();
  SetTelemetryEnabled(false);
  EXPECT_FALSE(TelemetryEnabled());
  c.Add(100);
  g.Set(100);
  h.Observe(100);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(h.count(), 0u);
  SetTelemetryEnabled(true);
  c.Add(1);
  EXPECT_EQ(c.Value(), 1u);
}

TEST_F(TelemetryTest, SpansNotRecordedWhenTracingDisabled) {
  TraceRecorder& tr = TraceRecorder::Instance();
  tr.Clear();
  ASSERT_FALSE(TraceEnabled());
  {
    SCC_TRACE_SPAN("test.span.disabled");
  }
  EXPECT_EQ(tr.event_count(), 0u);
}

TEST_F(TelemetryTest, NestedSpansRecordedWithContainment) {
  TraceRecorder& tr = TraceRecorder::Instance();
  tr.Clear();
  SetTraceEnabled(true);
  {
    SCC_TRACE_SPAN("test.span.outer");
    {
      SCC_TRACE_SPAN("test.span.inner");
      // Make the inner span non-zero length.
      volatile uint64_t sink = 0;
      for (int i = 0; i < 10000; i++) sink = sink + uint64_t(i);
    }
  }
  SetTraceEnabled(false);
  EXPECT_EQ(tr.event_count(), 2u);
  std::string json = tr.ToChromeTraceJson();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  double outer_ts = 0, outer_dur = 0, inner_ts = 0, inner_dur = 0;
  ASSERT_TRUE(FindEvent(json, "test.span.outer", &outer_ts, &outer_dur));
  ASSERT_TRUE(FindEvent(json, "test.span.inner", &inner_ts, &inner_dur));
  // Containment: the outer span brackets the inner one. 0.01 us slack
  // for the %.3f serialization rounding.
  EXPECT_LE(outer_ts, inner_ts + 0.01);
  EXPECT_GE(outer_ts + outer_dur, inner_ts + inner_dur - 0.01);
  EXPECT_GE(outer_dur, inner_dur - 0.01);
}

TEST_F(TelemetryTest, SpanStartsDisabledStaysUnrecordedAcrossEnable) {
  // A span constructed while tracing is off must not record even if
  // tracing turns on before it destructs (it never read the clock).
  TraceRecorder& tr = TraceRecorder::Instance();
  tr.Clear();
  {
    TraceSpan span("test.span.latent");
    SetTraceEnabled(true);
  }
  SetTraceEnabled(false);
  EXPECT_EQ(tr.event_count(), 0u);
}

TEST_F(TelemetryTest, ResetAllZeroesButKeepsRegistration) {
  Counter& c = MetricsRegistry::Instance().GetCounter("test.resetall.c");
  c.Add(11);
  MetricsRegistry::Instance().ResetAll();
  EXPECT_EQ(c.Value(), 0u);
  // Same object is still registered under the name.
  EXPECT_EQ(&MetricsRegistry::Instance().GetCounter("test.resetall.c"), &c);
}

TEST_F(TelemetryTest, ConcurrentFirstUseRegistrationIsRaceFree) {
  // The exec subsystem's workers can all touch a metric for the first
  // time simultaneously, so first-use registration must be safe: every
  // thread resolves the same Counter object per name (node-based map +
  // registry mutex), and no increment is lost while registration races.
  constexpr int kThreads = 8;
  constexpr int kNames = 16;
  constexpr int kIncrements = 500;
  std::vector<std::vector<Counter*>> seen(kThreads,
                                          std::vector<Counter*>(kNames));
  std::atomic<int> start{0};
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; id++) {
    threads.emplace_back([&, id] {
      start.fetch_add(1);
      while (start.load() < kThreads) {
      }  // spin: maximize first-use overlap
      for (int n = 0; n < kNames; n++) {
        Counter& c = MetricsRegistry::Instance().GetCounter(
            "test.firstuse.c" + std::to_string(n));
        seen[id][n] = &c;
        for (int i = 0; i < kIncrements; i++) c.Increment();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int n = 0; n < kNames; n++) {
    for (int id = 1; id < kThreads; id++) {
      ASSERT_EQ(seen[id][n], seen[0][n]) << "name split across objects";
    }
#if SCC_TELEMETRY
    // Value asserts only with metrics compiled in; registration identity
    // above must hold either way.
    EXPECT_EQ(seen[0][n]->Value(), uint64_t(kThreads) * kIncrements);
#endif
  }
}

TEST_F(TelemetryTest, QuantileInterpolationTracksExactPercentiles) {
  // Interpolated quantiles over log2 buckets must land within the exact
  // percentile's bucket — a factor-of-2 bound — on both a uniform and a
  // heavily skewed distribution. (Raw bucket upper bounds would be up to
  // 2x high on *every* query; interpolation recovers sub-bucket
  // resolution whenever the covering bucket is densely populated.)
  Histogram& h = MetricsRegistry::Instance().GetHistogram("test.quant.u");
  h.Reset();
  std::vector<uint64_t> vals;
  for (uint64_t v = 1; v <= 1000; v++) vals.push_back(v);
  for (uint64_t v : vals) h.Observe(v);
  for (double q : {0.5, 0.95, 0.99, 0.999}) {
    const double exact = double(vals[size_t(q * double(vals.size() - 1))]);
    const double est = h.Quantile(q);
    EXPECT_GE(est, exact / 2.0) << "q=" << q;
    EXPECT_LE(est, exact * 2.0) << "q=" << q;
  }
  // Uniform 1..1000 has dense high buckets, so the estimate should be
  // much tighter than the bucket bound at the median.
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 50.0);

  Histogram& s = MetricsRegistry::Instance().GetHistogram("test.quant.s");
  s.Reset();
  std::vector<uint64_t> skew;
  for (int i = 0; i < 900; i++) skew.push_back(10);
  for (int i = 0; i < 95; i++) skew.push_back(1000);
  for (int i = 0; i < 5; i++) skew.push_back(100000);
  for (uint64_t v : skew) s.Observe(v);
  for (double q : {0.5, 0.95, 0.99, 0.999}) {
    const double exact = double(skew[size_t(q * double(skew.size() - 1))]);
    const double est = s.Quantile(q);
    EXPECT_GE(est, exact / 2.0) << "q=" << q;
    EXPECT_LE(est, exact * 2.0) << "q=" << q;
  }
  // Endpoints are exact, not interpolated.
  EXPECT_EQ(s.Quantile(0.0), 10.0);
  EXPECT_EQ(s.Quantile(1.0), 100000.0);
}

TEST_F(TelemetryTest, DeltaSinceSubtractsHistogramsBucketwise) {
  Histogram& h = MetricsRegistry::Instance().GetHistogram("test.hdelta.h");
  h.Reset();
  h.Observe(3);
  h.Observe(100);
  MetricsSnapshot base = MetricsRegistry::Instance().Snapshot();
  h.Observe(5);
  h.Observe(5);
  h.Observe(2000);
  MetricsSnapshot delta =
      MetricsRegistry::Instance().Snapshot().DeltaSince(base);
  const MetricEntry* e = delta.Find("test.hdelta.h");
  ASSERT_NE(e, nullptr);
  // Only the window's three observations remain.
  EXPECT_EQ(e->value, 3);
  EXPECT_EQ(e->hist_sum, 2010u);
  HistogramSnapshot hs = e->ToHistogramSnapshot();
  EXPECT_EQ(hs.buckets[3], 2u);   // two 5s (bit_width 3)
  EXPECT_EQ(hs.buckets[11], 1u);  // one 2000 (bit_width 11)
  EXPECT_EQ(hs.buckets[2], 0u);   // the pre-window 3 subtracted away
  EXPECT_EQ(hs.buckets[7], 0u);   // the pre-window 100 subtracted away
  uint64_t bucket_total = 0;
  for (uint64_t b : hs.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hs.count);  // count re-derived from buckets
  // Windowed endpoints come from bucket bounds, so they bracket the
  // window's true values and exclude pre-window ones.
  EXPECT_GE(e->hist_min, 4u);     // bucket 3 lower bound
  EXPECT_LE(e->hist_min, 5u);
  EXPECT_GE(e->hist_max, 2000u);  // >= the true window max
  EXPECT_LE(e->hist_max, 2047u);  // bucket 11 upper bound
  // Windowed quantiles are recomputed over the delta buckets: the median
  // of {5, 5, 2000} sits in bucket 3, nowhere near the pre-window 100.
  EXPECT_LE(e->hist_p50, 7u);
  EXPECT_GE(e->hist_p999, 1024u);
}

TEST_F(TelemetryTest, PrometheusExportFormat) {
  Counter& c = MetricsRegistry::Instance().GetCounter("test.prom.c");
  Gauge& g = MetricsRegistry::Instance().GetGauge("test.prom.g");
  Histogram& h = MetricsRegistry::Instance().GetHistogram("test.prom.h");
  c.Reset();
  g.Reset();
  h.Reset();
  c.Add(7);
  g.Set(-3);
  h.Observe(5);
  h.Observe(1000);
  std::string prom = MetricsRegistry::Instance().Snapshot().ToPrometheus();
  // Names: "scc_" prefix, dots mapped to underscores, TYPE annotations.
  EXPECT_NE(prom.find("# TYPE scc_test_prom_c counter"), std::string::npos);
  EXPECT_NE(prom.find("scc_test_prom_c 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE scc_test_prom_g gauge"), std::string::npos);
  EXPECT_NE(prom.find("scc_test_prom_g -3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE scc_test_prom_h histogram"),
            std::string::npos);
  // Histogram series: cumulative buckets (5 -> le="7", 1000 -> le="1023"),
  // the mandatory +Inf bucket, and _sum/_count.
  EXPECT_NE(prom.find("scc_test_prom_h_bucket{le=\"7\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("scc_test_prom_h_bucket{le=\"1023\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("scc_test_prom_h_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("scc_test_prom_h_sum 1005"), std::string::npos);
  EXPECT_NE(prom.find("scc_test_prom_h_count 2"), std::string::npos);
  // Every non-comment line is "name[{labels}] value": minimal wellformed-
  // ness so a scrape wouldn't 400.
  size_t start = 0;
  while (start < prom.size()) {
    size_t end = prom.find('\n', start);
    if (end == std::string::npos) end = prom.size();
    std::string line = prom.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.compare(0, 4, "scc_"), 0) << line;
    char* endp = nullptr;
    std::strtod(line.c_str() + space + 1, &endp);
    EXPECT_EQ(*endp, '\0') << "unparseable value in: " << line;
  }
}

TEST_F(TelemetryTest, OwnedSpanNameSurvivesSourceDestruction) {
  // The std::string ctor interns a copy, so a span label built at runtime
  // (per-query, per-table) can outlive the string it came from.
  TraceRecorder& tr = TraceRecorder::Instance();
  tr.Clear();
  SetTraceEnabled(true);
  {
    std::string name = "test.span.owned.";
    name += std::to_string(42);
    TraceSpan span(name);
    name.assign(200, 'x');  // clobber the source before the span ends
  }
  SetTraceEnabled(false);
  EXPECT_EQ(tr.event_count(), 1u);
  std::string json = tr.ToChromeTraceJson();
  EXPECT_NE(json.find("\"name\":\"test.span.owned.42\""),
            std::string::npos);
  EXPECT_EQ(json.find("xxxx"), std::string::npos);
}

TEST_F(TelemetryTest, TraceOperationLinksChildSpans) {
  TraceRecorder& tr = TraceRecorder::Instance();
  tr.Clear();
  SetTraceEnabled(true);
  {
    TraceOperation op("test.op.root");
    SCC_TRACE_SPAN("test.op.child");
  }
  SetTraceEnabled(false);
  std::string json = tr.ToChromeTraceJson();
  // Both events carry the operation id; the child's parent is the root.
  size_t root = json.find("\"name\":\"test.op.root\"");
  size_t child = json.find("\"name\":\"test.op.child\"");
  ASSERT_NE(root, std::string::npos);
  ASSERT_NE(child, std::string::npos);
  auto arg = [&](size_t from, const char* key) -> long long {
    size_t p = json.find(std::string("\"") + key + "\":", from);
    EXPECT_NE(p, std::string::npos) << key;
    if (p == std::string::npos) return -1;
    return std::atoll(json.c_str() + p + std::strlen(key) + 3);
  };
  const long long op_id = arg(root, "op");
  EXPECT_GT(op_id, 0);
  EXPECT_EQ(arg(root, "span"), op_id);  // the op doubles as the root span
  EXPECT_EQ(arg(child, "op"), op_id);
  EXPECT_EQ(arg(child, "parent"), op_id);
  EXPECT_NE(arg(child, "span"), op_id);  // child got its own span id
}

TEST_F(TelemetryTest, PerfReadingSerializesUnavailableAsNa) {
  PerfReading r;  // all fields -1 (unavailable)
  EXPECT_NE(r.ToString().find("cycles=n/a"), std::string::npos);
  EXPECT_NE(r.ToJson().find("\"cycles\":null"), std::string::npos);
  r.cycles = 1000;
  r.instructions = 2000;
  EXPECT_NE(r.ToString().find("ipc=2.00"), std::string::npos);
  EXPECT_NE(r.ToJson().find("\"instructions\":2000"), std::string::npos);
}

}  // namespace
}  // namespace scc
