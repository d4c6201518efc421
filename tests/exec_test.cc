#include "exec/parallel_scan.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec_metrics.h"
#include "exec/thread_pool.h"
#include "storage/buffer_manager.h"
#include "storage/sim_disk.h"
#include "storage/table.h"
#include "sys/telemetry.h"
#include "util/rng.h"

// Execution subsystem tests: the shared work-stealing pool (ParallelFor
// coverage, TaskGroup joins, nested waits) and the morsel-driven parallel
// scan, cross-checked against the source data, with its cancellation and
// error paths.

namespace scc {
namespace {

Table MakeTable(size_t rows, size_t chunk_values = 8192) {
  Table t(chunk_values);
  Rng rng(42);
  std::vector<int64_t> a(rows), b(rows);
  std::vector<int32_t> c(rows);
  for (size_t i = 0; i < rows; i++) {
    a[i] = int64_t(i);                         // monotone -> PFOR-DELTA
    b[i] = 5000 + int64_t(rng.Uniform(1000));  // clustered -> PFOR
    c[i] = int32_t(rng.Uniform(4));            // tiny domain -> PDICT/PFOR
  }
  SCC_CHECK(t.AddColumn<int64_t>("a", a, ColumnCompression::kAuto).ok(), "a");
  SCC_CHECK(t.AddColumn<int64_t>("b", b, ColumnCompression::kAuto).ok(), "b");
  SCC_CHECK(t.AddColumn<int32_t>("c", c, ColumnCompression::kAuto).ok(), "c");
  return t;
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ThreadPool::Instance().ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; i++) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEdgeSizes) {
  std::atomic<size_t> ran{0};
  ThreadPool::Instance().ParallelFor(0, [&](size_t) { ran++; });
  EXPECT_EQ(ran.load(), 0u);
  ThreadPool::Instance().ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ran++;
  });
  EXPECT_EQ(ran.load(), 1u);
}

TEST(ThreadPoolTest, ParallelForHonorsWorkerCap) {
  // With helpers capped to 1, at most two threads (caller + one worker)
  // may ever be inside the body at once.
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  ThreadPool::Instance().ParallelFor(
      256,
      [&](size_t) {
        int now = inside.fetch_add(1) + 1;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        inside.fetch_sub(1);
      },
      /*max_workers=*/1);
  EXPECT_LE(peak.load(), 2);
}

TEST(ThreadPoolTest, ParallelForZeroCapRunsSerialOnCaller) {
  // max_workers == 0 is a real cap (no pool-side helpers), distinct from
  // the kNoWorkerCap default: the caller runs every index itself, in
  // order, so total-thread-count knobs can map threads==1 to a cap of 0.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ThreadPool::Instance().ParallelFor(
      64,
      [&](size_t i) {
        ASSERT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      },
      /*max_workers=*/0);
  ASSERT_EQ(order.size(), 64u);
  for (size_t i = 0; i < order.size(); i++) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, TaskGroupWaitsForAllTasks) {
  std::atomic<size_t> done{0};
  {
    TaskGroup group(ThreadPool::Instance());
    for (int i = 0; i < 200; i++) {
      group.Run([&] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
    EXPECT_EQ(done.load(), 200u);
  }
  // Destructor re-Wait() on an already-drained group must be a no-op.
  EXPECT_EQ(done.load(), 200u);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // ParallelFor from inside pool tasks: the waiting owner helps execute
  // queued work, so nesting can never starve the pool.
  std::atomic<uint64_t> total{0};
  ThreadPool::Instance().ParallelFor(8, [&](size_t) {
    ThreadPool::Instance().ParallelFor(64, [&](size_t j) {
      total.fetch_add(j, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8u * (63u * 64u / 2));
}

TEST(ThreadPoolTest, InWorkerDistinguishesPoolThreads) {
  EXPECT_FALSE(ThreadPool::InWorker());
  // Poll instead of TaskGroup::Wait: Wait() helps execute queued tasks,
  // so the caller itself could run the task (InWorker() == false there,
  // by design). Plain Submit + spin guarantees a pool thread ran it.
  std::atomic<int> state{0};  // 0 pending, 1 ran-in-worker, 2 ran-outside
  ThreadPool::Instance().Submit(
      [&] { state.store(ThreadPool::InWorker() ? 1 : 2); });
  while (state.load() == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(state.load(), 1);
}

TEST(ParallelScanTest, UnorderedSlotPartialsMatchSourceData) {
  constexpr size_t kRows = 50000;  // 6 full chunks + an 848-row tail
  Table t = MakeTable(kRows);
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);

  // Expected sums straight from the generator (same seed as MakeTable).
  Rng rng(42);
  uint64_t want_a = 0, want_b = 0, want_c = 0;
  for (size_t i = 0; i < kRows; i++) {
    want_a += uint64_t(i);
    want_b += uint64_t(5000 + rng.Uniform(1000));
    want_c += uint64_t(rng.Uniform(4));
  }

  ParallelScan scan(&t, &bm, {"a", "b", "c"});
  struct Partial {
    uint64_t a = 0, b = 0, c = 0;
    size_t rows = 0;
    char pad[32];
  };
  std::vector<Partial> parts(scan.slot_count());
  Status st = scan.Run([&](const Batch& batch, size_t morsel, size_t slot) {
    ASSERT_LT(slot, parts.size());
    ASSERT_LT(morsel, scan.morsel_count());
    const int64_t* a = batch.col(0)->data<int64_t>();
    const int64_t* b = batch.col(1)->data<int64_t>();
    const int32_t* c = batch.col(2)->data<int32_t>();
    for (size_t i = 0; i < batch.rows; i++) {
      parts[slot].a += uint64_t(a[i]);
      parts[slot].b += uint64_t(b[i]);
      parts[slot].c += uint64_t(c[i]);
    }
    parts[slot].rows += batch.rows;
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  uint64_t got_a = 0, got_b = 0, got_c = 0;
  size_t got_rows = 0;
  for (const Partial& p : parts) {
    got_a += p.a;
    got_b += p.b;
    got_c += p.c;
    got_rows += p.rows;
  }
  EXPECT_EQ(got_rows, kRows);
  EXPECT_EQ(got_a, want_a);
  EXPECT_EQ(got_b, want_b);
  EXPECT_EQ(got_c, want_c);
  EXPECT_EQ(scan.morsel_count(), t.chunk_count());
  EXPECT_GT(scan.decompress_seconds(), 0.0);
}

TEST(ParallelScanTest, PrefetcherIssuesAsyncFetches) {
  Table t = MakeTable(50000);
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);
  Counter& prefetches =
      MetricsRegistry::Instance().GetCounter("exec.scan.prefetches");
  const uint64_t before = prefetches.Value();

  ParallelScan::Options opt;
  opt.prefetch_depth = 2;
  ParallelScan scan(&t, &bm, {"a", "b"}, opt);
  std::atomic<size_t> rows{0};
  Status st = scan.Run([&](const Batch& batch, size_t, size_t) {
    rows.fetch_add(batch.rows, std::memory_order_relaxed);
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(rows.load(), 50000u);
#if SCC_TELEMETRY
  // Counter asserts only when metrics are compiled in (the
  // -DSCC_TELEMETRY=0 tree stubs Increment/Value out).
  EXPECT_GT(prefetches.Value(), before);
#else
  (void)before;
#endif
  // Prefetch must never double-charge the disk: every chunk of the two
  // columns is read at most once.
  EXPECT_LE(disk.read_count(), 2 * t.chunk_count());
}

TEST(ParallelScanTest, ThreadsOptionBoundsSlotCount) {
  Table t = MakeTable(50000);
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);
  ParallelScan::Options opt;
  opt.threads = 2;
  ParallelScan scan(&t, &bm, {"a"}, opt);
  EXPECT_LE(scan.slot_count(), 2u);
  EXPECT_GE(scan.slot_count(), 1u);
}

TEST(ParallelScanTest, CancelBeforeFirstMorselVisitsNothing) {
  // cancel_check fires before every claim, so a check that is already
  // failing stops the scan with zero morsels visited and zero pins held.
  Table t = MakeTable(50000);
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);
  ParallelScan::Options opt;
  opt.cancel_check = [] { return Status::DeadlineExceeded("expired"); };
  ParallelScan scan(&t, &bm, {"a", "b"}, opt);
  std::atomic<size_t> rows{0};
  Status st = scan.Run([&](const Batch& batch, size_t, size_t) {
    rows.fetch_add(batch.rows, std::memory_order_relaxed);
  });
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rows.load(), 0u);
  EXPECT_EQ(bm.pinned_pages(), 0u);
}

TEST(ParallelScanTest, CancelMidScanReleasesEveryPin) {
  // Deterministic mid-scan expiry: the check trips after a fixed number
  // of morsel-boundary probes. In-flight morsels finish (their rows are
  // delivered), no further morsels are claimed, and every page pin is
  // back by the time Run returns — the invariant the service's deadline
  // path leans on.
  Table t = MakeTable(50000);  // 7 morsels at the 8192-value chunk size
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);
  std::atomic<int> probes{0};
  ParallelScan::Options opt;
  opt.threads = 4;
  opt.cancel_check = [&]() -> Status {
    if (probes.fetch_add(1, std::memory_order_relaxed) >= 2) {
      return Status::DeadlineExceeded("expired mid-scan");
    }
    return Status::OK();
  };
  ParallelScan scan(&t, &bm, {"a", "b", "c"}, opt);
  std::atomic<size_t> rows{0};
  Status st = scan.Run([&](const Batch& batch, size_t, size_t) {
    rows.fetch_add(batch.rows, std::memory_order_relaxed);
  });
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(rows.load(), 50000u);
  EXPECT_EQ(bm.pinned_pages(), 0u);
}

TEST(ParallelScanTest, NoCancelCheckStillReturnsOk) {
  Table t = MakeTable(20000);
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);
  ParallelScan scan(&t, &bm, {"a"});
  std::atomic<size_t> rows{0};
  Status st = scan.Run([&](const Batch& batch, size_t, size_t) {
    rows.fetch_add(batch.rows, std::memory_order_relaxed);
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(rows.load(), 20000u);
}

TEST(ParallelScanTest, PushdownOnUnscannedColumnFailsRun) {
  Table t = MakeTable(20000);
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);
  ParallelScan scan(&t, &bm, {"a"});
  scan.SetPushdownBetween("b", 0, 10);
  std::atomic<size_t> batches{0};
  Status st = scan.Run([&](const Batch&, size_t, size_t) { batches++; });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(batches.load(), 0u);
}

TEST(ParallelScanTest, SegmentShorterThanItsChunkIsCorruption) {
  // Chunk 2's page is a valid segment of 100 values where the chunk has
  // 8192 rows. Decoding it would read past the segment's end; the scan
  // answers Corruption instead and releases every pin.
  constexpr size_t kChunk = 8192;
  std::vector<int64_t> v(4 * kChunk);
  std::iota(v.begin(), v.end(), 0);
  auto col = std::make_unique<StoredColumn>();
  col->name = "a";
  col->rows = v.size();
  col->chunk_values = kChunk;
  for (size_t lo = 0; lo < v.size(); lo += kChunk) {
    const size_t n = lo == 2 * kChunk ? 100 : kChunk;
    Result<AlignedBuffer> seg = BuildColumnChunk<int64_t>(
        std::span<const int64_t>(v).subspan(lo, n), ColumnCompression::kAuto);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    col->chunks.push_back(seg.MoveValueOrDie());
  }
  Table t(kChunk);
  ASSERT_TRUE(t.AdoptColumn(std::move(col)).ok());
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);
  for (unsigned threads : {1u, 4u}) {
    ParallelScan::Options opt;
    opt.threads = threads;
    ParallelScan scan(&t, &bm, {"a"}, opt);
    Status st = scan.Run([](const Batch&, size_t, size_t) {});
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_EQ(bm.pinned_pages(), 0u);
  }
}

/// One parsed chrome-trace event. Relies on the serializer's fixed key
/// order (name, cat, ph, ts, dur, ..., args:{op, span, parent}).
struct ParsedEvent {
  std::string name;
  double ts = 0, dur = 0;
  uint64_t op = 0, span = 0, parent = 0;
};

std::vector<ParsedEvent> ParseEvents(const std::string& json,
                                     const std::string& name) {
  std::vector<ParsedEvent> out;
  const std::string needle = "\"name\":\"" + name + "\"";
  auto field = [&](size_t from, const char* key, double* v) {
    std::string k = std::string("\"") + key + "\":";
    size_t p = json.find(k, from);
    if (p == std::string::npos) return false;
    *v = std::atof(json.c_str() + p + k.size());
    return true;
  };
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    const size_t end = json.find('}', json.find("\"args\"", pos));
    ParsedEvent e;
    e.name = name;
    double op = 0, span = 0, parent = 0;
    if (field(pos, "ts", &e.ts) && field(pos, "dur", &e.dur) &&
        field(pos, "op", &op) && field(pos, "span", &span) &&
        field(pos, "parent", &parent) &&
        json.find("\"op\":", pos) < end) {
      e.op = uint64_t(op);
      e.span = uint64_t(span);
      e.parent = uint64_t(parent);
      out.push_back(e);
    }
    pos += needle.size();
  }
  return out;
}

TEST(ThreadPoolTest, TraceExportsPerOperationTreeWithQueueWaitRunSplit) {
  // The acceptance shape for task-scoped tracing: tasks submitted under
  // a TraceOperation must export as children of that operation — on
  // whichever worker thread they ran — and each task must be split into
  // an "exec.task.queue_wait" slice (submit -> dequeue) abutting an
  // "exec.task.run" slice (dequeue -> done).
#if !SCC_TELEMETRY
  GTEST_SKIP() << "tracing compiled out (-DSCC_TELEMETRY=0)";
#else
  TraceRecorder& tr = TraceRecorder::Instance();
  SetTraceEnabled(true);
  tr.Clear();
  constexpr int kTasks = 4;
  uint64_t op_id = 0;
  {
    TraceOperation op("test.exec.traced_op");
    op_id = op.id();
    TaskGroup group(ThreadPool::Instance());
    for (int i = 0; i < kTasks; i++) {
      group.Run([] {
        volatile uint64_t sink = 0;
        for (int j = 0; j < 20000; j++) sink = sink + uint64_t(j);
      });
    }
    group.Wait();
  }
  // Wait() returns when the last task's fn completes, but the worker
  // records that task's spans in Execute's epilogue just after — give the
  // full event set (1 op + per task: 2 slices + 2 flow endpoints) a
  // moment to land before exporting.
  const size_t want_events = 1 + size_t(kTasks) * 4;
  for (int spin = 0; spin < 2000 && tr.event_count() < want_events; spin++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SetTraceEnabled(false);
  ASSERT_NE(op_id, 0u);
  const std::string json = tr.ToChromeTraceJson();

  std::vector<ParsedEvent> roots = ParseEvents(json, "test.exec.traced_op");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].op, op_id);
  EXPECT_EQ(roots[0].span, op_id);  // operation id doubles as root span
  EXPECT_EQ(roots[0].parent, 0u);

  std::vector<ParsedEvent> waits = ParseEvents(json, "exec.task.queue_wait");
  std::vector<ParsedEvent> runs = ParseEvents(json, "exec.task.run");
  ASSERT_EQ(runs.size(), size_t(kTasks));
  ASSERT_EQ(waits.size(), size_t(kTasks));
  for (const ParsedEvent& e : runs) {
    EXPECT_EQ(e.op, op_id) << "run span not linked to its operation";
    EXPECT_EQ(e.parent, op_id);
    EXPECT_NE(e.span, op_id);  // each task got its own span id
    // The run slice nests inside the operation slice.
    EXPECT_GE(e.ts, roots[0].ts - 0.01);
    EXPECT_LE(e.ts + e.dur, roots[0].ts + roots[0].dur + 0.01);
    // Its queue-wait slice ends exactly where the run begins (both are
    // computed from the same dequeue timestamp; 0.05 us covers the %.3f
    // serialization rounding).
    bool abuts = false;
    for (const ParsedEvent& w : waits) {
      if (w.op == op_id && std::abs(w.ts + w.dur - e.ts) < 0.05) {
        abuts = true;
        break;
      }
    }
    EXPECT_TRUE(abuts) << "no queue_wait slice ends at run start "
                       << std::setprecision(15) << e.ts;
  }
  // Flow arrows: one submit ("s") and one finish ("f") per task, binding
  // the submitting scope to the worker-side run slice.
  size_t flow_s = 0, flow_f = 0;
  for (size_t p = json.find("\"ph\":\"s\""); p != std::string::npos;
       p = json.find("\"ph\":\"s\"", p + 1)) {
    flow_s++;
  }
  for (size_t p = json.find("\"ph\":\"f\""); p != std::string::npos;
       p = json.find("\"ph\":\"f\"", p + 1)) {
    flow_f++;
  }
  EXPECT_EQ(flow_s, size_t(kTasks));
  EXPECT_EQ(flow_f, size_t(kTasks));
#endif
}

TEST(ThreadPoolTest, RegistryStealsMatchPoolSteals) {
  // A steal is counted once, by one call, into both the pool's steals()
  // and exec.steals. Workers spawn tasks onto their own deques, so idle
  // workers steal them; over the bursts both counts move equally.
#if !SCC_TELEMETRY
  GTEST_SKIP() << "metrics compiled out (-DSCC_TELEMETRY=0)";
#else
  SetTelemetryEnabled(true);
  ThreadPool pool(4);
  const uint64_t reg_before = ExecMetrics::Get().steals->Value();
  for (int burst = 0; burst < 1000 && pool.steals() == 0; burst++) {
    pool.ParallelFor(4, [&](size_t) {
      TaskGroup group(pool);
      for (int i = 0; i < 64; i++) {
        group.Run([] {
          volatile uint64_t sink = 0;
          for (int j = 0; j < 2000; j++) sink = sink + uint64_t(j);
        });
      }
      group.Wait();
    });
  }
  ASSERT_GT(pool.steals(), 0u);
  EXPECT_EQ(ExecMetrics::Get().steals->Value() - reg_before, pool.steals());
#endif
}

TEST(ThreadPoolTest, PoolHealthMetricsPopulate) {
  // exec.pool.* must fill in whenever telemetry is on: queue-wait and
  // run-time histograms get one observation per task, and the run time
  // lands on a per-worker counter (or the caller's, if the caller helped
  // drain the group).
#if !SCC_TELEMETRY
  GTEST_SKIP() << "metrics compiled out (-DSCC_TELEMETRY=0)";
#else
  SetTelemetryEnabled(true);
  ExecMetrics& em = ExecMetrics::Get();
  em.pool_queue_wait_ns->Reset();
  em.pool_task_run_ns->Reset();
  constexpr int kTasks = 8;
  TaskGroup group(ThreadPool::Instance());
  for (int i = 0; i < kTasks; i++) {
    group.Run([] {
      volatile uint64_t sink = 0;
      for (int j = 0; j < 10000; j++) sink = sink + uint64_t(j);
    });
  }
  group.Wait();
  // Same epilogue race as above: the final run-time observation lands
  // just after Wait() unblocks.
  for (int spin = 0;
       spin < 2000 && em.pool_task_run_ns->count() < uint64_t(kTasks);
       spin++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(em.pool_queue_wait_ns->count(), uint64_t(kTasks));
  EXPECT_EQ(em.pool_task_run_ns->count(), uint64_t(kTasks));
  EXPECT_GT(em.pool_task_run_ns->sum(), 0u);
  uint64_t attributed = em.pool_caller_run_ns->Value();
  ThreadPool& pool = ThreadPool::Instance();
  for (unsigned w = 0; w < pool.worker_count(); w++) {
    attributed += MetricsRegistry::Instance()
                      .GetCounter("exec.pool.worker." + std::to_string(w) +
                                  ".run_ns")
                      .Value();
  }
  EXPECT_GE(attributed, em.pool_task_run_ns->sum());
#endif
}

}  // namespace
}  // namespace scc
