// Morsel-driven parallel scan scaling curve: decode+scan throughput on
// cache-cold compressed data at 1..N threads (the ISSUE-4 acceptance
// bench: >= 3x at 8 threads vs 1 on a machine with >= 8 cores).
//
// Each measured run clears the buffer pool first, so every chunk takes
// the full miss path — page fault, simulated disk charge, segment
// validation — then decodes vector-at-a-time on whichever worker claimed
// the morsel, exactly the shape of a cold TPC-H scan. The visitor keeps a
// running sum so the decode cannot be optimized away, and the sum is
// cross-checked across thread counts (a wrong parallel result fails
// loudly, not quietly).
//
// Caveat: wall-clock scaling requires physical cores. On a single-core
// host (some CI shards, small containers) the curve is flat — the pool
// still exercises the full concurrent path (steals, coalesced misses,
// pinning), there is just no parallel hardware to spend it on. The
// `workers` entry in the --json report's config makes such runs
// self-describing.
//
// Usage: micro_morsel [--json] [max_threads]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "exec/parallel_scan.h"
#include "exec/thread_pool.h"
#include "storage/table.h"
#include "util/rng.h"

namespace scc {
namespace {

constexpr size_t kChunkValues = 1u << 17;
constexpr size_t kRows = size_t(24) * kChunkValues;  // 24 morsels, ~3M rows

Table BuildTable() {
  Table t(kChunkValues);
  Rng rng(42);
  // Three columns with the paper's bread-and-butter distributions:
  // narrow codes with outliers (PFOR), a sorted-ish date-like column
  // (PFOR-DELTA territory), and a low-cardinality flag column.
  std::vector<int64_t> price(kRows);
  std::vector<int32_t> date(kRows);
  std::vector<int8_t> flag(kRows);
  int32_t day = 8000;
  for (size_t i = 0; i < kRows; i++) {
    price[i] = int64_t(90000 + rng.Uniform(1u << 13)) +
               (rng.Bernoulli(0.01) ? int64_t(rng.Uniform(1u << 20)) : 0);
    if (rng.Bernoulli(0.3)) day++;
    date[i] = day;
    flag[i] = int8_t(rng.Uniform(3));
  }
  auto add = [](Status st) { SCC_CHECK(st.ok(), st.ToString().c_str()); };
  add(t.AddColumn<int64_t>("price", price, ColumnCompression::kAuto));
  add(t.AddColumn<int32_t>("date", date, ColumnCompression::kAuto));
  add(t.AddColumn<int8_t>("flag", flag, ColumnCompression::kAuto));
  return t;
}

struct ScanResult {
  double seconds = 0;
  uint64_t sum = 0;
  size_t rows = 0;
};

ScanResult RunOnce(const Table& table, BufferManager* bm, unsigned threads) {
  bm->Clear();  // cache-cold: every morsel faults its pages back in
  ParallelScan::Options opt;
  opt.threads = threads;
  ParallelScan scan(&table, bm, {"price", "date", "flag"}, opt);
  struct Slot {
    uint64_t sum = 0;
    size_t rows = 0;
    char pad[48];
  };
  std::vector<Slot> slots(scan.slot_count());
  Timer t;
  Status st = scan.Run([&](const Batch& b, size_t /*morsel*/, size_t slot) {
    const int64_t* price = b.col(0)->data<int64_t>();
    const int32_t* date = b.col(1)->data<int32_t>();
    const int8_t* flag = b.col(2)->data<int8_t>();
    uint64_t s = 0;
    for (size_t i = 0; i < b.rows; i++) {
      s += uint64_t(price[i]) ^ uint64_t(uint32_t(date[i])) ^
           uint64_t(uint8_t(flag[i]));
    }
    slots[slot].sum += s;
    slots[slot].rows += b.rows;
  });
  if (!st.ok()) {
    fprintf(stderr, "micro_morsel: scan failed: %s\n", st.ToString().c_str());
    exit(1);
  }
  ScanResult r;
  r.seconds = t.ElapsedSeconds();
  for (const Slot& s : slots) {
    r.sum += s.sum;  // xor-of-rows folded with +: order-independent
    r.rows += s.rows;
  }
  return r;
}

int Main(int argc, char** argv) {
  bool json = bench::StripFlag(&argc, argv, "--json");
  unsigned hw = std::thread::hardware_concurrency();
  unsigned max_threads = std::max(8u, hw == 0 ? 1u : hw);
  if (argc > 1) max_threads = unsigned(atoi(argv[1]));
  if (max_threads == 0) max_threads = 1;

  if (!json) {
    bench::PrintHeader("morsel-driven parallel scan scaling",
                       "the multi-core outlook in the paper's Conclusions");
    printf("rows %zu, %zu morsels of %zu values, 3 columns\n", kRows,
           kRows / kChunkValues, kChunkValues);
    printf("pool workers: %u (host reports %u hw threads)\n\n",
           ThreadPool::Instance().worker_count(), hw);
  }

  Table table = BuildTable();
  SimDisk disk(SimDisk::MidRangeRaid());
  BufferManager bm(&disk, size_t(1) << 32, Layout::kDSM);

  const size_t bytes = kRows * (sizeof(int64_t) + sizeof(int32_t) + 1);
  bench::JsonReport report("micro_morsel");
  report.Config("rows", double(kRows));
  report.Config("max_threads", max_threads);
  report.Config("workers", ThreadPool::Instance().worker_count());
  ScanResult base = RunOnce(table, &bm, 1);
  SCC_CHECK(base.rows == kRows, "scan dropped rows");
  if (!json) {
    printf("threads   seconds   rows/s       MB/s (decoded)  speedup\n");
  }
  for (unsigned t = 1; t <= max_threads; t *= 2) {
    ScanResult r;
    double best = 1e100;
    for (int rep = 0; rep < 3; rep++) {
      ScanResult cur = RunOnce(table, &bm, t);
      SCC_CHECK(cur.sum == base.sum && cur.rows == base.rows,
                "parallel scan result mismatch");
      if (cur.seconds < best) {
        best = cur.seconds;
        r = cur;
      }
    }
    double speedup = base.seconds / r.seconds;
    const std::string key = "morsel_scan/threads:" + std::to_string(t);
    report.Rate(key, double(bytes), double(kRows), r.seconds);
    report.Metric(key + ".speedup", speedup);
    if (!json) {
      printf("%7u   %7.4f   %10.0f   %14.1f  %6.2fx\n", t, r.seconds,
             double(kRows) / r.seconds, bytes / r.seconds / 1048576.0,
             speedup);
    }
  }
  if (json) {
    report.Write(stdout);
  } else {
    printf("\nsteals: %zu (pool lifetime)\n", ThreadPool::Instance().steals());
    printf("note: speedup needs physical cores; on a 1-core host the curve "
           "is flat.\n");
  }
  return 0;
}

}  // namespace
}  // namespace scc

int main(int argc, char** argv) { return scc::Main(argc, argv); }
