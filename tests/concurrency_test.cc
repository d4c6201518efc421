#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/segment_reader.h"
#include "exec/parallel_scan.h"
#include "storage/buffer_manager.h"
#include "storage/fault_injector.h"
#include "storage/scan.h"
#include "storage/sim_disk.h"
#include "storage/table.h"
#include "util/rng.h"

// Concurrent buffer-manager battery: N-thread fetch/evict storms under a
// tiny capacity, miss coalescing (one disk read per page no matter how
// many threads fault it), pin-blocks-eviction, the storm repeated with
// fault injection + checksum verification on, and a serial scan sharing
// the manager with parallel scans. Run under
// ThreadSanitizer in CI; every test also asserts data integrity, so a
// use-after-evict shows up as a value mismatch even without TSan.

namespace scc {
namespace {

constexpr size_t kChunkValues = 8192;

struct Source {
  std::vector<int64_t> a, b;
  std::vector<int32_t> c;
};

Source MakeSource(size_t rows) {
  Source s{std::vector<int64_t>(rows), std::vector<int64_t>(rows),
           std::vector<int32_t>(rows)};
  Rng rng(42);
  for (size_t i = 0; i < rows; i++) {
    s.a[i] = int64_t(i);  // monotone: row r's value IS r (integrity oracle)
    s.b[i] = 5000 + int64_t(rng.Uniform(1000));
    s.c[i] = int32_t(rng.Uniform(4));
  }
  return s;
}

Table MakeTable(size_t rows, size_t chunk_values = kChunkValues) {
  Table t(chunk_values);
  const Source s = MakeSource(rows);
  const ColumnCompression kAuto = ColumnCompression::kAuto;
  SCC_CHECK(t.AddColumn<int64_t>("a", s.a, kAuto).ok(), "a");
  SCC_CHECK(t.AddColumn<int64_t>("b", s.b, kAuto).ok(), "b");
  SCC_CHECK(t.AddColumn<int32_t>("c", s.c, kAuto).ok(), "c");
  return t;
}

// Decodes column "a" of `chunk` from a pinned page and verifies every
// value against the monotone oracle. Any stale or reused buffer (e.g. a
// page recycled by a racing eviction) decodes to wrong values or fails
// to open, so this doubles as the use-after-evict detector.
void VerifyChunkA(const Table& t, const AlignedBuffer& page, size_t chunk) {
  auto reader = SegmentReader<int64_t>::Open(page.data(), page.size());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const size_t rows = t.column("a")->ChunkRows(chunk);
  ASSERT_EQ(reader.ValueOrDie().count(), rows);
  std::vector<int64_t> out(rows);
  reader.ValueOrDie().DecompressAll(out.data());
  const int64_t base = int64_t(chunk * t.chunk_values());
  for (size_t i = 0; i < rows; i++) {
    ASSERT_EQ(out[i], base + int64_t(i)) << "chunk " << chunk << " row " << i;
  }
}

TEST(ConcurrencyTest, FetchEvictStormKeepsDataIntact) {
  const size_t kRows = 40 * kChunkValues;
  Table t = MakeTable(kRows);
  SimDisk disk;
  // Capacity for only ~4 pages of column "a": the storm constantly
  // evicts, so pins and the LRU race on every fetch.
  size_t page_bytes = 0;
  for (size_t c = 0; c < 4; c++) page_bytes += t.column("a")->chunks[c].size();
  BufferManager bm(&disk, page_bytes, Layout::kDSM);

  constexpr int kThreads = 8;
  constexpr int kFetchesPerThread = 300;
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; id++) {
    threads.emplace_back([&, id] {
      Rng rng(uint64_t(id) + 1);
      for (int f = 0; f < kFetchesPerThread; f++) {
        const size_t chunk = rng.Uniform(uint32_t(t.chunk_count()));
        auto guard = bm.FetchPinned(&t, t.column("a"), chunk);
        ASSERT_TRUE(guard.ok()) << guard.status().ToString();
        VerifyChunkA(t, *guard.ValueOrDie().page(), chunk);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_GT(bm.evictions(), 0u);
  // Every fetch terminates as exactly one hit, one leader miss or one
  // coalesced miss (a waiter that pinned its leader's page).
  EXPECT_EQ(bm.hits() + bm.misses() + bm.coalesced_misses(),
            size_t(kThreads) * kFetchesPerThread);
  // The disk saw exactly one read per miss — coalesced waiters never
  // charge it.
  EXPECT_EQ(disk.read_count(), bm.misses());
}

TEST(ConcurrencyTest, ColdPageCoalescesToOneDiskRead) {
  Table t = MakeTable(4 * kChunkValues);
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);

  constexpr int kThreads = 8;
  std::mutex mu;
  std::condition_variable cv;
  int ready = 0;
  bool go = false;
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; id++) {
    threads.emplace_back([&] {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++ready == kThreads) cv.notify_all();
        cv.wait(lock, [&] { return go; });
      }
      // All threads fault the same cold page at once.
      auto guard = bm.FetchPinned(&t, t.column("a"), 0);
      ASSERT_TRUE(guard.ok()) << guard.status().ToString();
      VerifyChunkA(t, *guard.ValueOrDie().page(), 0);
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready == kThreads; });
    go = true;
    cv.notify_all();
  }
  for (auto& th : threads) th.join();

  // The invariant that holds under EVERY interleaving: one page, one
  // disk read. Latecomers are either coalesced waiters or plain hits.
  EXPECT_EQ(disk.read_count(), 1u);
  EXPECT_EQ(bm.misses(), 1u);
  EXPECT_EQ(bm.hits() + bm.coalesced_misses(), size_t(kThreads) - 1);
}

TEST(ConcurrencyTest, PinnedPageSurvivesEvictionPressure) {
  Table t = MakeTable(8 * kChunkValues);
  SimDisk disk;
  // Room for roughly one page: any second fetch must evict or overcommit.
  BufferManager bm(&disk, t.column("a")->chunks[0].size() + 16, Layout::kDSM);

  auto pinned = bm.FetchPinned(&t, t.column("a"), 0);
  ASSERT_TRUE(pinned.ok());
  for (size_t c = 1; c < t.chunk_count(); c++) {
    auto guard = bm.FetchPinned(&t, t.column("a"), c);
    ASSERT_TRUE(guard.ok());
  }
  // The pinned page was never evicted: re-fetching it is a pure hit.
  const size_t misses_before = bm.misses();
  auto again = bm.FetchPinned(&t, t.column("a"), 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(bm.misses(), misses_before);
  VerifyChunkA(t, *again.ValueOrDie().page(), 0);

  // Once the pins drop, pressure can reclaim it.
  again.ValueOrDie().Release();
  pinned.ValueOrDie().Release();
  const size_t evictions_before = bm.evictions();
  for (size_t c = 1; c < t.chunk_count(); c++) {
    ASSERT_TRUE(bm.FetchPinned(&t, t.column("a"), c).ok());
  }
  EXPECT_GT(bm.evictions(), evictions_before);
}

TEST(ConcurrencyTest, StormWithFaultInjectionAndChecksumsRecovers) {
  const size_t kRows = 16 * kChunkValues;
  Table t = MakeTable(kRows);
  SimDisk disk;
  FaultInjector faults(FaultInjector::Config{
      .seed = 7, .io_error_prob = 0.02, .bit_flip_prob = 0.05});
  disk.AttachFaults(&faults);
  // Capacity for ~4 pages: constant eviction keeps the disk (and the
  // injector) in play for the whole storm instead of 16 cold reads.
  size_t capacity = 0;
  for (size_t c = 0; c < 4; c++) capacity += t.column("a")->chunks[c].size();
  BufferManager bm(&disk, capacity, Layout::kDSM);
  bm.SetVerifyChecksums(true);
  bm.set_max_read_retries(16);  // 0.05^17: a failed fetch is a real bug

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; id++) {
    threads.emplace_back([&, id] {
      Rng rng(uint64_t(id) + 100);
      for (int f = 0; f < 150; f++) {
        const size_t chunk = rng.Uniform(uint32_t(t.chunk_count()));
        auto guard = bm.FetchPinned(&t, t.column("a"), chunk);
        ASSERT_TRUE(guard.ok()) << guard.status().ToString();
        // Checksums verified at read time + the value oracle here: a bit
        // flip that slipped through would fail one of the two.
        VerifyChunkA(t, *guard.ValueOrDie().page(), chunk);
      }
    });
  }
  for (auto& th : threads) th.join();

  // The injector fired (otherwise this test proves nothing) and every
  // fault was absorbed by the retry loop.
  EXPECT_GT(faults.stats().faults(), 0u);
  EXPECT_GT(bm.io_faults(), 0u);
  EXPECT_GE(disk.read_count(), bm.misses());  // retries re-charge the disk
}

TEST(ConcurrencyTest, PaxStormCoalescesSiblingColumns) {
  const size_t kRows = 12 * kChunkValues;
  Table t = MakeTable(kRows);
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kPAX);

  constexpr int kThreads = 6;
  const char* cols[] = {"a", "b", "c"};
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; id++) {
    threads.emplace_back([&, id] {
      Rng rng(uint64_t(id) + 1);
      for (int f = 0; f < 200; f++) {
        const size_t chunk = rng.Uniform(uint32_t(t.chunk_count()));
        const StoredColumn* col = t.column(cols[rng.Uniform(3)]);
        auto guard = bm.FetchPinned(&t, col, chunk);
        ASSERT_TRUE(guard.ok()) << guard.status().ToString();
      }
    });
  }
  for (auto& th : threads) th.join();

  // PAX faults one whole row group per miss and registers the sibling
  // columns, so the disk can never read a row group more than once.
  EXPECT_EQ(disk.read_count(), bm.misses());
  EXPECT_LE(bm.misses(), t.chunk_count());
  EXPECT_GT(bm.hits(), 0u);
}

TEST(ConcurrencyTest, PaxStormWithFaultsRecoversPerColumn) {
  // PAX + fault injection: faults apply to the page of the column that
  // leads the row-group read, so a coalesced waiter on a sibling column
  // must not blindly inherit the leader's error — it retries its own
  // fetch. With a generous per-fetch budget every fetch must succeed.
  const size_t kRows = 8 * kChunkValues;
  Table t = MakeTable(kRows);
  SimDisk disk;
  FaultInjector faults(FaultInjector::Config{
      .seed = 11, .io_error_prob = 0.02, .bit_flip_prob = 0.05});
  disk.AttachFaults(&faults);
  // Capacity for ~3 pages of "a": eviction churn keeps re-electing
  // leaders instead of settling into an all-hit steady state.
  size_t capacity = 0;
  for (size_t c = 0; c < 3; c++) capacity += t.column("a")->chunks[c].size();
  BufferManager bm(&disk, capacity, Layout::kPAX);
  bm.SetVerifyChecksums(true);
  bm.set_max_read_retries(16);

  constexpr int kThreads = 6;
  const char* cols[] = {"a", "b", "c"};
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; id++) {
    threads.emplace_back([&, id] {
      Rng rng(uint64_t(id) + 50);
      for (int f = 0; f < 150; f++) {
        const size_t chunk = rng.Uniform(uint32_t(t.chunk_count()));
        const StoredColumn* col = t.column(cols[rng.Uniform(3)]);
        auto guard = bm.FetchPinned(&t, col, chunk);
        ASSERT_TRUE(guard.ok()) << guard.status().ToString();
        if (col == t.column("a")) {
          VerifyChunkA(t, *guard.ValueOrDie().page(), chunk);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_GT(faults.stats().faults(), 0u);
  EXPECT_GT(bm.io_faults(), 0u);
  // Retries re-charge the disk, so reads >= misses still holds.
  EXPECT_GE(disk.read_count(), bm.misses());
}

TEST(ConcurrencyTest, SerialScanBesideParallelStorm) {
  // A serial TableScanOp with pushdown shares a buffer manager of about a
  // quarter of the table with four threads of ParallelScans. Verified
  // reads make every page an owned copy that eviction frees, so a page
  // decoded without its pin would read freed memory.
  constexpr size_t kRows = 40 * kChunkValues;
  constexpr int64_t kLo = 5100, kHi = 5400;
  const Source src = MakeSource(kRows);
  Table t = MakeTable(kRows);
  SimDisk disk;
  BufferManager bm(&disk, t.ByteSize() / 4, Layout::kDSM);
  bm.SetVerifyChecksums(true);
  size_t want = 0;
  for (int64_t v : src.b) want += v >= kLo && v <= kHi;
  // Any row that reads back different from its source.
  auto wrong = [&](const Batch& b, size_t i, size_t row) {
    return row >= kRows || b.col(0)->data<int64_t>()[i] != int64_t(row) ||
           b.col(1)->data<int64_t>()[i] != src.b[row] ||
           b.col(2)->data<int32_t>()[i] != src.c[row];
  };

  std::atomic<size_t> bad{0};
  std::atomic<int> storming{4};
  std::vector<std::thread> storm;
  for (int id = 0; id < 4; id++) {
    storm.emplace_back([&] {
      for (int rep = 0; rep < 3; rep++) {
        ParallelScan scan(&t, &bm, {"a", "b", "c"});
        std::atomic<size_t> rows{0};
        Status st = scan.Run([&](const Batch& b, size_t morsel, size_t) {
          // Column a is the row oracle; its first row pins the vector.
          const size_t row0 = size_t(b.col(0)->data<int64_t>()[0]);
          for (size_t i = 0; i < b.rows; i++) {
            bad += wrong(b, i, row0 + i) || row0 / kChunkValues != morsel;
          }
          rows += b.rows;
        });
        bad += !st.ok() || rows != kRows;
      }
      storming--;
    });
  }
  // The serial scan keeps going for as long as the storm lasts.
  for (int rep = 0; rep < 3 || storming > 0; rep++) {
    TableScanOp scan(&t, &bm, {"a", "b", "c"});
    scan.SetPushdownBetween("b", kLo, kHi);
    Batch b;
    size_t row0 = 0, selected = 0;
    while (size_t n = scan.Next(&b)) {
      const SelVec& sel = scan.selection();
      for (size_t k = 0; k < sel.count; k++) {
        const size_t row = row0 + sel.idx[k];
        bad += wrong(b, sel.idx[k], row) || src.b[row] < kLo ||
               src.b[row] > kHi;
      }
      selected += sel.count;
      row0 += n;
    }
    EXPECT_EQ(row0, kRows);
    EXPECT_EQ(selected, want);
  }
  for (auto& th : storm) th.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(bm.pinned_pages(), 0u);
}

}  // namespace
}  // namespace scc
