#include "storage/scan.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "storage/buffer_manager.h"
#include "storage/sim_disk.h"
#include "storage/table.h"
#include "util/rng.h"

// ColumnBM storage tests: chunked compressed tables, the LRU buffer
// manager under DSM and PAX layouts, the simulated disk's accounting, and
// the scan operator in both decompression modes.

namespace scc {
namespace {

Table MakeTable(size_t rows, ColumnCompression mode,
                size_t chunk_values = 8192) {
  Table t(chunk_values);
  Rng rng(42);
  std::vector<int64_t> a(rows), b(rows);
  std::vector<int32_t> c(rows);
  for (size_t i = 0; i < rows; i++) {
    a[i] = int64_t(i);                          // monotone -> PFOR-DELTA
    b[i] = 5000 + int64_t(rng.Uniform(1000));   // clustered -> PFOR
    c[i] = int32_t(rng.Uniform(4));             // tiny domain -> PDICT/PFOR
  }
  SCC_CHECK(t.AddColumn<int64_t>("a", a, mode).ok(), "a");
  SCC_CHECK(t.AddColumn<int64_t>("b", b, mode).ok(), "b");
  SCC_CHECK(t.AddColumn<int32_t>("c", c, mode).ok(), "c");
  return t;
}

TEST(TableTest, CompressionShrinksStorage) {
  Table comp = MakeTable(100000, ColumnCompression::kAuto);
  Table raw = MakeTable(100000, ColumnCompression::kNone);
  EXPECT_LT(comp.ByteSize() * 3, raw.ByteSize());
  EXPECT_GT(comp.CompressionRatio(), 3.0);
  EXPECT_NEAR(raw.CompressionRatio(), 1.0, 0.01);
}

TEST(TableTest, ChunkAccounting) {
  Table t = MakeTable(20000, ColumnCompression::kAuto, 8192);
  EXPECT_EQ(t.chunk_count(), 3u);
  EXPECT_EQ(t.column("a")->ChunkRows(0), 8192u);
  EXPECT_EQ(t.column("a")->ChunkRows(2), 20000u - 2 * 8192u);
  EXPECT_GT(t.RowGroupBytes(0), 0u);
}

TEST(TableTest, MismatchedRowCountRejected) {
  Table t;
  std::vector<int64_t> a(100), b(50);
  ASSERT_TRUE(t.AddColumn<int64_t>("a", a, ColumnCompression::kNone).ok());
  EXPECT_FALSE(t.AddColumn<int64_t>("b", b, ColumnCompression::kNone).ok());
}

TEST(SimDiskTest, TimeAccounting) {
  SimDisk disk(SimDisk::Config{100.0, 10.0});  // 100 MB/s, 10 ms seek
  disk.ReadChunk(100 * 1024 * 1024);
  EXPECT_NEAR(disk.io_seconds(), 1.01, 1e-6);
  EXPECT_EQ(disk.bytes_read(), size_t(100) * 1024 * 1024);
  EXPECT_EQ(disk.read_count(), 1u);
  disk.Reset();
  EXPECT_EQ(disk.io_seconds(), 0.0);
}

TEST(BufferManagerTest, DsmChargesOnlyTouchedColumns) {
  Table t = MakeTable(50000, ColumnCompression::kAuto, 8192);
  SimDisk disk;
  BufferManager bm(&disk, 1u << 30, Layout::kDSM);
  bm.FetchPinned(&t, t.column("a"), 0);
  EXPECT_EQ(disk.bytes_read(), t.column("a")->chunks[0].size());
  // Second fetch hits the cache: no more I/O.
  bm.FetchPinned(&t, t.column("a"), 0);
  EXPECT_EQ(disk.read_count(), 1u);
  EXPECT_EQ(bm.hits(), 1u);
}

TEST(BufferManagerTest, PaxChargesWholeRowGroup) {
  Table t = MakeTable(50000, ColumnCompression::kAuto, 8192);
  SimDisk disk;
  BufferManager bm(&disk, 1u << 30, Layout::kPAX);
  bm.FetchPinned(&t, t.column("a"), 0);
  EXPECT_EQ(disk.bytes_read(), t.RowGroupBytes(0));
  // Other columns of the same row group are now resident.
  bm.FetchPinned(&t, t.column("b"), 0);
  bm.FetchPinned(&t, t.column("c"), 0);
  EXPECT_EQ(disk.read_count(), 1u);
  EXPECT_EQ(bm.hits(), 2u);
}

TEST(BufferManagerTest, LruEvictsUnderPressure) {
  Table t = MakeTable(100000, ColumnCompression::kNone, 8192);
  size_t one_chunk = t.column("a")->chunks[0].size();
  SimDisk disk;
  // Room for only ~2 chunks.
  BufferManager bm(&disk, one_chunk * 2 + 100, Layout::kDSM);
  bm.FetchPinned(&t, t.column("a"), 0);
  bm.FetchPinned(&t, t.column("a"), 1);
  bm.FetchPinned(&t, t.column("a"), 2);  // evicts chunk 0
  bm.FetchPinned(&t, t.column("a"), 0);  // miss again
  EXPECT_EQ(disk.read_count(), 4u);
  EXPECT_LE(bm.resident_bytes(), one_chunk * 2 + 100);
}

TEST(BufferManagerTest, CountsEvictionsAndBytes) {
  Table t = MakeTable(100000, ColumnCompression::kNone, 8192);
  size_t one_chunk = t.column("a")->chunks[0].size();
  SimDisk disk;
  BufferManager bm(&disk, one_chunk * 2 + 100, Layout::kDSM);
  bm.FetchPinned(&t, t.column("a"), 0);
  bm.FetchPinned(&t, t.column("a"), 1);
  EXPECT_EQ(bm.evictions(), 0u);
  bm.FetchPinned(&t, t.column("a"), 2);  // evicts chunk 0
  bm.FetchPinned(&t, t.column("a"), 3);  // evicts chunk 1
  EXPECT_EQ(bm.evictions(), 2u);
  EXPECT_EQ(bm.evicted_bytes(), 2 * one_chunk);
  // bytes_read counts every miss, including re-reads after eviction.
  EXPECT_EQ(bm.bytes_read(), 4 * one_chunk);
  EXPECT_EQ(bm.bytes_read(), disk.bytes_read());
}

TEST(BufferManagerTest, PaxEvictionAccounting) {
  Table t = MakeTable(50000, ColumnCompression::kNone, 8192);
  SimDisk disk;
  // Capacity for exactly one full row group.
  BufferManager bm(&disk, t.RowGroupBytes(0), Layout::kPAX);
  bm.FetchPinned(&t, t.column("a"), 0);
  size_t resident0 = bm.resident_bytes();
  EXPECT_EQ(resident0, t.RowGroupBytes(0));
  // Fetching a different row group must push out the first one's columns.
  bm.FetchPinned(&t, t.column("a"), 1);
  EXPECT_EQ(bm.evictions(), t.column_count());
  EXPECT_EQ(bm.evicted_bytes(), resident0);
  EXPECT_EQ(bm.bytes_read(), t.RowGroupBytes(0) + t.RowGroupBytes(1));
}

TEST(BufferManagerTest, PaxResidentSiblingsEvictNothing) {
  // Three equal-sized columns, DRAM for five pages. When c0k1 is fetched
  // last, its siblings c1k1 and c2k1 are resident and recently used, so
  // admitting the row group needs room for one page, not three.
  Table t(8192);
  std::vector<int64_t> v(3 * 8192);
  for (size_t i = 0; i < v.size(); i++) v[i] = int64_t(i);
  for (const char* name : {"c0", "c1", "c2"}) {
    ASSERT_TRUE(t.AddColumn<int64_t>(name, v, ColumnCompression::kNone).ok());
  }
  const size_t page = t.column(size_t(0))->chunks[0].size();
  SimDisk disk;
  BufferManager bm(&disk, 5 * page, Layout::kPAX);
  auto fetch = [&](size_t c, size_t k) {
    ASSERT_TRUE(bm.FetchPinned(&t, t.column(c), k).ok());
  };
  for (auto [c, k] : {std::pair<size_t, size_t>{0, 0},
                      {0, 1}, {1, 1}, {2, 1}, {0, 2}, {1, 1}, {2, 1}}) {
    fetch(c, k);
  }
  const size_t evictions = bm.evictions();
  fetch(0, 1);
  EXPECT_EQ(bm.evictions() - evictions, 1u);
  EXPECT_EQ(bm.tier_stats(CacheTier::kDram).resident_entries, 5u);
}

TEST(BufferManagerTest, ItemLargerThanCapacityIsStillAdmitted) {
  Table t = MakeTable(100000, ColumnCompression::kNone, 8192);
  size_t one_chunk = t.column("a")->chunks[0].size();
  SimDisk disk;
  // Capacity below a single chunk: the manager overcommits rather than
  // refuse service, holding at most that one oversized item.
  BufferManager bm(&disk, one_chunk / 2, Layout::kDSM);
  ASSERT_NE(bm.FetchPinned(&t, t.column("a"), 0).ValueOrDie().page(), nullptr);
  EXPECT_EQ(bm.resident_bytes(), one_chunk);  // over capacity by design
  // It stays cached until the next insert under pressure...
  bm.FetchPinned(&t, t.column("a"), 0);
  EXPECT_EQ(bm.hits(), 1u);
  // ...then becomes the first victim.
  bm.FetchPinned(&t, t.column("a"), 1);
  EXPECT_EQ(bm.evictions(), 1u);
  EXPECT_EQ(bm.evicted_bytes(), one_chunk);
  EXPECT_EQ(bm.resident_bytes(), one_chunk);  // only the new chunk
}

TEST(BufferManagerTest, ClearKeepsStatsResetStatsKeepsCache) {
  Table t = MakeTable(50000, ColumnCompression::kNone, 8192);
  SimDisk disk;
  BufferManager bm(&disk, 1u << 30, Layout::kDSM);
  bm.FetchPinned(&t, t.column("a"), 0);
  bm.FetchPinned(&t, t.column("a"), 0);
  EXPECT_EQ(bm.hits(), 1u);
  EXPECT_EQ(bm.misses(), 1u);

  // Clear() = power off the cache: pages gone, counters intact.
  bm.Clear();
  EXPECT_EQ(bm.resident_bytes(), 0u);
  EXPECT_EQ(bm.hits(), 1u);
  EXPECT_EQ(bm.misses(), 1u);
  bm.FetchPinned(&t, t.column("a"), 0);
  EXPECT_EQ(bm.misses(), 2u);  // cold again

  // ResetStats() = fresh measurement window: counters zeroed, cache warm.
  bm.ResetStats();
  EXPECT_EQ(bm.hits(), 0u);
  EXPECT_EQ(bm.misses(), 0u);
  EXPECT_EQ(bm.bytes_read(), 0u);
  EXPECT_GT(bm.resident_bytes(), 0u);
  bm.FetchPinned(&t, t.column("a"), 0);
  EXPECT_EQ(bm.hits(), 1u);  // still resident: no disk I/O
  EXPECT_EQ(bm.misses(), 0u);
}

TEST(ScanTest, VectorWiseMatchesSource) {
  const size_t rows = 50000;
  Table t = MakeTable(rows, ColumnCompression::kAuto, 8192);
  SimDisk disk;
  BufferManager bm(&disk, 1u << 30, Layout::kDSM);
  TableScanOp scan(&t, &bm, {"a", "b", "c"});
  Batch batch;
  size_t pos = 0;
  Rng rng(42);  // regenerate the expected data in lockstep
  std::vector<int64_t> ea(rows), eb(rows);
  std::vector<int32_t> ec(rows);
  for (size_t i = 0; i < rows; i++) {
    ea[i] = int64_t(i);
    eb[i] = 5000 + int64_t(rng.Uniform(1000));
    ec[i] = int32_t(rng.Uniform(4));
  }
  while (size_t n = scan.Next(&batch)) {
    ASSERT_EQ(batch.columns.size(), 3u);
    for (size_t i = 0; i < n; i++) {
      ASSERT_EQ(batch.col(0)->data<int64_t>()[i], ea[pos + i]);
      ASSERT_EQ(batch.col(1)->data<int64_t>()[i], eb[pos + i]);
      ASSERT_EQ(batch.col(2)->data<int32_t>()[i], ec[pos + i]);
    }
    pos += n;
  }
  EXPECT_EQ(pos, rows);
  EXPECT_GT(scan.decompress_seconds(), 0.0);
}

TEST(ScanTest, PageWiseProducesSameData) {
  const size_t rows = 30000;
  Table t = MakeTable(rows, ColumnCompression::kAuto, 8192);
  SimDisk d1, d2;
  BufferManager bm1(&d1, 1u << 30, Layout::kDSM);
  BufferManager bm2(&d2, 1u << 30, Layout::kDSM);
  TableScanOp vw(&t, &bm1, {"a", "b"}, TableScanOp::Mode::kVectorWise);
  TableScanOp pw(&t, &bm2, {"a", "b"}, TableScanOp::Mode::kPageWise);
  Batch b1, b2;
  while (true) {
    size_t n1 = vw.Next(&b1);
    size_t n2 = pw.Next(&b2);
    ASSERT_EQ(n1, n2);
    if (n1 == 0) break;
    for (size_t i = 0; i < n1; i++) {
      ASSERT_EQ(b1.col(0)->data<int64_t>()[i], b2.col(0)->data<int64_t>()[i]);
      ASSERT_EQ(b1.col(1)->data<int64_t>()[i], b2.col(1)->data<int64_t>()[i]);
    }
  }
  // Both modes read the same compressed bytes from "disk".
  EXPECT_EQ(d1.bytes_read(), d2.bytes_read());
}

TEST(ScanTest, UncompressedReadsMoreBytes) {
  const size_t rows = 100000;
  Table comp = MakeTable(rows, ColumnCompression::kAuto, 8192);
  Table raw = MakeTable(rows, ColumnCompression::kNone, 8192);
  SimDisk d1, d2;
  BufferManager bm1(&d1, 1u << 30, Layout::kDSM);
  BufferManager bm2(&d2, 1u << 30, Layout::kDSM);
  TableScanOp s1(&comp, &bm1, {"a", "b", "c"});
  TableScanOp s2(&raw, &bm2, {"a", "b", "c"});
  Batch b;
  while (s1.Next(&b)) {
  }
  while (s2.Next(&b)) {
  }
  EXPECT_LT(d1.bytes_read() * 3, d2.bytes_read());
  EXPECT_LT(d1.io_seconds(), d2.io_seconds());
}

TEST(ScanTest, ScanPipesIntoAggregation) {
  // End-to-end: scan compressed storage into a group-by aggregation.
  const size_t rows = 40000;
  Table t = MakeTable(rows, ColumnCompression::kAuto, 8192);
  SimDisk disk;
  BufferManager bm(&disk, 1u << 30, Layout::kDSM);
  TableScanOp scan(&t, &bm, {"c", "a"});
  HashAggregateOp agg(&scan, {0}, {4}, {{AggKind::kCount, 0},
                                        {AggKind::kSum, 1}});
  Batch b;
  int64_t total_count = 0, total_sum = 0;
  while (size_t n = agg.Next(&b)) {
    for (size_t i = 0; i < n; i++) {
      total_count += b.col(1)->data<int64_t>()[i];
      total_sum += b.col(2)->data<int64_t>()[i];
    }
  }
  EXPECT_EQ(total_count, int64_t(rows));
  EXPECT_EQ(total_sum, int64_t(rows) * (rows - 1) / 2);
}

constexpr TableScanOp::Mode kModes[] = {TableScanOp::Mode::kVectorWise,
                                        TableScanOp::Mode::kPageWise};

TEST(ScanTest, PinsTheOpenChunkOnly) {
  // The scan pins one page per scanned column while a chunk is open, and
  // none once Next() returns 0, after Reset(), or after destruction.
  Table t = MakeTable(3 * 8192 + 100, ColumnCompression::kAuto, 8192);
  for (TableScanOp::Mode mode : kModes) {
    for (bool pushdown : {false, true}) {
      SCOPED_TRACE(testing::Message() << "page-wise "
                                      << (mode == TableScanOp::Mode::kPageWise)
                                      << " pushdown " << pushdown);
      SimDisk disk;
      BufferManager bm(&disk, 1u << 30, Layout::kDSM);
      {
        TableScanOp scan(&t, &bm, {"a", "b", "c"}, mode);
        if (pushdown) scan.SetPushdownBetween("b", 5100, 5400);
        Batch b;
        size_t vectors = 0;
        while (scan.Next(&b)) {
          vectors++;
          ASSERT_EQ(bm.pinned_pages(), 3u) << "vector " << vectors;
        }
        EXPECT_EQ(vectors, 25u);
        EXPECT_EQ(bm.pinned_pages(), 0u);
        EXPECT_EQ(scan.Next(&b), 0u);
        EXPECT_EQ(bm.pinned_pages(), 0u);

        scan.Reset();
        ASSERT_GT(scan.Next(&b), 0u);
        EXPECT_EQ(bm.pinned_pages(), 3u);
        scan.Reset();
        EXPECT_EQ(bm.pinned_pages(), 0u);
        ASSERT_GT(scan.Next(&b), 0u);  // destroyed mid-chunk
      }
      EXPECT_EQ(bm.pinned_pages(), 0u);
    }
  }
}

TEST(ScanTest, FetchesEachColumnPageOnce) {
  // 8 chunks x 3 columns: one buffer-manager fetch per page, whatever the
  // mode, and pushdown does not fetch the filter column twice.
  Table t = MakeTable(8 * 16384, ColumnCompression::kAuto, 16384);
  for (TableScanOp::Mode mode : kModes) {
    for (bool pushdown : {false, true}) {
      SCOPED_TRACE(testing::Message() << "page-wise "
                                      << (mode == TableScanOp::Mode::kPageWise)
                                      << " pushdown " << pushdown);
      SimDisk disk;
      BufferManager bm(&disk, 1u << 30, Layout::kDSM);
      TableScanOp scan(&t, &bm, {"a", "b", "c"}, mode);
      if (pushdown) scan.SetPushdownBetween("b", 5100, 5400);
      Batch b;
      size_t rows = 0;
      while (size_t n = scan.Next(&b)) rows += n;
      EXPECT_EQ(rows, t.rows());
      EXPECT_EQ(bm.hits() + bm.misses() + bm.coalesced_misses(), 24u);
      EXPECT_EQ(bm.misses(), 24u);
    }
  }
}

}  // namespace
}  // namespace scc
