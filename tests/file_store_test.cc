#include "storage/file_store.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel_scan.h"
#include "storage/buffer_manager.h"
#include "storage/bulk_load.h"
#include "storage/scan.h"
#include "util/rng.h"

// Persistence round-trip tests: tables saved to a directory and loaded
// back must scan identically; corrupted files must be rejected on load.
// ChunkSummaryTest checks the per-chunk summaries the loaders write.

namespace scc {
namespace {

namespace fs = std::filesystem;

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("scc_store_" + std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

struct Columns {
  std::vector<int64_t> a;  // 3i + 7: sorted
  std::vector<int8_t> b;   // tiny domain
};

Columns MakeColumns(size_t rows) {
  Rng rng(1);
  Columns c{std::vector<int64_t>(rows), std::vector<int8_t>(rows)};
  for (size_t i = 0; i < rows; i++) {
    c.a[i] = int64_t(i) * 3 + 7;
    c.b[i] = int8_t(rng.Uniform(5));
  }
  return c;
}

Table MakeTable(size_t rows) {
  const Columns c = MakeColumns(rows);
  Table t(8192);
  SCC_CHECK(t.AddColumn<int64_t>("a", c.a, ColumnCompression::kAuto).ok(),
            "a");
  SCC_CHECK(t.AddColumn<int8_t>("b", c.b, ColumnCompression::kAuto).ok(), "b");
  return t;
}

TEST_F(FileStoreTest, SaveLoadScanRoundTrip) {
  Table t = MakeTable(50000);
  ASSERT_TRUE(FileStore::Save(t, dir_.string()).ok());
  auto loaded = FileStore::Load(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table& l = loaded.ValueOrDie();
  ASSERT_EQ(l.rows(), t.rows());
  ASSERT_EQ(l.column_count(), t.column_count());
  EXPECT_EQ(l.ByteSize(), t.ByteSize());

  SimDisk d1, d2;
  BufferManager bm1(&d1, 1u << 30, Layout::kDSM);
  BufferManager bm2(&d2, 1u << 30, Layout::kDSM);
  TableScanOp s1(&t, &bm1, {"a", "b"});
  TableScanOp s2(&l, &bm2, {"a", "b"});
  Batch b1, b2;
  while (true) {
    size_t n1 = s1.Next(&b1);
    size_t n2 = s2.Next(&b2);
    ASSERT_EQ(n1, n2);
    if (n1 == 0) break;
    for (size_t i = 0; i < n1; i++) {
      ASSERT_EQ(b1.col(0)->data<int64_t>()[i], b2.col(0)->data<int64_t>()[i]);
      ASSERT_EQ(b1.col(1)->data<int8_t>()[i], b2.col(1)->data<int8_t>()[i]);
    }
  }
}

TEST_F(FileStoreTest, MissingDirRejected) {
  auto loaded = FileStore::Load((dir_ / "nope").string());
  EXPECT_FALSE(loaded.ok());
}

TEST_F(FileStoreTest, CorruptChunkRejected) {
  Table t = MakeTable(20000);
  ASSERT_TRUE(FileStore::Save(t, dir_.string()).ok());
  // Flip a byte inside column a's first chunk header region.
  fs::path colfile = dir_ / "a.col";
  ASSERT_TRUE(fs::exists(colfile));
  {
    std::fstream f(colfile, std::ios::in | std::ios::out | std::ios::binary);
    // 8 bytes magic+count, then the size index; the first chunk's header
    // starts after 8 + 8*nchunks. Corrupt its magic.
    uint32_t nchunks = 0;
    f.seekg(4);
    f.read(reinterpret_cast<char*>(&nchunks), 4);
    f.seekp(std::streamoff(8 + 8 * nchunks));
    char zero = 0;
    f.write(&zero, 1);
  }
  auto loaded = FileStore::Load(dir_.string());
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(FileStoreTest, TruncatedColumnRejected) {
  Table t = MakeTable(20000);
  ASSERT_TRUE(FileStore::Save(t, dir_.string()).ok());
  fs::path colfile = dir_ / "a.col";
  fs::resize_file(colfile, fs::file_size(colfile) / 2);
  auto loaded = FileStore::Load(dir_.string());
  EXPECT_FALSE(loaded.ok());
}

TEST_F(FileStoreTest, PayloadCorruptionCaughtByChecksums) {
  Table t = MakeTable(20000);
  ASSERT_TRUE(FileStore::Save(t, dir_.string()).ok());
  // Flip a byte deep inside the first chunk's PAYLOAD (past the header
  // and checksum block): only the section CRCs can catch this.
  fs::path colfile = dir_ / "a.col";
  uint32_t nchunks = 0;
  {
    std::fstream f(colfile, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(4);
    f.read(reinterpret_cast<char*>(&nchunks), 4);
    const std::streamoff chunk0 = std::streamoff(8 + 8 * nchunks);
    f.seekg(chunk0 + 100);
    char byte = 0;
    f.read(&byte, 1);
    byte = char(byte ^ 0x10);
    f.seekp(chunk0 + 100);
    f.write(&byte, 1);
  }
  auto loaded = FileStore::Load(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().ToString();
  // Opting out of verification reproduces the legacy behavior: the
  // header still validates, so the corrupt chunk loads silently.
  auto unverified =
      FileStore::Load(dir_.string(), {.verify_checksums = false});
  EXPECT_TRUE(unverified.ok()) << unverified.status().ToString();
}

TEST_F(FileStoreTest, LegacyUnversionedChunksStillLoad) {
  Table t = MakeTable(20000);
  ASSERT_TRUE(FileStore::Save(t, dir_.string()).ok());
  // Rewrite every chunk of column a as a pre-versioning (v1) segment:
  // zero the flags byte. The stale checksum block bytes become dead
  // space inside the body, which v1 readers never look at.
  fs::path colfile = dir_ / "a.col";
  {
    std::fstream f(colfile, std::ios::in | std::ios::out | std::ios::binary);
    uint32_t nchunks = 0;
    f.seekg(4);
    f.read(reinterpret_cast<char*>(&nchunks), 4);
    std::vector<uint64_t> sizes(nchunks);
    for (auto& s : sizes) {
      f.read(reinterpret_cast<char*>(&s), 8);
    }
    std::streamoff off = std::streamoff(8 + 8 * nchunks);
    const char zero = 0;
    for (uint64_t size : sizes) {
      f.seekp(off + 7);  // offsetof(SegmentHeader, flags)
      f.write(&zero, 1);
      off += std::streamoff(size);
    }
  }
  // Default load verifies checksums — vacuously for v1 chunks.
  auto loaded = FileStore::Load(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The rewritten column still scans bit-exact against the original.
  const Table& l = loaded.ValueOrDie();
  SimDisk d1, d2;
  BufferManager bm1(&d1, 1u << 30, Layout::kDSM);
  BufferManager bm2(&d2, 1u << 30, Layout::kDSM);
  TableScanOp s1(&t, &bm1, {"a"});
  TableScanOp s2(&l, &bm2, {"a"});
  Batch b1, b2;
  while (true) {
    size_t n1 = s1.Next(&b1);
    size_t n2 = s2.Next(&b2);
    ASSERT_EQ(n1, n2);
    if (n1 == 0) break;
    for (size_t i = 0; i < n1; i++) {
      ASSERT_EQ(b1.col(0)->data<int64_t>()[i], b2.col(0)->data<int64_t>()[i]);
    }
  }
}

TEST_F(FileStoreTest, ManifestGarbageRejected) {
  fs::create_directories(dir_);
  std::ofstream(dir_ / "MANIFEST") << "not a column line\n";
  auto loaded = FileStore::Load(dir_.string());
  EXPECT_FALSE(loaded.ok());
}

// Chunk summaries (StoredColumn::ranges), which ParallelScan prunes on:
// every loader computes the same ones, a verified load derives them from
// the pages, and a load that skips verification has none.
class ChunkSummaryTest : public FileStoreTest {};

struct NarrowScan {
  size_t matches = 0;
  int64_t sum = 0;   // of b over the matches
  size_t fetched = 0;  // pages read from the device
};

/// Scans a in [lo, hi] through a fresh buffer manager.
NarrowScan ScanA(const Table& t, int64_t lo, int64_t hi) {
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);
  ParallelScan scan(&t, &bm, {"a", "b"});
  scan.SetPushdownBetween("a", lo, hi);
  std::vector<NarrowScan> slots(scan.slot_count());
  Status st = scan.Run([&](const Batch& batch, size_t, size_t slot) {
    const SelVec& sel = scan.selection(slot);
    const int8_t* b = batch.col(1)->data<int8_t>();
    for (size_t k = 0; k < sel.count; k++) slots[slot].sum += b[sel.idx[k]];
    slots[slot].matches += sel.count;
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(bm.pinned_pages(), 0u);
  NarrowScan out;
  for (const NarrowScan& s : slots) {
    out.matches += s.matches;
    out.sum += s.sum;
  }
  out.fetched = disk.read_count();
  return out;
}

TEST_F(ChunkSummaryTest, LoadersAndVerifiedLoadAgree) {
  const size_t rows = 50000;  // 6 full chunks and a tail
  const Columns c = MakeColumns(rows);
  Table t = MakeTable(rows);
  const StoredColumn* a = t.column("a");
  ASSERT_EQ(a->ranges.size(), a->chunk_count());
  for (size_t k = 0; k < a->chunk_count(); k++) {
    const int64_t first = int64_t(k * 8192) * 3 + 7;
    const int64_t last = int64_t(k * 8192 + a->ChunkRows(k) - 1) * 3 + 7;
    EXPECT_EQ(a->ranges[k], (ChunkRange{first, last})) << "chunk " << k;
  }
  for (unsigned threads : {1u, 4u}) {
    Table bulk(8192);
    BulkLoadOptions opts;
    opts.threads = threads;
    ASSERT_TRUE(BulkLoadColumn<int64_t>(&bulk, "a", c.a, opts).ok());
    ASSERT_TRUE(BulkLoadColumn<int8_t>(&bulk, "b", c.b, opts).ok());
    for (const char* name : {"a", "b"}) {
      EXPECT_EQ(bulk.column(name)->ranges, t.column(name)->ranges)
          << name << " threads=" << threads;
    }
  }
  ASSERT_TRUE(FileStore::Save(t, dir_.string()).ok());
  auto loaded = FileStore::Load(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const char* name : {"a", "b"}) {
    EXPECT_EQ(loaded.ValueOrDie().column(name)->ranges,
              t.column(name)->ranges)
        << name;
  }
}

TEST_F(ChunkSummaryTest, UnverifiedLoadHasNoneAndScansEveryChunk) {
  Table t = MakeTable(50000);
  ASSERT_TRUE(FileStore::Save(t, dir_.string()).ok());
  auto unverified =
      FileStore::Load(dir_.string(), {.verify_checksums = false});
  ASSERT_TRUE(unverified.ok()) << unverified.status().ToString();
  const Table& u = unverified.ValueOrDie();
  for (size_t i = 0; i < u.column_count(); i++) {
    EXPECT_TRUE(u.column(i)->ranges.empty()) << u.column(i)->name;
  }
  // Rows 9000..9099, all in chunk 1.
  const int64_t lo = 9000 * 3 + 7, hi = 9099 * 3 + 7;
  const NarrowScan pruned = ScanA(t, lo, hi);
  const NarrowScan full = ScanA(u, lo, hi);
  EXPECT_EQ(pruned.matches, 100u);
  EXPECT_EQ(full.matches, pruned.matches);
  EXPECT_EQ(full.sum, pruned.sum);
  EXPECT_EQ(pruned.fetched, 2u);  // chunk 1 of a and of b
  EXPECT_EQ(full.fetched, 2 * t.chunk_count());
}

}  // namespace
}  // namespace scc
