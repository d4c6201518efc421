#include "storage/merge_scan.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/string_dictionary.h"
#include "util/rng.h"

// Differential-update tests (paper Section 2.3): scans merge in-memory
// deltas with immutable compressed base tables; checkpoints fold the
// deltas back in. A fuzz test validates long random update sequences
// against a plain in-memory reference.

namespace scc {
namespace {

Table MakeBase(const std::vector<int64_t>& a, const std::vector<int32_t>& b,
               ColumnCompression mode = ColumnCompression::kAuto) {
  Table t(4096);
  SCC_CHECK(t.AddColumn<int64_t>("a", a, mode).ok(), "a");
  SCC_CHECK(t.AddColumn<int32_t>("b", b, mode).ok(), "b");
  return t;
}

struct Collected {
  std::vector<int64_t> a;
  std::vector<int32_t> b;
};

Collected CollectMergeScan(const Table& t, const DeltaStore& delta) {
  SimDisk disk;
  BufferManager bm(&disk, 1u << 30, Layout::kDSM);
  MergeScanOp scan(&t, &bm, {"a", "b"}, &delta, {0, 1});
  Collected out;
  Batch batch;
  while (size_t n = scan.Next(&batch)) {
    for (size_t i = 0; i < n; i++) {
      out.a.push_back(batch.col(0)->data<int64_t>()[i]);
      out.b.push_back(batch.col(1)->data<int32_t>()[i]);
    }
  }
  return out;
}

TEST(DeltaStoreTest, InsertsAppendAfterBase) {
  std::vector<int64_t> a = {10, 20, 30};
  std::vector<int32_t> b = {1, 2, 3};
  Table t = MakeBase(a, b);
  DeltaStore delta({TypeId::kInt64, TypeId::kInt32});
  ASSERT_TRUE(delta.Insert({40, 4}).ok());
  ASSERT_TRUE(delta.Insert({50, 5}).ok());
  Collected got = CollectMergeScan(t, delta);
  EXPECT_EQ(got.a, (std::vector<int64_t>{10, 20, 30, 40, 50}));
  EXPECT_EQ(got.b, (std::vector<int32_t>{1, 2, 3, 4, 5}));
}

TEST(DeltaStoreTest, DeletesFilterBaseRows) {
  std::vector<int64_t> a = {10, 20, 30, 40};
  std::vector<int32_t> b = {1, 2, 3, 4};
  Table t = MakeBase(a, b);
  DeltaStore delta({TypeId::kInt64, TypeId::kInt32});
  delta.Delete(1);
  delta.Delete(3);
  delta.Delete(3);  // idempotent
  Collected got = CollectMergeScan(t, delta);
  EXPECT_EQ(got.a, (std::vector<int64_t>{10, 30}));
  EXPECT_EQ(delta.delete_count(), 2u);
}

TEST(DeltaStoreTest, UpdateIsDeletePlusInsert) {
  std::vector<int64_t> a = {10, 20, 30};
  std::vector<int32_t> b = {1, 2, 3};
  Table t = MakeBase(a, b);
  DeltaStore delta({TypeId::kInt64, TypeId::kInt32});
  ASSERT_TRUE(delta.Update(1, {21, 12}).ok());
  Collected got = CollectMergeScan(t, delta);
  EXPECT_EQ(got.a, (std::vector<int64_t>{10, 30, 21}));
  EXPECT_EQ(got.b, (std::vector<int32_t>{1, 3, 12}));
}

TEST(DeltaStoreTest, ArityMismatchRejected) {
  DeltaStore delta({TypeId::kInt64, TypeId::kInt32});
  EXPECT_FALSE(delta.Insert({1}).ok());
}

TEST(DeltaStoreTest, CheckpointFoldsDeltasIn) {
  Rng rng(5);
  std::vector<int64_t> a(20000);
  std::vector<int32_t> b(20000);
  for (size_t i = 0; i < a.size(); i++) {
    a[i] = 1000 + int64_t(rng.Uniform(100));
    b[i] = int32_t(i);
  }
  Table t = MakeBase(a, b);
  DeltaStore delta({TypeId::kInt64, TypeId::kInt32});
  for (uint64_t r = 0; r < 20000; r += 7) delta.Delete(r);
  for (int64_t i = 0; i < 500; i++) {
    ASSERT_TRUE(delta.Insert({2000 + i, int32_t(100000 + i)}).ok());
  }
  SimDisk disk;
  BufferManager bm(&disk, 1u << 30, Layout::kDSM);
  auto merged = Checkpoint(t, delta, &bm, ColumnCompression::kAuto);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const Table& m = merged.ValueOrDie();
  // The checkpointed table scanned plain equals the merge-scan view.
  Collected before = CollectMergeScan(t, delta);
  DeltaStore empty({TypeId::kInt64, TypeId::kInt32});
  Collected after = CollectMergeScan(m, empty);
  EXPECT_EQ(before.a, after.a);
  EXPECT_EQ(before.b, after.b);
  EXPECT_EQ(m.rows(), 20000 - (20000 + 6) / 7 + 500);
}

TEST(DeltaStoreTest, CheckpointReturnsCorruptPageStatus) {
  // Chunk 2 of column "b" carries a segment header that fails validation.
  // Checksum verification stays off, so the page reaches the decode step:
  // Checkpoint returns Corruption naming the column and chunk, and leaves
  // no page pinned.
  constexpr size_t kChunk = 4096;
  constexpr size_t kRows = 20000;
  std::vector<int64_t> values(kRows);
  for (size_t i = 0; i < kRows; i++) values[i] = int64_t(i);
  Table t(kChunk);
  ASSERT_TRUE(t.AddColumn<int64_t>("a", values, ColumnCompression::kAuto).ok());
  auto bad = std::make_unique<StoredColumn>();
  bad->name = "b";
  bad->rows = kRows;
  bad->chunk_values = kChunk;
  bad->compressed = true;
  for (size_t lo = 0; lo < kRows; lo += kChunk) {
    Result<AlignedBuffer> seg = BuildColumnChunk<int64_t>(
        std::span<const int64_t>(values).subspan(lo,
                                                 std::min(kChunk, kRows - lo)),
        ColumnCompression::kAuto);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    bad->chunks.push_back(seg.MoveValueOrDie());
  }
  bad->chunks[2].data()[0] ^= 0xFF;  // segment magic
  ASSERT_TRUE(t.AdoptColumn(std::move(bad)).ok());
  DeltaStore delta({TypeId::kInt64, TypeId::kInt64});
  delta.Delete(5);
  SimDisk disk;
  BufferManager bm(&disk, 1u << 30, Layout::kDSM);
  ASSERT_FALSE(bm.verify_checksums());

  auto merged = Checkpoint(t, delta, &bm, ColumnCompression::kAuto);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kCorruption);
  EXPECT_NE(merged.status().message().find("column 'b' chunk 2"),
            std::string::npos)
      << merged.status().ToString();
  EXPECT_EQ(bm.pinned_pages(), 0u);
}

TEST(DeltaStoreTest, FuzzAgainstReference) {
  Rng rng(17);
  std::vector<int64_t> a(5000);
  std::vector<int32_t> b(5000);
  for (size_t i = 0; i < a.size(); i++) {
    a[i] = int64_t(rng.Uniform(1u << 20));
    b[i] = int32_t(rng.Uniform(100));
  }
  Table t = MakeBase(a, b);
  DeltaStore delta({TypeId::kInt64, TypeId::kInt32});
  // Reference: base rows flagged live + appended rows.
  std::vector<bool> live(a.size(), true);
  std::vector<std::pair<int64_t, int32_t>> appended;
  for (int op = 0; op < 3000; op++) {
    double r = rng.NextDouble();
    if (r < 0.4) {
      uint64_t row = rng.Uniform(a.size());
      delta.Delete(row);
      live[row] = false;
    } else if (r < 0.8) {
      int64_t va = int64_t(rng.Uniform(1u << 21));
      int32_t vb = int32_t(rng.Uniform(1000));
      ASSERT_TRUE(delta.Insert({va, vb}).ok());
      appended.emplace_back(va, vb);
    } else {
      uint64_t row = rng.Uniform(a.size());
      int64_t va = -int64_t(rng.Uniform(100));
      ASSERT_TRUE(delta.Update(row, {va, 7}).ok());
      live[row] = false;
      appended.emplace_back(va, 7);
    }
  }
  Collected got = CollectMergeScan(t, delta);
  std::vector<int64_t> want_a;
  std::vector<int32_t> want_b;
  for (size_t i = 0; i < a.size(); i++) {
    if (live[i]) {
      want_a.push_back(a[i]);
      want_b.push_back(b[i]);
    }
  }
  for (auto [va, vb] : appended) {
    want_a.push_back(va);
    want_b.push_back(vb);
  }
  EXPECT_EQ(got.a, want_a);
  EXPECT_EQ(got.b, want_b);
  EXPECT_GT(delta.ApproxBytes(), 0u);
  delta.Clear();
  EXPECT_EQ(delta.insert_count(), 0u);
}

// ---------------------------------------------------------------------------
// String dictionary
// ---------------------------------------------------------------------------

TEST(StringDictionaryTest, InternLookupRoundTrip) {
  StringDictionary dict;
  EXPECT_EQ(dict.Intern("MALE"), 0u);
  EXPECT_EQ(dict.Intern("FEMALE"), 1u);
  EXPECT_EQ(dict.Intern("MALE"), 0u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Lookup(1), "FEMALE");
  EXPECT_EQ(dict.Find("FEMALE"), 1u);
  EXPECT_EQ(dict.Find("OTHER"), StringDictionary::kNotFound);
}

TEST(StringDictionaryTest, ColumnEncodeDecodeThroughSegments) {
  // End-to-end: VARCHAR column -> codes -> compressed segment -> back.
  StringDictionary dict;
  std::vector<std::string> shipmodes = {"AIR",  "RAIL", "SHIP", "TRUCK",
                                        "MAIL", "FOB",  "REG AIR"};
  Rng rng(3);
  std::vector<std::string> column(50000);
  for (auto& s : column) s = shipmodes[rng.Uniform(shipmodes.size())];
  std::vector<int32_t> codes = dict.EncodeColumn(column);

  Table t(8192);
  ASSERT_TRUE(t.AddColumn<int32_t>("l_shipmode", codes,
                                   ColumnCompression::kAuto)
                  .ok());
  // 7 distinct values -> ~3 bits/value against 4 raw bytes.
  EXPECT_GT(t.CompressionRatio(), 8.0);

  SimDisk disk;
  BufferManager bm(&disk, 1u << 30, Layout::kDSM);
  TableScanOp scan(&t, &bm, {"l_shipmode"});
  Batch b;
  size_t pos = 0;
  while (size_t n = scan.Next(&b)) {
    const int32_t* got = b.col(0)->data<int32_t>();
    for (size_t i = 0; i < n; i++) {
      ASSERT_EQ(dict.Lookup(uint32_t(got[i])), column[pos + i]);
    }
    pos += n;
  }
  EXPECT_EQ(pos, column.size());
}

}  // namespace
}  // namespace scc
