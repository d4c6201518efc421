#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/bitpack_dispatch.h"
#include "core/segment_builder.h"
#include "core/segment_reader.h"
#include "engine/primitives.h"
#include "exec/parallel_scan.h"
#include "storage/buffer_manager.h"
#include "storage/scan.h"
#include "storage/sim_disk.h"
#include "storage/table.h"
#include "util/rng.h"

// Compressed-domain selection pushdown tests. The reader-level battery is
// differential: SegmentReader::SelectBetween against decode-then-scalar-
// select over fuzzed segments of every scheme — with and without
// exceptions and summaries, on every supported kernel backend. On top sit
// format-validation negatives for the summary section and scan-level
// checks that TableScanOp / ParallelScan pushdown is invisible in results.

namespace scc {
namespace {

// SelectBetween over [start, start + len) against a scalar select over
// the source values, on every supported kernel backend. `out` gets exactly
// `len` entries, so an overrun shows under the sanitizers.
template <typename T>
void ExpectSelect(const SegmentReader<T>& r, const std::vector<T>& values,
                  size_t start, size_t len, T lo, T hi) {
  std::vector<uint32_t> want;
  for (size_t i = start; i < start + len; i++) {
    if (values[i] >= lo && values[i] <= hi) {
      want.push_back(uint32_t(i - start));
    }
  }
  for (KernelIsa isa : SupportedKernelIsas()) {
    ScopedKernelIsa force(isa);
    std::vector<uint32_t> got(len, 0xCAFEF00D);
    got.resize(r.SelectBetween(start, len, lo, hi, got.data()));
    ASSERT_EQ(want, got) << "isa=" << KernelIsaName(isa)
                         << " start=" << start << " len=" << len
                         << " lo=" << int64_t(lo) << " hi=" << int64_t(hi);
  }
}

// Reference: decode the whole segment once, select scalar per query.
template <typename T>
void CheckSelectDifferential(const AlignedBuffer& seg,
                             const std::vector<T>& values, uint64_t seed,
                             int queries = 40) {
  auto reader = SegmentReader<T>::Open(seg.data(), seg.size());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const auto& r = reader.ValueOrDie();
  ASSERT_EQ(r.count(), values.size());
  const size_t n = values.size();
  Rng rng(seed);
  for (int q = 0; q < queries; q++) {
    const size_t start = rng.Uniform(n);
    const size_t len = 1 + rng.Uniform(n - start);
    // Sample the predicate bounds from the data so every selectivity from
    // empty to full shows up; occasionally push to the type limits.
    T a = values[rng.Uniform(n)];
    T b = values[rng.Uniform(n)];
    if (a > b) std::swap(a, b);
    if (rng.Bernoulli(0.1)) a = std::numeric_limits<T>::min();
    if (rng.Bernoulli(0.1)) b = std::numeric_limits<T>::max();
    if (rng.Bernoulli(0.1)) b = a;  // point query
    SCOPED_TRACE(q);
    ExpectSelect(r, values, start, len, a, b);
  }
  // Inverted bounds select nothing.
  if (n > 1) {
    std::vector<uint32_t> out(n);
    EXPECT_EQ(r.SelectBetween(0, n, T(1), T(0), out.data()), 0u);
  }
}

template <typename T>
std::vector<T> PForData(size_t n, int b, T base, double exc_rate,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  using U = std::make_unsigned_t<T>;
  const uint32_t mc = MaxCode(b);
  for (size_t i = 0; i < n; i++) {
    if (rng.Bernoulli(exc_rate)) {
      v[i] = T(U(base) + U(mc) + U(1 + rng.Uniform(1000)));
    } else {
      v[i] = T(U(base) + U(rng.Uniform(uint64_t(mc) + 1)));
    }
  }
  return v;
}

struct PForCase {
  size_t n;
  int b;
  double rate;
  bool summaries;
};

class PushdownPFor : public ::testing::TestWithParam<PForCase> {};

TEST_P(PushdownPFor, MatchesDecodeInt64) {
  auto [n, b, rate, summaries] = GetParam();
  auto in = PForData<int64_t>(n, b, int64_t(-500), rate, 31 * n + b);
  SegmentBuildOptions opts;
  opts.with_summaries = summaries;
  auto seg = SegmentBuilder<int64_t>::BuildPFor(
      in, PForParams<int64_t>{b, -500}, opts);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  CheckSelectDifferential(seg.ValueOrDie(), in, n + b);
}

// gtest names each case by a byte dump of its PForCase, padding included.
// Static storage keeps that padding zero, so the names are the same in every
// process; cases built on the stack carry whatever bytes were left there.
constexpr PForCase kSweep[] = {
    {1, 8, 0.0, true},       {127, 8, 0.2, true},  {128, 8, 0.2, true},
    {129, 8, 0.2, false},    {1000, 3, 0.0, true}, {5000, 8, 0.1, true},
    {5000, 8, 0.1, false},   {3000, 12, 0.5, true},
    {4096, 1, 0.05, true},   {2000, 27, 0.1, true},  // wide select kernels
    {2000, 31, 0.1, true},   {1000, 0, 0.3, true}, {65536, 16, 0.01, true}};

INSTANTIATE_TEST_SUITE_P(Sweep, PushdownPFor, ::testing::ValuesIn(kSweep));

TEST(Pushdown, PForNarrowTypesDecodeFallback) {
  // sizeof(T) < 4 never takes the code-interval kernel; still exact.
  auto in16 = PForData<int16_t>(3000, 7, int16_t(-100), 0.1, 77);
  auto seg16 = SegmentBuilder<int16_t>::BuildPFor(
      in16, PForParams<int16_t>{7, -100});
  ASSERT_TRUE(seg16.ok());
  CheckSelectDifferential(seg16.ValueOrDie(), in16, 16);

  std::vector<int8_t> in8(2000);
  Rng rng(5);
  for (auto& v : in8) v = int8_t(rng.Uniform(64)) - 32;
  auto seg8 = SegmentBuilder<int8_t>::BuildPFor(in8, PForParams<int8_t>{6, -32});
  ASSERT_TRUE(seg8.ok());
  CheckSelectDifferential(seg8.ValueOrDie(), in8, 8);
}

TEST(Pushdown, PForWrappingFrameFallsBackToDecode) {
  // Base near the type max: base + code wraps int32 ordering, so the
  // code-interval translation is invalid and the reader must decode.
  const int32_t base = std::numeric_limits<int32_t>::max() - 10;
  auto in = PForData<int32_t>(4000, 8, base, 0.05, 99);
  auto seg = SegmentBuilder<int32_t>::BuildPFor(
      in, PForParams<int32_t>{8, base});
  ASSERT_TRUE(seg.ok());
  CheckSelectDifferential(seg.ValueOrDie(), in, 32);
}

TEST(Pushdown, PForUnsignedFullWidth) {
  auto in = PForData<uint32_t>(3000, 20, 0u, 0.1, 123);
  auto seg = SegmentBuilder<uint32_t>::BuildPFor(in, PForParams<uint32_t>{20, 0});
  ASSERT_TRUE(seg.ok());
  CheckSelectDifferential(seg.ValueOrDie(), in, 20);
}

TEST(Pushdown, PForDeltaMatchesDecode) {
  // Mostly-sorted data with jumps: classic PFOR-DELTA shape (always the
  // decode fallback per group, but summaries still skip/accept groups).
  Rng rng(11);
  std::vector<int64_t> in(6000);
  int64_t acc = 0;
  for (auto& v : in) {
    acc += int64_t(rng.Uniform(20));
    if (rng.Bernoulli(0.02)) acc += int64_t(rng.Uniform(1 << 20));
    v = acc;
  }
  auto seg = SegmentBuilder<int64_t>::BuildPForDelta(
      in, PForParams<int64_t>{5, 0});
  ASSERT_TRUE(seg.ok());
  CheckSelectDifferential(seg.ValueOrDie(), in, 44);
}

TEST(Pushdown, PDictSmallDictUsesQualTable) {
  Rng rng(21);
  std::vector<int64_t> dict;
  for (int i = 0; i < 300; i++) dict.push_back(int64_t(i) * 37 - 4000);
  std::vector<int64_t> in(8000);
  for (auto& v : in) {
    v = rng.Bernoulli(0.08) ? int64_t(rng.Next() % 100000)  // exception
                            : dict[rng.Uniform(dict.size())];
  }
  auto seg = SegmentBuilder<int64_t>::BuildPDict(
      in, PDictParams<int64_t>{9, dict});
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  CheckSelectDifferential(seg.ValueOrDie(), in, 21);
}

TEST(Pushdown, PDictOversizedDictDecodes) {
  // > 512 dictionary entries exceeds the qualifying-table budget.
  Rng rng(22);
  std::vector<int32_t> dict;
  for (int i = 0; i < 600; i++) dict.push_back(i * 13 - 3000);
  std::vector<int32_t> in(6000);
  for (auto& v : in) v = dict[rng.Uniform(dict.size())];
  auto seg = SegmentBuilder<int32_t>::BuildPDict(
      in, PDictParams<int32_t>{10, dict});
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  CheckSelectDifferential(seg.ValueOrDie(), in, 22);
}

TEST(Pushdown, UncompressedScalarPath) {
  Rng rng(23);
  std::vector<int64_t> in(3000);
  for (auto& v : in) v = int64_t(rng.Next());
  auto seg = SegmentBuilder<int64_t>::BuildUncompressed(in);
  ASSERT_TRUE(seg.ok());
  CheckSelectDifferential(seg.ValueOrDie(), in, 23);
}

// ---------------------------------------------------------------------------
// Windows cut at group and vector edges. The random windows above rarely
// start or end exactly beside a 128-value group boundary or a 1024-value
// vector boundary; these windows start and end at every such edge, and
// every edge slot holds an exception.

constexpr size_t kEdgeN = 3000;
constexpr size_t kEdges[] = {127,  128,  129,  1023, 1024,
                             1025, 2047, 2048, 2049};

// Runs every edge window under each [lo, hi] predicate.
template <typename T>
void CheckEdgeWindows(const AlignedBuffer& seg, const std::vector<T>& values,
                      std::initializer_list<std::pair<T, T>> preds) {
  auto reader = SegmentReader<T>::Open(seg.data(), seg.size());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const auto& r = reader.ValueOrDie();
  if (r.scheme() != Scheme::kUncompressed) {
    ASSERT_GE(r.exception_count(), std::size(kEdges));
  }
  for (size_t a : kEdges) {
    std::vector<std::pair<size_t, size_t>> windows = {
        {a, a + 1}, {a, kEdgeN}, {0, a}};
    for (size_t b : kEdges) {
      if (a < b) windows.push_back({a, b});
    }
    for (auto [from, to] : windows) {
      for (auto [lo, hi] : preds) {
        ExpectSelect(r, values, from, to - from, lo, hi);
      }
    }
  }
}

TEST(PushdownEdges, PFor) {
  // b = 8: the frame is [base, base + 255], every edge slot an exception
  // above it.
  const int64_t base = -500;
  auto in = PForData<int64_t>(kEdgeN, 8, base, 0.05, 7);
  for (size_t p : kEdges) in[p] = base + 256 + int64_t(p);
  for (bool summaries : {false, true}) {
    SCOPED_TRACE(summaries);
    SegmentBuildOptions opts;
    opts.with_summaries = summaries;
    auto seg = SegmentBuilder<int64_t>::BuildPFor(
        in, PForParams<int64_t>{8, base}, opts);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    CheckEdgeWindows<int64_t>(seg.ValueOrDie(), in,
                              {{base, base + 3000},
                               {base + 256, base + 3000},  // exceptions only
                               {base, base + 255},         // frame only
                               {base + 100, base + 256 + 1024}});
  }
}

TEST(PushdownEdges, CutGroupWritesOnlyTheWindow) {
  // Every slot but one qualifies and there are no exceptions: a window
  // that cuts the group must not emit the qualifying slots after it past
  // `out`'s n entries (ExpectSelect's buffer is exact; ASan sees a write).
  std::vector<int64_t> in(128, 5);
  in[120] = 200;
  SegmentBuildOptions opts;
  opts.with_summaries = false;
  auto seg = SegmentBuilder<int64_t>::BuildPFor(
      in, PForParams<int64_t>{8, 0}, opts);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  auto r = SegmentReader<int64_t>::Open(seg.ValueOrDie().data(),
                                        seg.ValueOrDie().size());
  ASSERT_TRUE(r.ok());
  ExpectSelect(r.ValueOrDie(), in, 0, 100, int64_t(0), int64_t(10));
}

TEST(PushdownEdges, PDict) {
  std::vector<int64_t> dict;
  for (int i = 0; i < 300; i++) dict.push_back(int64_t(i) * 37 - 4000);
  Rng rng(3);
  std::vector<int64_t> in(kEdgeN);
  for (auto& v : in) v = dict[rng.Uniform(dict.size())];
  for (size_t p : kEdges) in[p] = 50000 + int64_t(p);  // not in the dict
  for (bool summaries : {false, true}) {
    SCOPED_TRACE(summaries);
    SegmentBuildOptions opts;
    opts.with_summaries = summaries;
    auto seg = SegmentBuilder<int64_t>::BuildPDict(
        in, PDictParams<int64_t>{9, dict}, opts);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    CheckEdgeWindows<int64_t>(seg.ValueOrDie(), in,
                              {{-4000, 60000},
                               {50000, 60000},  // exceptions only
                               {-4000, 7063},   // dictionary only
                               {0, 51024}});
  }
}

TEST(PushdownEdges, PForDeltaAndUncompressed) {
  // PFOR-DELTA decodes per group and uncompressed selects scalar; both
  // must honour the same cut windows.
  Rng rng(4);
  std::vector<int64_t> in(kEdgeN);
  int64_t acc = 0;
  for (size_t i = 0; i < kEdgeN; i++) {
    acc += int64_t(rng.Uniform(20));
    // A delta past 5 bits on every edge slot: an exception.
    if (std::count(std::begin(kEdges), std::end(kEdges), i)) acc += 1 << 20;
    in[i] = acc;
  }
  auto delta = SegmentBuilder<int64_t>::BuildPForDelta(
      in, PForParams<int64_t>{5, 0});
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  const std::initializer_list<std::pair<int64_t, int64_t>> preds = {
      {in.front(), in.back()},
      {in[128], in[1024]},
      {in[1023], in[1023]},
      {in[129], in[2048]}};
  CheckEdgeWindows<int64_t>(delta.ValueOrDie(), in, preds);
  auto raw = SegmentBuilder<int64_t>::BuildUncompressed(in);
  ASSERT_TRUE(raw.ok());
  CheckEdgeWindows<int64_t>(raw.ValueOrDie(), in, preds);
}

// ---------------------------------------------------------------------------
// Summary-section format validation.

TEST(PushdownFormat, SummariesPresentByDefaultAndSkippable) {
  std::vector<int64_t> in(1000, 7);
  auto with = SegmentBuilder<int64_t>::BuildPFor(in, PForParams<int64_t>{3, 0});
  ASSERT_TRUE(with.ok());
  SegmentBuildOptions opts;
  opts.with_summaries = false;
  auto without = SegmentBuilder<int64_t>::BuildPFor(
      in, PForParams<int64_t>{3, 0}, opts);
  ASSERT_TRUE(without.ok());
  auto r1 = SegmentReader<int64_t>::Open(with.ValueOrDie().data(),
                                         with.ValueOrDie().size());
  auto r2 = SegmentReader<int64_t>::Open(without.ValueOrDie().data(),
                                         without.ValueOrDie().size());
  EXPECT_TRUE(r1.ValueOrDie().has_summaries());
  EXPECT_FALSE(r2.ValueOrDie().has_summaries());
  EXPECT_GT(with.ValueOrDie().size(), without.ValueOrDie().size());
}

AlignedBuffer PatchHeader(const AlignedBuffer& orig,
                          void (*mutate)(SegmentHeader*)) {
  AlignedBuffer copy = orig;
  SegmentHeader hdr;
  std::memcpy(&hdr, copy.data(), sizeof(hdr));
  mutate(&hdr);
  std::memcpy(copy.data(), &hdr, sizeof(hdr));
  return copy;
}

TEST(PushdownFormat, BadSummaryFieldsRejected) {
  std::vector<int32_t> in(1000);
  for (size_t i = 0; i < in.size(); i++) in[i] = int32_t(i % 100);
  SegmentBuildOptions opts;
  opts.with_checksums = false;  // isolate structural validation
  auto seg = SegmentBuilder<int32_t>::BuildPFor(
      in, PForParams<int32_t>{7, 0}, opts);
  ASSERT_TRUE(seg.ok());
  const AlignedBuffer& good = seg.ValueOrDie();
  ASSERT_TRUE(SegmentReader<int32_t>::Open(good.data(), good.size()).ok());

  auto expect_reject = [&](AlignedBuffer bad, const char* what) {
    auto r = SegmentReader<int32_t>::Open(bad.data(), bad.size());
    EXPECT_FALSE(r.ok()) << what;
  };
  expect_reject(PatchHeader(good, [](SegmentHeader* h) {
                  h->summary_reserved = 1;
                }),
                "nonzero reserved word");
  expect_reject(PatchHeader(good, [](SegmentHeader* h) {
                  h->summary_offset += 1;  // breaks value-size alignment
                }),
                "unaligned summary_offset");
  expect_reject(PatchHeader(good, [](SegmentHeader* h) {
                  h->summary_offset = h->entries_offset;  // inside entries
                }),
                "summary overlaps entry points");
  expect_reject(PatchHeader(good, [](SegmentHeader* h) {
                  h->summary_offset = h->codes_offset;  // runs past codes
                }),
                "summary section past codes_offset");

  // Uncompressed segments must not claim a summary section at all.
  auto raw = SegmentBuilder<int32_t>::BuildUncompressed(in, opts);
  ASSERT_TRUE(raw.ok());
  expect_reject(PatchHeader(raw.ValueOrDie(), [](SegmentHeader* h) {
                  h->summary_offset = 64;
                }),
                "summary on uncompressed segment");
}

// ---------------------------------------------------------------------------
// Scan-level: pushdown must be invisible in results.

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

// Runs the scan with pushdown on `b` and compares selections + selected
// values against a plain scan filtered after decode.
void CheckScanPushdown(TableScanOp::Mode mode, int64_t lo, int64_t hi) {
  const size_t rows = 50000;
  Table t = MakeTable(rows);
  SimDisk d1, d2;
  BufferManager bm1(&d1, 1u << 30, Layout::kDSM);
  BufferManager bm2(&d2, 1u << 30, Layout::kDSM);
  TableScanOp pushed(&t, &bm1, {"b", "a", "c"}, mode);
  pushed.SetPushdownBetween("b", lo, hi);
  TableScanOp plain(&t, &bm2, {"b", "a", "c"}, mode);
  Batch pb, qb;
  SelVec want;
  size_t total = 0, matched = 0;
  while (true) {
    const size_t n1 = pushed.Next(&pb);
    const size_t n2 = plain.Next(&qb);
    ASSERT_EQ(n1, n2);
    if (n1 == 0) break;
    SelectBetween(qb.col(0)->data<int64_t>(), n2, lo, hi, &want);
    const SelVec& got = pushed.selection();
    ASSERT_EQ(want.count, got.count);
    for (size_t k = 0; k < want.count; k++) {
      const uint32_t i = want.idx[k];
      ASSERT_EQ(got.idx[k], i);
      // The pushdown batch contract: columns are valid at selected rows.
      ASSERT_EQ(pb.col(0)->data<int64_t>()[i], qb.col(0)->data<int64_t>()[i]);
      ASSERT_EQ(pb.col(1)->data<int64_t>()[i], qb.col(1)->data<int64_t>()[i]);
      ASSERT_EQ(pb.col(2)->data<int32_t>()[i], qb.col(2)->data<int32_t>()[i]);
    }
    total += n1;
    matched += want.count;
  }
  EXPECT_EQ(total, rows);
  EXPECT_GT(matched, 0u);
  EXPECT_LT(matched, rows);
}

TEST(ScanPushdown, VectorWiseMatchesPlainScan) {
  CheckScanPushdown(TableScanOp::Mode::kVectorWise, 5100, 5400);
}

TEST(ScanPushdown, PageWiseMatchesPlainScan) {
  CheckScanPushdown(TableScanOp::Mode::kPageWise, 5100, 5400);
}

TEST(ScanPushdown, EmptyAndFullRanges) {
  const size_t rows = 20000;
  Table t = MakeTable(rows);
  SimDisk disk;
  BufferManager bm(&disk, 1u << 30, Layout::kDSM);
  {
    TableScanOp scan(&t, &bm, {"b"});
    scan.SetPushdownBetween("b", 10, 20);  // below the data: empty
    Batch batch;
    size_t total = 0, sel = 0;
    while (size_t n = scan.Next(&batch)) {
      total += n;
      sel += scan.selection().count;
    }
    EXPECT_EQ(total, rows);
    EXPECT_EQ(sel, 0u);
  }
  {
    TableScanOp scan(&t, &bm, {"b"});
    scan.SetPushdownBetween("b", std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max());
    Batch batch;
    size_t sel = 0;
    while (scan.Next(&batch)) sel += scan.selection().count;
    EXPECT_EQ(sel, rows);  // all-qualify: every row selected
  }
}

TEST(ScanPushdown, ParallelScanMatchesSerial) {
  const size_t rows = 60000;
  Table t = MakeTable(rows);
  const int64_t lo = 5100, hi = 5400;

  // Serial reference: sum of `a` over qualifying rows.
  SimDisk d1;
  BufferManager bm1(&d1, 1u << 30, Layout::kDSM);
  TableScanOp ref(&t, &bm1, {"b", "a"});
  ref.SetPushdownBetween("b", lo, hi);
  Batch batch;
  int64_t want_sum = 0;
  size_t want_cnt = 0;
  while (ref.Next(&batch)) {
    const SelVec& sel = ref.selection();
    const int64_t* a = batch.col(1)->data<int64_t>();
    for (size_t k = 0; k < sel.count; k++) want_sum += a[sel.idx[k]];
    want_cnt += sel.count;
  }
  ASSERT_GT(want_cnt, 0u);

  for (unsigned threads : {1u, 4u}) {
    SimDisk d2;
    BufferManager bm2(&d2, 1u << 30, Layout::kDSM);
    ParallelScan::Options opt;
    opt.threads = threads;
    ParallelScan scan(&t, &bm2, {"b", "a"}, opt);
    scan.SetPushdownBetween("b", lo, hi);
    std::vector<int64_t> sums(scan.slot_count(), 0);
    std::vector<size_t> cnts(scan.slot_count(), 0);
    Status st = scan.Run([&](const Batch& b, size_t /*morsel*/, size_t slot) {
      const SelVec& sel = scan.selection(slot);
      const int64_t* a = b.col(1)->data<int64_t>();
      for (size_t k = 0; k < sel.count; k++) sums[slot] += a[sel.idx[k]];
      cnts[slot] += sel.count;
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    int64_t got_sum = 0;
    size_t got_cnt = 0;
    for (size_t s = 0; s < sums.size(); s++) {
      got_sum += sums[s];
      got_cnt += cnts[s];
    }
    EXPECT_EQ(want_sum, got_sum) << "threads=" << threads;
    EXPECT_EQ(want_cnt, got_cnt) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace scc
