#include "storage/buffer_manager.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/bitpack_dispatch.h"
#include "core/codec_metrics.h"
#include "exec/parallel_scan.h"
#include "storage/sim_disk.h"
#include "storage/table.h"
#include "storage/tier_cache.h"
#include "sys/telemetry.h"
#include "tpch/queries.h"
#include "util/rng.h"

// Tiered buffer manager battery (docs/STORAGE_TIERS.md). Three families:
//
//  * Differential — every tier configuration must be INVISIBLE to query
//    results: scans and point reads over a tiered manager produce
//    checksums identical to the untiered baseline across tier-capacity
//    grids, thread counts, forced kernel ISAs, and the TPC-H Q1/Q6 plans
//    at a DRAM tier capped to 25% of the dataset. Tiers change where
//    time is charged, never what a query returns.
//  * Property — the policy invariants: pinned pages are never demoted,
//    a point-read fault decodes at most one 128-value entry group
//    (pinned via the codec.*.decode.values delta), and per-tier
//    promotion/eviction flows balance the residency gauges.
//  * TierCache — the one LRU under all three tiers, on its own: global
//    victim order across shards, pins, duplicate inserts, and counters
//    that survive Clear() while ResetStats() keeps the entries.

namespace scc {
namespace {

struct TestData {
  Table t;
  std::vector<int64_t> a, b;
  std::vector<int32_t> c;
};

TestData MakeData(size_t rows, size_t chunk_values = 8192) {
  TestData d{Table(chunk_values), {}, {}, {}};
  Rng rng(42);
  d.a.resize(rows);
  d.b.resize(rows);
  d.c.resize(rows);
  for (size_t i = 0; i < rows; i++) {
    d.a[i] = int64_t(i);                         // monotone -> PFOR-DELTA
    d.b[i] = 5000 + int64_t(rng.Uniform(1000));  // clustered -> PFOR
    d.c[i] = int32_t(rng.Uniform(4));            // tiny domain -> PDICT
  }
  SCC_CHECK(
      d.t.AddColumn<int64_t>("a", d.a, ColumnCompression::kAuto).ok(), "a");
  SCC_CHECK(
      d.t.AddColumn<int64_t>("b", d.b, ColumnCompression::kAuto).ok(), "b");
  SCC_CHECK(
      d.t.AddColumn<int32_t>("c", d.c, ColumnCompression::kAuto).ok(), "c");
  return d;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Order-independent, position-aware digest of a 3-column scan: each
/// (row, column, value) triple hashes to one term of a commutative sum,
/// so unordered morsel delivery cannot change the result but any value
/// at any position can.
uint64_t ScanChecksum(const Table& t, BufferManager* bm, unsigned threads) {
  ParallelScan::Options opt;
  opt.threads = threads;
  ParallelScan scan(&t, bm, {"a", "b", "c"}, opt);
  struct Slot {
    uint64_t sum = 0;
    size_t morsel = SIZE_MAX;
    size_t off = 0;
    char pad[40];  // keep slots on separate cache lines
  };
  std::vector<Slot> slots(scan.slot_count());
  Status st = scan.Run([&](const Batch& batch, size_t morsel, size_t slot) {
    Slot& s = slots[slot];
    // Vectors of one morsel arrive in order on the slot that claimed it.
    if (s.morsel != morsel) {
      s.morsel = morsel;
      s.off = 0;
    }
    const size_t base = morsel * t.chunk_values() + s.off;
    const int64_t* a = batch.col(0)->data<int64_t>();
    const int64_t* b = batch.col(1)->data<int64_t>();
    const int32_t* c = batch.col(2)->data<int32_t>();
    for (size_t i = 0; i < batch.rows; i++) {
      const uint64_t row = base + i;
      s.sum += Mix64(row ^ uint64_t(a[i]) << 1);
      s.sum += Mix64(row ^ uint64_t(b[i]) << 1 ^ (uint64_t(1) << 60));
      s.sum += Mix64(row ^ uint64_t(uint32_t(c[i])) << 1 ^
                     (uint64_t(2) << 60));
    }
    s.off += batch.rows;
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  uint64_t sum = 0;
  for (const Slot& s : slots) sum += s.sum;
  return sum;
}

uint64_t TotalDecodeValues() {
  uint64_t total = 0;
  CodecMetrics& cm = CodecMetrics::Get();
  for (size_t s = 0; s < CodecMetrics::kSchemes; s++) {
    total += cm.decode_values[s]->Value();
  }
  return total;
}

TEST(TieredBM, DefaultConfigMatchesSingleTierAccounting) {
  TestData d = MakeData(50000);
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);
  (void)ScanChecksum(d.t, &bm, 2);
  // No tiers configured: the SSD tier never sees traffic, and the cold
  // device's accounting equals the manager's, like it always did.
  EXPECT_EQ(bm.bytes_read(), disk.bytes_read());
  const BufferManager::TierStats ssd =
      bm.tier_stats(BufferManager::CacheTier::kSsd);
  EXPECT_EQ(ssd.hits + ssd.misses + ssd.promotions + ssd.evictions, 0u);
  EXPECT_EQ(bm.ssd_disk()->read_count() + bm.ssd_disk()->write_count(), 0u);
}

TEST(TieredBM, ScanAndPointReadDifferentialAcrossTierGrids) {
  TestData d = MakeData(60000);
  const size_t bytes = d.t.ByteSize();
  SimDisk base_disk;
  BufferManager base(&base_disk, size_t(1) << 30, Layout::kDSM);
  const uint64_t want = ScanChecksum(d.t, &base, 1);

  const size_t hot_caps[] = {0, 8u << 10, size_t(1) << 24};  // 0/tiny/>>data
  const size_t dram_caps[] = {bytes / 16, bytes / 4, size_t(1) << 30};
  const size_t ssd_caps[] = {bytes / 8, 4 * bytes};  // thrashing / roomy
  for (size_t hot : hot_caps) {
    for (size_t dram : dram_caps) {
      for (size_t ssd : ssd_caps) {
        for (unsigned threads : {1u, 2u, 8u}) {
          SimDisk disk;
          BufferManager::TierConfig tc;
          tc.hot_capacity_bytes = hot;
          tc.ssd_capacity_bytes = ssd;
          BufferManager bm(&disk, dram, Layout::kDSM, tc);
          ASSERT_EQ(ScanChecksum(d.t, &bm, threads), want)
              << "hot=" << hot << " dram=" << dram << " ssd=" << ssd
              << " threads=" << threads;
          // Second pass re-faults through whatever tier now holds each
          // page (SSD at the tiny DRAM points) — still identical.
          ASSERT_EQ(ScanChecksum(d.t, &bm, threads), want)
              << "warm pass, hot=" << hot << " dram=" << dram
              << " ssd=" << ssd << " threads=" << threads;
          Rng rng(7 + threads);
          for (int i = 0; i < 200; i++) {
            const size_t row = size_t(rng.Uniform(d.a.size()));
            Result<int64_t> va =
                bm.ReadValue<int64_t>(&d.t, d.t.column("a"), row);
            ASSERT_TRUE(va.ok()) << va.status().ToString();
            ASSERT_EQ(va.ValueOrDie(), d.a[row]);
            Result<int32_t> vc =
                bm.ReadValue<int32_t>(&d.t, d.t.column("c"), row);
            ASSERT_TRUE(vc.ok()) << vc.status().ToString();
            ASSERT_EQ(vc.ValueOrDie(), d.c[row]);
          }
        }
      }
    }
  }
}

TEST(TieredBM, DifferentialHoldsUnderEveryKernelIsa) {
  TestData d = MakeData(40000);
  const size_t bytes = d.t.ByteSize();
  for (KernelIsa isa : SupportedKernelIsas()) {
    ScopedKernelIsa forced(isa);
    SimDisk base_disk;
    BufferManager base(&base_disk, size_t(1) << 30, Layout::kDSM);
    const uint64_t want = ScanChecksum(d.t, &base, 1);
    SimDisk disk;
    BufferManager::TierConfig tc;
    tc.hot_capacity_bytes = 64u << 10;
    tc.ssd_capacity_bytes = 4 * bytes;
    BufferManager bm(&disk, bytes / 4, Layout::kDSM, tc);
    EXPECT_EQ(ScanChecksum(d.t, &bm, 2), want) << "isa=" << int(isa);
    Rng rng(13);
    for (int i = 0; i < 100; i++) {
      const size_t row = size_t(rng.Uniform(d.b.size()));
      Result<int64_t> v = bm.ReadValue<int64_t>(&d.t, d.t.column("b"), row);
      ASSERT_TRUE(v.ok());
      ASSERT_EQ(v.ValueOrDie(), d.b[row]) << "isa=" << int(isa);
    }
  }
}

TEST(TieredBM, PointReadFaultDecodesExactlyOneEntryGroup) {
  TestData d = MakeData(20000);
  const StoredColumn* col = d.t.column("b");
  ASSERT_TRUE(col->compressed);
  SimDisk disk;
  BufferManager::TierConfig tc;
  tc.hot_capacity_bytes = 1u << 20;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM, tc);

  // Cold point read: faults the compressed page AND decodes — but only
  // the enclosing 128-value entry group, never the whole chunk. This is
  // the acceptance criterion: the codec decode counter moves by exactly
  // kEntryGroup for an interior group.
  const size_t row = 1000;  // group 7 of chunk 0 — a full interior group
  uint64_t before = TotalDecodeValues();
  Result<int64_t> v = bm.ReadValue<int64_t>(&d.t, col, row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.ValueOrDie(), d.b[row]);
#if SCC_TELEMETRY
  // Counter deltas are compiled out with -DSCC_TELEMETRY=0; the hot-tier
  // stats below (per-instance atomics) still pin the caching behavior.
  EXPECT_EQ(TotalDecodeValues() - before, kEntryGroup);
#endif

  // Hot hit on a neighbor in the same group: zero further decode work.
  before = TotalDecodeValues();
  v = bm.ReadValue<int64_t>(&d.t, col, row + 1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.ValueOrDie(), d.b[row + 1]);
#if SCC_TELEMETRY
  EXPECT_EQ(TotalDecodeValues() - before, 0u);
#endif

  const BufferManager::TierStats hot =
      bm.tier_stats(BufferManager::CacheTier::kHot);
  EXPECT_EQ(hot.misses, 1u);
  EXPECT_EQ(hot.hits, 1u);
  EXPECT_EQ(hot.promotions, 1u);
  EXPECT_EQ(hot.resident_entries, 1u);
  EXPECT_EQ(hot.resident_bytes, kEntryGroup * sizeof(int64_t));

  // With the hot tier disabled, every point read still decodes at most
  // one group (bounded, not cached).
  BufferManager bare(&disk, size_t(1) << 30, Layout::kDSM);
  before = TotalDecodeValues();
  v = bare.ReadValue<int64_t>(&d.t, col, row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.ValueOrDie(), d.b[row]);
#if SCC_TELEMETRY
  EXPECT_LE(TotalDecodeValues() - before, kEntryGroup);
#endif
  (void)before;  // read only in the SCC_TELEMETRY branches above
}

TEST(TieredBM, PinnedPagesAreNeverDemoted) {
  TestData d = MakeData(90000);  // 11 chunks per column
  const StoredColumn* col = d.t.column("a");
  const size_t one_chunk = col->chunks[0].size();
  SimDisk disk;
  BufferManager::TierConfig tc;
  tc.ssd_capacity_bytes = size_t(1) << 30;
  BufferManager bm(&disk, 2 * one_chunk + one_chunk / 2, Layout::kDSM, tc);

  Result<BufferManager::PageGuard> pinned = bm.FetchPinned(&d.t, col, 0);
  ASSERT_TRUE(pinned.ok());
  const AlignedBuffer* page = pinned.ValueOrDie().page();

  // Storm every other chunk through the 2.5-chunk DRAM tier: plenty of
  // eviction (and demotion) pressure, but never on the pinned page.
  for (int pass = 0; pass < 2; pass++) {
    for (size_t c = 1; c < col->chunk_count(); c++) {
      ASSERT_TRUE(bm.FetchPinned(&d.t, col, c).ok());
    }
  }
  EXPECT_GT(bm.evictions(), 0u);
  EXPECT_GT(bm.tier_stats(BufferManager::CacheTier::kSsd).resident_entries,
            0u);
  EXPECT_FALSE(bm.ssd_resident(col, 0)) << "pinned page was demoted";
  // The pin also kept the page bytes valid throughout.
  EXPECT_EQ(page->size(), one_chunk);

  // Released, the page is an ordinary LRU victim: the next pressure wave
  // demotes it like any other.
  pinned.ValueOrDie().Release();
  for (size_t c = 1; c < col->chunk_count(); c++) {
    ASSERT_TRUE(bm.FetchPinned(&d.t, col, c).ok());
  }
  EXPECT_TRUE(bm.ssd_resident(col, 0));
}

TEST(TieredBM, SsdTierServesRefaultsWithoutColdIO) {
  TestData d = MakeData(90000);
  const StoredColumn* col = d.t.column("a");
  const size_t one_chunk = col->chunks[0].size();
  SimDisk disk;
  BufferManager::TierConfig tc;
  tc.ssd_capacity_bytes = size_t(1) << 30;
  BufferManager bm(&disk, one_chunk + one_chunk / 2, Layout::kDSM, tc);

  // Pass 1: every chunk faults cold; the ~1.5-chunk DRAM tier demotes
  // each victim to flash on eviction.
  for (size_t c = 0; c < col->chunk_count(); c++) {
    ASSERT_TRUE(bm.FetchPinned(&d.t, col, c).ok());
  }
  const size_t cold_reads_after_pass1 = disk.read_count();
  EXPECT_EQ(cold_reads_after_pass1, col->chunk_count());
  EXPECT_GT(bm.ssd_disk()->write_count(), 0u);  // writeback IO happened

  // Pass 2: every fault is served (and charged) by the SSD tier — the
  // cold device never sees another read.
  const size_t ssd_reads_before = bm.ssd_disk()->read_count();
  for (size_t c = 0; c < col->chunk_count(); c++) {
    ASSERT_TRUE(bm.FetchPinned(&d.t, col, c).ok());
  }
  EXPECT_EQ(disk.read_count(), cold_reads_after_pass1);
  EXPECT_GT(bm.ssd_disk()->read_count(), ssd_reads_before);
  const BufferManager::TierStats ssd =
      bm.tier_stats(BufferManager::CacheTier::kSsd);
  EXPECT_GE(ssd.hits, col->chunk_count() - 1);
  // Simulated time moved on the SSD device too, at its own (faster) rate.
  EXPECT_GT(bm.ssd_disk()->io_seconds(), 0.0);
  EXPECT_LT(bm.ssd_disk()->io_seconds(), disk.io_seconds());
}

TEST(TieredBM, TierCountersBalanceResidencyGauges) {
  TestData d = MakeData(60000);
  const size_t bytes = d.t.ByteSize();
  SimDisk disk;
  BufferManager::TierConfig tc;
  tc.hot_capacity_bytes = 16u << 10;  // small: forces hot-tier eviction
  tc.ssd_capacity_bytes = bytes / 2;  // forces SSD-tier eviction too
  BufferManager bm(&disk, bytes / 8, Layout::kDSM, tc);

  (void)ScanChecksum(d.t, &bm, 2);
  (void)ScanChecksum(d.t, &bm, 2);
  Rng rng(99);
  for (int i = 0; i < 2000; i++) {
    const size_t row = size_t(rng.Uniform(d.b.size()));
    ASSERT_TRUE(bm.ReadValue<int64_t>(&d.t, d.t.column("b"), row).ok());
  }

  for (BufferManager::CacheTier t :
       {BufferManager::CacheTier::kHot, BufferManager::CacheTier::kDram,
        BufferManager::CacheTier::kSsd}) {
    const BufferManager::TierStats s = bm.tier_stats(t);
    ASSERT_GE(s.promotions, s.evictions) << "tier " << int(t);
    EXPECT_EQ(s.promotions - s.evictions, s.resident_entries)
        << "tier " << int(t);
    EXPECT_GT(s.promotions, 0u) << "tier " << int(t);
  }
  // Writeback flow balances the SSD tier's intake: every successful
  // demotion is an SSD promotion, every failure is accounted.
  const BufferManager::TierStats dram =
      bm.tier_stats(BufferManager::CacheTier::kDram);
  const BufferManager::TierStats ssd =
      bm.tier_stats(BufferManager::CacheTier::kSsd);
  EXPECT_EQ(ssd.promotions, dram.writebacks - dram.writeback_failures);
  EXPECT_EQ(bm.ssd_disk()->write_count(), dram.writebacks);
}

TEST(TieredBM, ConcurrentStormKeepsCountersCoherent) {
  TestData d = MakeData(60000);
  const size_t bytes = d.t.ByteSize();
  SimDisk disk;
  BufferManager::TierConfig tc;
  tc.hot_capacity_bytes = 32u << 10;
  tc.ssd_capacity_bytes = bytes;
  BufferManager bm(&disk, bytes / 8, Layout::kDSM, tc);

  constexpr int kThreads = 8;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ti++) {
    threads.emplace_back([&, ti] {
      Rng rng(1000 + ti);
      for (int i = 0; i < 400; i++) {
        const size_t row = size_t(rng.Uniform(d.a.size()));
        const size_t chunk = row / d.t.chunk_values();
        if (i % 3 == 0) {
          Result<int64_t> v =
              bm.ReadValue<int64_t>(&d.t, d.t.column("a"), row);
          if (!v.ok() || v.ValueOrDie() != d.a[row]) failed.store(true);
        } else {
          Result<BufferManager::PageGuard> g =
              bm.FetchPinned(&d.t, d.t.column("b"), chunk);
          if (!g.ok() || g.ValueOrDie()->size() == 0) failed.store(true);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  for (BufferManager::CacheTier t :
       {BufferManager::CacheTier::kHot, BufferManager::CacheTier::kDram,
        BufferManager::CacheTier::kSsd}) {
    const BufferManager::TierStats s = bm.tier_stats(t);
    ASSERT_GE(s.promotions, s.evictions) << "tier " << int(t);
    EXPECT_EQ(s.promotions - s.evictions, s.resident_entries)
        << "tier " << int(t);
  }
  const BufferManager::TierStats dram =
      bm.tier_stats(BufferManager::CacheTier::kDram);
  const BufferManager::TierStats ssd =
      bm.tier_stats(BufferManager::CacheTier::kSsd);
  EXPECT_EQ(ssd.promotions, dram.writebacks - dram.writeback_failures);
  EXPECT_EQ(bm.ssd_disk()->write_count(), dram.writebacks);
}

// Eight threads thrash one column through a 1.5-chunk DRAM tier over a
// 3-chunk SSD tier, so two evictions of the same page often demote it at
// once. Every writeback must end as an SSD promotion or a failure.
TEST(TieredBM, ConcurrentDemotionsBalanceWritebacks) {
  TestData d = MakeData(90000);  // 11 chunks per column
  const StoredColumn* col = d.t.column("a");
  const size_t one_chunk = col->chunks[0].size();
  SimDisk disk;
  BufferManager::TierConfig tc;
  tc.ssd_capacity_bytes = 3 * one_chunk;
  BufferManager bm(&disk, one_chunk + one_chunk / 2, Layout::kDSM, tc);

  constexpr int kThreads = 8;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ti++) {
    threads.emplace_back([&, ti] {
      Rng rng(2000 + ti);
      for (int i = 0; i < 3000; i++) {
        const size_t chunk = size_t(rng.Uniform(col->chunk_count()));
        Result<BufferManager::PageGuard> g = bm.FetchPinned(&d.t, col, chunk);
        if (!g.ok() || g.ValueOrDie()->size() != col->chunks[chunk].size()) {
          failed.store(true);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  const BufferManager::TierStats dram =
      bm.tier_stats(BufferManager::CacheTier::kDram);
  const BufferManager::TierStats ssd =
      bm.tier_stats(BufferManager::CacheTier::kSsd);
  EXPECT_GT(dram.writebacks, 0u);
  EXPECT_EQ(ssd.promotions, dram.writebacks - dram.writeback_failures);
  EXPECT_EQ(bm.ssd_disk()->write_count(), dram.writebacks);
  for (const BufferManager::TierStats& s : {dram, ssd}) {
    ASSERT_GE(s.promotions, s.evictions);
    EXPECT_EQ(s.promotions - s.evictions, s.resident_entries);
  }
}

// A tier that is not configured counts nothing, per manager or in the
// registry, while the DRAM tier counts as always.
TEST(TieredBM, DisabledTiersCountNothing) {
  TestData d = MakeData(50000);
  const MetricsSnapshot before = MetricsRegistry::Instance().Snapshot();
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);
  (void)ScanChecksum(d.t, &bm, 2);
  Rng rng(5);
  for (int i = 0; i < 200; i++) {
    const size_t row = size_t(rng.Uniform(d.a.size()));
    ASSERT_EQ(bm.ReadValue<int64_t>(&d.t, d.t.column("a"), row).ValueOrDie(),
              d.a[row]);
    ASSERT_EQ(bm.ReadValue<int32_t>(&d.t, d.t.column("c"), row).ValueOrDie(),
              d.c[row]);
  }
  for (BufferManager::CacheTier t :
       {BufferManager::CacheTier::kHot, BufferManager::CacheTier::kSsd}) {
    const BufferManager::TierStats s = bm.tier_stats(t);
    EXPECT_EQ(s.hits + s.misses + s.promotions + s.writebacks +
                  s.writeback_failures + s.evictions + s.resident_bytes +
                  s.resident_entries,
              0u)
        << "tier " << int(t);
  }
  EXPECT_GT(bm.tier_stats(BufferManager::CacheTier::kDram).misses, 0u);

  const MetricsSnapshot after = MetricsRegistry::Instance().Snapshot();
  auto moved = [&](const std::string& name) {
    const MetricEntry* b = before.Find(name);
    const MetricEntry* a = after.Find(name);
    return (a ? a->value : 0) - (b ? b->value : 0);
  };
  for (const MetricEntry& e : after.entries) {
    if (e.name.rfind("storage.tier.hot.", 0) == 0 ||
        e.name.rfind("storage.tier.ssd.", 0) == 0) {
      EXPECT_EQ(moved(e.name), 0) << e.name;
    }
  }
  // The registry is live here (SCC_TELEMETRY builds with metrics on), so
  // the zero deltas above are not vacuous.
  if (TelemetryEnabled()) {
    EXPECT_GT(moved("storage.tier.dram.misses"), 0);
  }
}

#if SCC_TELEMETRY
// storage.tier.<t>.resident_bytes is one process-wide gauge: every live
// manager's tier adds its own deltas to it, and takes what it still
// holds back out when it is destroyed.
TEST(TieredBM, ResidencyGaugeSumsEveryManager) {
  TestData d = MakeData(60000);
  Gauge& dram = MetricsRegistry::Instance().GetGauge(
      "storage.tier.dram.resident_bytes");
  const int64_t before = dram.Value();
  SimDisk disk;
  auto x = std::make_unique<BufferManager>(&disk, d.t.ByteSize() + 1,
                                           Layout::kDSM);
  BufferManager y(&disk, d.t.ByteSize() + 1, Layout::kDSM);
  (void)ScanChecksum(d.t, x.get(), 2);  // every page
  ASSERT_EQ(y.ReadValue<int64_t>(&d.t, d.t.column("b"), 0).ValueOrDie(),
            d.b[0]);  // one page
  const size_t x_bytes = x->resident_bytes();
  const size_t y_bytes = y.resident_bytes();
  ASSERT_GT(y_bytes, 0u);
  ASSERT_GT(x_bytes, y_bytes);
  EXPECT_EQ(dram.Value() - before, int64_t(x_bytes + y_bytes));
  x.reset();
  EXPECT_EQ(dram.Value() - before, int64_t(y_bytes));
}
#endif

TEST(TieredBM, TpchQ1Q6ChecksumsMatchUntieredAt25PctDram) {
  const TpchData data = GenerateTpch(0.01);
  // Small chunks so the 25% DRAM tier actually evicts mid-query.
  const TpchDatabase db =
      TpchDatabase::Build(data, ColumnCompression::kAuto, 1u << 14);
  const size_t bytes = db.ByteSize();

  SimDisk base_disk;
  BufferManager base(&base_disk, size_t(1) << 34, Layout::kDSM);
  for (int q : {1, 6}) {
    const QueryStats serial_want =
        RunTpchQuery(q, db, &base, TableScanOp::Mode::kVectorWise);
    const QueryStats parallel_want =
        RunTpchQuery(q, db, &base, TableScanOp::Mode::kVectorWise, 4);
    ASSERT_EQ(serial_want.checksum, parallel_want.checksum);

    SimDisk disk;
    BufferManager::TierConfig tc;
    tc.hot_capacity_bytes = 1u << 20;
    tc.ssd_capacity_bytes = 4 * bytes;
    BufferManager bm(&disk, bytes / 4, Layout::kDSM, tc);  // 25% of data
    const QueryStats serial =
        RunTpchQuery(q, db, &bm, TableScanOp::Mode::kVectorWise);
    EXPECT_EQ(serial.checksum, serial_want.checksum) << "Q" << q;
    EXPECT_EQ(serial.result_rows, serial_want.result_rows) << "Q" << q;
    const QueryStats parallel =
        RunTpchQuery(q, db, &bm, TableScanOp::Mode::kVectorWise, 4);
    EXPECT_EQ(parallel.checksum, serial_want.checksum) << "Q" << q;
  }

  // Random point lookups through the tiers agree with the untiered
  // baseline value-for-value (digested the same way on both sides).
  const StoredColumn* price = db.lineitem.column("l_extendedprice");
  ASSERT_NE(price, nullptr);
  SimDisk disk;
  BufferManager::TierConfig tc;
  tc.hot_capacity_bytes = 256u << 10;
  tc.ssd_capacity_bytes = 4 * bytes;
  BufferManager tiered(&disk, bytes / 4, Layout::kDSM, tc);
  Rng rng(4242);
  uint64_t want_digest = 0, got_digest = 0;
  for (int i = 0; i < 500; i++) {
    const size_t row = size_t(rng.Uniform(price->rows));
    Result<int64_t> w = base.ReadValue<int64_t>(&db.lineitem, price, row);
    Result<int64_t> g = tiered.ReadValue<int64_t>(&db.lineitem, price, row);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(g.ok());
    want_digest += Mix64(row ^ uint64_t(w.ValueOrDie()) << 1);
    got_digest += Mix64(row ^ uint64_t(g.ValueOrDie()) << 1);
  }
  EXPECT_EQ(got_digest, want_digest);
}

TEST(TieredBM, ReadValueRejectsTypeAndRangeErrors) {
  TestData d = MakeData(10000);
  SimDisk disk;
  BufferManager bm(&disk, size_t(1) << 30, Layout::kDSM);
  // Wrong value type for the column.
  EXPECT_FALSE(bm.ReadValue<int32_t>(&d.t, d.t.column("a"), 0).ok());
  // Row beyond the column.
  EXPECT_FALSE(
      bm.ReadValue<int64_t>(&d.t, d.t.column("a"), d.a.size()).ok());
}

// TierCache on its own, with 1-byte entries so capacity counts entries.
// Keys differ by chunk only, so key i lands in shard i mod shards: every
// check runs across 4 shards and within 1.
class TierCacheTest : public ::testing::TestWithParam<size_t> {
 protected:
  using Cache = TierCache<int>;

  static TierKey K(size_t i) { return TierKey{nullptr, i}; }
  /// MakeSpace + unpinned Insert, recording victims in eviction order.
  void Put(Cache& c, size_t i) {
    c.MakeSpace(1, [&](Cache::Victim&& v) {
      victims_.push_back(v.key.chunk);
    });
    c.Insert(K(i), 1, int(i), /*pin=*/false);
  }

  std::vector<size_t> victims_;
};

TEST_P(TierCacheTest, VictimIsTheGloballyOldestUnpinnedEntry) {
  Cache c(CacheTier::kHot, 4, GetParam());
  for (size_t i = 0; i < 4; i++) Put(c, i);
  EXPECT_TRUE(victims_.empty());
  ASSERT_TRUE(c.Touch(K(0)));
  ASSERT_TRUE(c.Touch(K(2)));  // oldest first: 1, 3, 0, 2
  for (size_t i = 4; i < 7; i++) Put(c, i);
  EXPECT_EQ(victims_, (std::vector<size_t>{1, 3, 0}));
  EXPECT_EQ(c.stats().resident_entries, 4u);
}

TEST_P(TierCacheTest, PinnedEntriesAreNeverVictimsAndAllPinnedOvercommits) {
  Cache c(CacheTier::kHot, 2, GetParam());
  c.MakeSpace(1, [](Cache::Victim&&) {});
  c.Insert(K(0), 1, 0, /*pin=*/true);
  c.MakeSpace(1, [](Cache::Victim&&) {});
  c.Insert(K(1), 1, 1, /*pin=*/true);
  Put(c, 2);  // nothing unpinned to evict: overcommit
  EXPECT_TRUE(victims_.empty());
  EXPECT_EQ(c.stats().resident_bytes, 3u);
  EXPECT_EQ(c.pinned(), 2u);

  c.Unpin(K(0));
  Put(c, 3);  // evicts down to capacity, stepping over pinned K(1)
  EXPECT_EQ(victims_, (std::vector<size_t>{0, 2}));
  EXPECT_TRUE(c.Contains(K(1)));
  EXPECT_EQ(c.stats().resident_bytes, 2u);
}

TEST_P(TierCacheTest, InsertingAPresentKeyReturnsTheLiveEntry) {
  Cache c(CacheTier::kHot, 4, GetParam());
  const auto [live, inserted] = c.Insert(K(0), 1, 7, /*pin=*/false);
  ASSERT_TRUE(inserted);
  const auto [again, inserted_again] = c.Insert(K(0), 1, 9, /*pin=*/true);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again, live);
  EXPECT_EQ(*again, 7);
  EXPECT_EQ(c.pinned(), 1u);
  EXPECT_FALSE(c.Admit(K(0), 1, 9));
  const TierStats s = c.stats();
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_EQ(s.resident_entries, 1u);
  EXPECT_EQ(s.resident_bytes, 1u);
}

TEST_P(TierCacheTest, FlowsBalanceResidencyAfterMixedTraffic) {
  Cache c(CacheTier::kHot, 24, GetParam());
  std::vector<std::thread> threads;
  for (int ti = 0; ti < 4; ti++) {
    threads.emplace_back([&, ti] {
      Rng rng(300 + ti);
      for (int i = 0; i < 2000; i++) {
        const TierKey k = K(size_t(rng.Uniform(64)));
        const size_t bytes = 1 + size_t(rng.Uniform(3));
        switch (rng.Uniform(5)) {
          case 0:
            c.Admit(k, bytes, i);
            break;
          case 1:
            c.Erase(k);
            break;
          case 2:
            if (c.Touch(k)) {
              c.CountHit();
            } else {
              c.CountMiss();
            }
            break;
          default: {
            c.MakeSpace(bytes, [](Cache::Victim&&) {});
            c.Insert(k, bytes, i, /*pin=*/true);
            c.Unpin(k);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const TierStats s = c.stats();
  ASSERT_GE(s.promotions, s.evictions);
  EXPECT_EQ(s.promotions - s.evictions, s.resident_entries);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(c.pinned(), 0u);
  size_t resident = 0;
  for (size_t i = 0; i < 64; i++) resident += c.Contains(K(i));
  EXPECT_EQ(resident, s.resident_entries);
}

TEST_P(TierCacheTest, ClearKeepsStatsAndResetStatsKeepsEntries) {
  Cache c(CacheTier::kHot, 8, GetParam());
  for (size_t i = 0; i < 3; i++) Put(c, i);
  c.CountHit();
  c.CountMiss();
  c.Clear();
  TierStats s = c.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.promotions, 3u);
  EXPECT_EQ(s.resident_entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
  EXPECT_FALSE(c.Contains(K(0)));

  for (size_t i = 0; i < 2; i++) Put(c, i);
  c.ResetStats();
  s = c.stats();
  EXPECT_EQ(s.hits + s.misses + s.promotions + s.evictions, 0u);
  EXPECT_EQ(s.resident_entries, 2u);
  EXPECT_EQ(s.resident_bytes, 2u);
  EXPECT_TRUE(c.Contains(K(1)));
}

INSTANTIATE_TEST_SUITE_P(Shards, TierCacheTest, ::testing::Values(4, 1),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace scc
