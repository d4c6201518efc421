#include "storage/sim_disk.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/buffer_manager.h"
#include "storage/fault_injector.h"
#include "storage/table.h"
#include "util/rng.h"

// Fault-injection harness tests: the determinism contract of
// FaultInjector (same seed + same call order => byte-identical faults),
// SimDisk's faulted read/write paths, and the buffer manager's retry,
// eviction, and telemetry behavior when pages fail to read intact.

namespace scc {
namespace {

Table MakeTable(size_t rows, size_t chunk_values = 4096) {
  Table t(chunk_values);
  Rng rng(42);
  std::vector<int64_t> a(rows), b(rows);
  for (size_t i = 0; i < rows; i++) {
    a[i] = int64_t(i);
    b[i] = 5000 + int64_t(rng.Uniform(1000));
  }
  SCC_CHECK(t.AddColumn<int64_t>("a", a, ColumnCompression::kAuto).ok(), "a");
  SCC_CHECK(t.AddColumn<int64_t>("b", b, ColumnCompression::kAuto).ok(), "b");
  return t;
}

TEST(FaultInjectorTest, SameSeedSameFaults) {
  FaultInjector::Config cfg;
  cfg.seed = 1234;
  cfg.io_error_prob = 0.2;
  cfg.bit_flip_prob = 0.3;
  cfg.truncate_prob = 0.1;
  cfg.flips_per_fault = 3;
  FaultInjector f1(cfg), f2(cfg);

  std::vector<uint8_t> base(4096);
  Rng rng(7);
  for (auto& byte : base) byte = uint8_t(rng.Next());

  for (int call = 0; call < 200; call++) {
    std::vector<uint8_t> b1 = base, b2 = base;
    size_t s1 = b1.size(), s2 = b2.size();
    Status st1 = f1.OnRead(b1.data(), &s1);
    Status st2 = f2.OnRead(b2.data(), &s2);
    ASSERT_EQ(st1.ok(), st2.ok()) << "call " << call;
    ASSERT_EQ(s1, s2) << "call " << call;
    ASSERT_EQ(b1, b2) << "call " << call;
  }
  EXPECT_EQ(f1.stats().io_errors, f2.stats().io_errors);
  EXPECT_EQ(f1.stats().bit_flips, f2.stats().bit_flips);
  EXPECT_EQ(f1.stats().truncations, f2.stats().truncations);
  EXPECT_GT(f1.stats().faults(), 0u);  // the campaign actually did something
}

TEST(FaultInjectorTest, ResetRewindsTheSequence) {
  FaultInjector::Config cfg;
  cfg.seed = 99;
  cfg.io_error_prob = 0.5;
  FaultInjector f(cfg);
  std::vector<bool> first;
  uint8_t dummy[16] = {};
  for (int i = 0; i < 64; i++) {
    size_t sz = sizeof(dummy);
    first.push_back(f.OnRead(dummy, &sz).ok());
  }
  f.Reset();
  EXPECT_EQ(f.stats().reads, 0u);
  for (int i = 0; i < 64; i++) {
    size_t sz = sizeof(dummy);
    EXPECT_EQ(f.OnRead(dummy, &sz).ok(), first[size_t(i)]) << "call " << i;
  }
}

TEST(SimDiskTest, ReadChunkIntoCopiesAndCharges) {
  SimDisk disk;
  std::vector<uint8_t> src(1024);
  for (size_t i = 0; i < src.size(); i++) src[i] = uint8_t(i);
  AlignedBuffer out;
  ASSERT_TRUE(
      disk.ReadChunkInto(src.data(), src.size(), src.size(), &out).ok());
  ASSERT_EQ(out.size(), src.size());
  EXPECT_EQ(std::memcmp(out.data(), src.data(), src.size()), 0);
  EXPECT_EQ(disk.read_count(), 1u);
  EXPECT_EQ(disk.bytes_read(), src.size());
  EXPECT_GT(disk.io_seconds(), 0.0);
}

TEST(SimDiskTest, ReadChunkIntoChargesTheUnitAndCopiesThePage) {
  // Under PAX the device charges the whole row group but copies (and
  // faults) only the requested column's page.
  SimDisk disk;
  FaultInjector faults({.seed = 3, .bit_flip_prob = 1.0});
  disk.AttachFaults(&faults);
  std::vector<uint8_t> src(1024, 0x3C);
  const size_t unit = 8 * src.size();
  AlignedBuffer out;
  ASSERT_TRUE(disk.ReadChunkInto(src.data(), src.size(), unit, &out).ok());
  ASSERT_EQ(out.size(), src.size());
  size_t differing = 0;
  for (size_t i = 0; i < src.size(); i++) differing += out.data()[i] != src[i];
  EXPECT_EQ(differing, 1u);  // a faithful copy but for the one flipped bit
  EXPECT_EQ(faults.stats().bit_flips, 1u);
  EXPECT_EQ(disk.read_count(), 1u);
  EXPECT_EQ(disk.bytes_read(), unit);
  EXPECT_DOUBLE_EQ(disk.io_seconds(),
                   SimDisk::TransferSeconds(disk.config(), unit));
}

TEST(SimDiskTest, InjectedIoErrorSurfacesAndStillCharges) {
  SimDisk disk;
  FaultInjector faults({.seed = 5, .io_error_prob = 1.0});
  disk.AttachFaults(&faults);
  std::vector<uint8_t> src(512, 0xAB);
  AlignedBuffer out;
  Status st = disk.ReadChunkInto(src.data(), src.size(), src.size(), &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  // The device did the work even though the read failed.
  EXPECT_EQ(disk.read_count(), 1u);
  EXPECT_EQ(disk.bytes_read(), src.size());
  EXPECT_EQ(faults.stats().io_errors, 1u);
}

TEST(SimDiskTest, TruncatedReadShrinksTheBuffer) {
  SimDisk disk;
  FaultInjector faults({.seed = 5, .truncate_prob = 1.0});
  disk.AttachFaults(&faults);
  std::vector<uint8_t> src(512, 0xCD);
  AlignedBuffer out;
  ASSERT_TRUE(
      disk.ReadChunkInto(src.data(), src.size(), src.size(), &out).ok());
  EXPECT_LT(out.size(), src.size());
  EXPECT_EQ(faults.stats().truncations, 1u);
}

TEST(SimDiskTest, TornWritePersistsAPrefix) {
  SimDisk disk;
  FaultInjector faults({.seed = 11, .torn_write_prob = 1.0});
  disk.AttachFaults(&faults);
  size_t persisted = disk.WriteChunk(4096);
  EXPECT_LT(persisted, 4096u);
  EXPECT_EQ(disk.write_count(), 1u);
  EXPECT_EQ(disk.bytes_written(), persisted);
  EXPECT_EQ(faults.stats().torn_writes, 1u);
  disk.AttachFaults(nullptr);
  EXPECT_EQ(disk.WriteChunk(4096), 4096u);
}

TEST(BufferManagerFaults, PermanentErrorFailsFetchWithoutCaching) {
  Table t = MakeTable(10000);
  SimDisk disk;
  FaultInjector faults({.seed = 3, .io_error_prob = 1.0});
  disk.AttachFaults(&faults);
  BufferManager bm(&disk, 64 << 20, Layout::kDSM);
  bm.set_max_read_retries(2);

  auto page = bm.FetchPinned(&t, t.column("a"), 0);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kIOError);
  EXPECT_EQ(bm.io_faults(), 3u);  // initial attempt + 2 retries
  EXPECT_EQ(bm.resident_bytes(), 0u);

  // The failed page was not cached: clearing the faults lets the next
  // fetch read it intact from "disk".
  disk.AttachFaults(nullptr);
  auto retry = bm.FetchPinned(&t, t.column("a"), 0);
  ASSERT_TRUE(retry.ok());
  const AlignedBuffer& pristine = t.column("a")->chunks[0];
  ASSERT_EQ(retry.ValueOrDie()->size(), pristine.size());
  EXPECT_EQ(std::memcmp(retry.ValueOrDie()->data(), pristine.data(),
                        pristine.size()),
            0);
}

TEST(BufferManagerFaults, ChecksumVerificationCatchesBitFlips) {
  Table t = MakeTable(10000);
  SimDisk disk;
  FaultInjector faults({.seed = 8, .bit_flip_prob = 1.0});
  disk.AttachFaults(&faults);
  BufferManager bm(&disk, 64 << 20, Layout::kDSM);
  bm.SetVerifyChecksums(true);
  bm.set_max_read_retries(1);

  auto page = bm.FetchPinned(&t, t.column("a"), 0);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(bm.io_faults(), 2u);
#if SCC_TELEMETRY
  // Registry mirror of the per-instance count (compiled out with
  // -DSCC_TELEMETRY=0, where counters are no-ops).
  EXPECT_GE(StorageMetrics::Get().io_faults->Value(), 2u);
#endif
}

TEST(BufferManagerFaults, VerifiedCleanReadsServeOwnedCopies) {
  Table t = MakeTable(10000);
  SimDisk disk;
  BufferManager bm(&disk, 64 << 20, Layout::kDSM);
  bm.SetVerifyChecksums(true);

  auto page = bm.FetchPinned(&t, t.column("a"), 0);
  ASSERT_TRUE(page.ok());
  const AlignedBuffer& pristine = t.column("a")->chunks[0];
  // Guarded reads serve an owned, verified copy, not the pristine memory.
  EXPECT_NE(page.ValueOrDie().page(), &pristine);
  ASSERT_EQ(page.ValueOrDie()->size(), pristine.size());
  EXPECT_EQ(std::memcmp(page.ValueOrDie()->data(), pristine.data(),
                        pristine.size()),
            0);
  EXPECT_EQ(bm.io_faults(), 0u);

  // Hits keep serving the same owned page.
  auto again = bm.FetchPinned(&t, t.column("a"), 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().page(), page.ValueOrDie().page());
  EXPECT_EQ(bm.hits(), 1u);
}

TEST(BufferManagerFaults, RetrySucceedsWhenFaultsAreTransient) {
  // Mirror the injector's draw sequence to predict which attempts fail:
  // determinism makes the flaky-disk scenario exactly reproducible.
  FaultInjector::Config cfg;
  cfg.seed = 21;
  cfg.io_error_prob = 0.5;
  FaultInjector mirror(cfg);
  std::vector<bool> attempt_ok;
  uint8_t dummy[8] = {};
  for (int i = 0; i < 8; i++) {
    size_t sz = sizeof(dummy);
    attempt_ok.push_back(mirror.OnRead(dummy, &sz).ok());
  }

  Table t = MakeTable(4096);  // single chunk per column
  SimDisk disk;
  FaultInjector faults(cfg);
  disk.AttachFaults(&faults);
  BufferManager bm(&disk, 64 << 20, Layout::kDSM);
  bm.set_max_read_retries(7);

  size_t expected_faults = 0;
  bool expected_ok = false;
  for (bool ok : attempt_ok) {
    if (ok) {
      expected_ok = true;
      break;
    }
    expected_faults++;
  }
  EXPECT_EQ(bm.FetchPinned(&t, t.column("a"), 0).ok(), expected_ok);
  EXPECT_EQ(bm.io_faults(), expected_faults);
}

TEST(BufferManagerFaults, EvictionStillWorksWithOwnedPages) {
  Table t = MakeTable(20000, 4096);  // several chunks
  SimDisk disk;
  BufferManager bm(&disk, t.column("a")->chunks[0].size() + 1, Layout::kDSM);
  bm.SetVerifyChecksums(true);

  ASSERT_TRUE(bm.FetchPinned(&t, t.column("a"), 0).ok());
  ASSERT_TRUE(bm.FetchPinned(&t, t.column("a"), 1).ok());  // evicts chunk 0
  EXPECT_GE(bm.evictions(), 1u);
  ASSERT_TRUE(bm.FetchPinned(&t, t.column("a"), 0).ok());  // miss, re-read
  EXPECT_EQ(bm.hits(), 0u);
  EXPECT_EQ(bm.misses(), 3u);
}

TEST(SimDiskTest, TransferSecondsIsTheChargingFormula) {
  // TransferSeconds is exposed as the exact charging model: N reads and M
  // writes must land the accumulator on the closed form, so tier tests
  // can predict per-fault latency without peeking at internals.
  const SimDisk::Config cfg = SimDisk::NvmeSsd();
  SimDisk disk(cfg);
  std::vector<uint8_t> src(3000, 0x5A);
  AlignedBuffer out;
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(
      disk.ReadChunkInto(src.data(), src.size(), src.size(), &out).ok());
  }
  disk.WriteChunk(7000);
  disk.WriteChunk(100);
  const double want = 4 * SimDisk::TransferSeconds(cfg, src.size()) +
                      SimDisk::TransferSeconds(cfg, 7000) +
                      SimDisk::TransferSeconds(cfg, 100);
  EXPECT_NEAR(disk.io_seconds(), want, 1e-12);
}

TEST(BufferManagerFaults, EveryRetryChargesTheLatencyModel) {
  // Regression: the latency model must be charged on every read ATTEMPT —
  // the initial leader read and each retry — not only on the first. With
  // a hard-failing device, attempts == retries + 1, and io_seconds is
  // exactly attempts x TransferSeconds(chunk).
  Table t = MakeTable(4096);  // single chunk per column
  const size_t chunk_bytes = t.column("a")->chunks[0].size();
  SimDisk disk;
  FaultInjector faults({.seed = 31, .io_error_prob = 1.0});
  disk.AttachFaults(&faults);
  BufferManager bm(&disk, 64 << 20, Layout::kDSM);
  bm.set_max_read_retries(2);

  ASSERT_FALSE(bm.FetchPinned(&t, t.column("a"), 0).ok());
  EXPECT_EQ(disk.read_count(), 3u);
  EXPECT_EQ(bm.io_faults(), 3u);
  EXPECT_NEAR(disk.io_seconds(),
              3 * SimDisk::TransferSeconds(disk.config(), chunk_bytes),
              1e-12);
}

TEST(BufferManagerFaults, CoalescedWaiterRetriesAreChargedAndCounted) {
  // Concurrent fetchers of one chunk coalesce on a single in-flight read;
  // when the leader fails, waiters promote to second leaders and retry.
  // Accounting identity under any interleaving: with a device that fails
  // every read, every counted fault IS a charged device read —
  // io_faults == read_count and io_seconds == read_count x model. A
  // waiter retry that was counted but never charged (or vice versa)
  // breaks the equality.
  Table t = MakeTable(4096);
  const size_t chunk_bytes = t.column("a")->chunks[0].size();
  SimDisk disk;
  FaultInjector faults({.seed = 32, .io_error_prob = 1.0});
  disk.AttachFaults(&faults);
  BufferManager bm(&disk, 64 << 20, Layout::kDSM);
  bm.set_max_read_retries(1);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kThreads; i++) {
    threads.emplace_back([&] {
      if (bm.FetchPinned(&t, t.column("a"), 0).ok()) ok_count.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), 0);
  EXPECT_GT(disk.read_count(), 0u);
  EXPECT_EQ(bm.io_faults(), disk.read_count());
#if SCC_TELEMETRY
  // The registry mirror must agree with the per-instance count: the
  // storage.io_faults regression this test pins is waiter retries being
  // double-counted in one place and not the other.
  EXPECT_GE(StorageMetrics::Get().io_faults->Value(), bm.io_faults());
#endif
  EXPECT_NEAR(
      disk.io_seconds(),
      double(disk.read_count()) *
          SimDisk::TransferSeconds(disk.config(), chunk_bytes),
      1e-9);
}

TEST(BufferManagerFaults, WritebackIoIsChargedOnTheSsdDevice) {
  // Demotions from the DRAM tier are real IO on the flash device: each
  // writeback charges the SSD latency model (seek + bytes/bandwidth),
  // visible in ssd_disk()->io_seconds, while the cold device is charged
  // only for the original faults.
  Table t = MakeTable(40000, 4096);  // 10 chunks per column
  const StoredColumn* col = t.column("a");
  SimDisk disk;
  BufferManager::TierConfig tc;
  tc.ssd_capacity_bytes = size_t(1) << 30;
  BufferManager bm(&disk, col->chunks[0].size() + 1, Layout::kDSM, tc);

  for (size_t c = 0; c < col->chunk_count(); c++) {
    ASSERT_TRUE(bm.FetchPinned(&t, col, c).ok());
  }
  const size_t writes = bm.ssd_disk()->write_count();
  ASSERT_GT(writes, 0u);
  // Closed form over the write stream: per-write seek plus total bytes at
  // bandwidth. (No SSD reads happened — pass 1 is all cold misses.)
  EXPECT_EQ(bm.ssd_disk()->read_count(), 0u);
  const SimDisk::Config& ssd_cfg = bm.ssd_disk()->config();
  const double want =
      double(writes) * ssd_cfg.seek_ms / 1000.0 +
      double(bm.ssd_disk()->bytes_written()) /
          (ssd_cfg.bandwidth_mb_per_s * 1024 * 1024);
  EXPECT_NEAR(bm.ssd_disk()->io_seconds(), want, 1e-9);
  // The cold device was charged exactly once per chunk, no writebacks.
  EXPECT_EQ(disk.read_count(), col->chunk_count());
  EXPECT_EQ(disk.bytes_written(), 0u);
}

TEST(BufferManagerFaults, CampaignIsDeterministicEndToEnd) {
  // Two identical setups with the same seed observe identical fault
  // counts and fetch outcomes across a whole mixed campaign.
  FaultInjector::Config cfg;
  cfg.seed = 77;
  cfg.io_error_prob = 0.1;
  cfg.bit_flip_prob = 0.2;
  cfg.truncate_prob = 0.1;

  auto run = [&cfg](std::vector<bool>* outcomes) -> size_t {
    Table t = MakeTable(20000, 4096);
    SimDisk disk;
    FaultInjector faults(cfg);
    disk.AttachFaults(&faults);
    BufferManager bm(&disk, 1 << 20, Layout::kDSM);
    bm.SetVerifyChecksums(true);
    bm.set_max_read_retries(1);
    for (int round = 0; round < 10; round++) {
      for (size_t c = 0; c < t.chunk_count(); c++) {
        outcomes->push_back(bm.FetchPinned(&t, t.column("a"), c).ok());
        outcomes->push_back(bm.FetchPinned(&t, t.column("b"), c).ok());
      }
      bm.Clear();  // force every round back to "disk"
    }
    return bm.io_faults();
  };

  std::vector<bool> out1, out2;
  const size_t faults1 = run(&out1);
  const size_t faults2 = run(&out2);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(faults1, faults2);
  EXPECT_GT(faults1, 0u);  // the campaign exercised the fault path
}

}  // namespace
}  // namespace scc
