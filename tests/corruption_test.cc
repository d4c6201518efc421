#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/bitpack_dispatch.h"
#include "core/segment_builder.h"
#include "core/segment_reader.h"
#include "storage/buffer_manager.h"
#include "storage/fault_injector.h"
#include "storage/sim_disk.h"
#include "storage/table.h"
#include "util/rng.h"
#include "util/zipf.h"

// Hostile-input battery for the segment format. The contract under test:
// for ANY mutation of a segment buffer, every decode entry point either
// returns a non-OK Status or produces bit-exact original values — and in
// no case reads out of bounds or crashes (run under ASan/UBSan in CI for
// full effect).
//
// Campaigns:
//   * exhaustive single-byte flips (one random bit + full byte invert at
//     every position) of small checksummed segments across the
//     distribution zoo, every scheme, every supported kernel ISA
//   * exhaustive truncation at every prefix length (covers all section
//     boundaries by construction)
//   * seeded random multi-corruption rounds, scaled by SCC_FUZZ_ITERS
//   * the same flip campaign against checksum-less segments, where silent
//     value changes are allowed but memory safety still is not
//
// Campaign size: the exhaustive flip sweep alone mutates every byte of
// ~24 (distribution, scheme) segment variants twice — tens of thousands
// of mutated segments per run before SCC_FUZZ_ITERS scaling.

namespace scc {
namespace {

size_t FuzzIters(size_t dflt) {
  const char* env = std::getenv("SCC_FUZZ_ITERS");
  if (env == nullptr || *env == '\0') return dflt;
  long v = std::atol(env);
  return v > 0 ? size_t(v) : dflt;
}

// Same family as property_test's zoo, kept small so exhaustive byte
// sweeps stay fast.
std::vector<int64_t> MakeDistribution(int kind, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> v(n);
  switch (kind % 6) {
    case 0:  // uniform small domain
      for (auto& x : v) x = int64_t(rng.Uniform(1000));
      break;
    case 1:  // clustered with outliers
      for (auto& x : v) {
        x = 500000 + int64_t(rng.Uniform(300));
        if (rng.Bernoulli(0.02)) x = int64_t(rng.Next());
      }
      break;
    case 2: {  // monotone with jumps
      int64_t acc = -1000;
      for (auto& x : v) {
        acc += int64_t(rng.Uniform(50));
        if (rng.Bernoulli(0.01)) acc += 1 << 20;
        x = acc;
      }
      break;
    }
    case 3: {  // zipf-skewed domain
      ZipfGenerator zipf(2000, 1.2, seed + 1);
      for (auto& x : v) x = int64_t(zipf.Next()) * 7919 - 40000;
      break;
    }
    case 4:  // adversarial: alternating tiny/huge
      for (size_t i = 0; i < n; i++) {
        v[i] = (i % 2 == 0) ? int64_t(i % 7) : (int64_t(1) << 50) + int64_t(i);
      }
      break;
    default:  // constant with a single outlier
      std::fill(v.begin(), v.end(), 123456);
      if (n > 3) v[n / 3] = -987654321;
      break;
  }
  return v;
}

struct SegmentCase {
  std::string label;
  std::vector<int64_t> values;
  AlignedBuffer seg;
};

// One segment per scheme for a distribution, forced params so every
// scheme (and the exception machinery) is represented regardless of what
// the analyzer would pick.
std::vector<SegmentCase> BuildCases(int kind, size_t n, uint64_t seed,
                                    const SegmentBuildOptions& opts) {
  auto v = MakeDistribution(kind, n, seed);
  std::vector<SegmentCase> cases;
  auto add = [&](const char* scheme, Result<AlignedBuffer> r) {
    SCC_CHECK(r.ok(), r.status().ToString().c_str());
    cases.push_back(SegmentCase{std::string(scheme) + "/kind" +
                                    std::to_string(kind % 6),
                                v, r.MoveValueOrDie()});
  };
  add("raw", SegmentBuilder<int64_t>::BuildUncompressed(v, opts));
  add("pfor",
      SegmentBuilder<int64_t>::BuildPFor(v, PForParams<int64_t>{7, 0}, opts));
  add("pfordelta", SegmentBuilder<int64_t>::BuildPForDelta(
                       v, PForParams<int64_t>{7, 0}, opts));
  // PDICT over the distribution's most frequent values; everything else
  // becomes an exception. bit_width 8 exercises the wide-code clamp.
  std::vector<int64_t> dict(v);
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  if (dict.size() > 256) dict.resize(256);
  add("pdict", SegmentBuilder<int64_t>::BuildPDict(
                   v, PDictParams<int64_t>{8, dict}, opts));
  return cases;
}

// Exercises every decode entry point of a (possibly corrupt) buffer.
// Returns true iff the segment was accepted AND decoded bit-exact; false
// means it was rejected with a Status. A wrong silent decode fails the
// test via ADD_FAILURE. `require_exact` is off for checksum-less
// segments, where payload corruption may legitimately change values.
bool DriveEntryPoints(const uint8_t* data, size_t size,
                      const std::vector<int64_t>& original,
                      bool require_exact, const std::string& label) {
  auto reader =
      SegmentReader<int64_t>::Open(data, size, {.verify_checksums = true});
  if (!reader.ok()) return false;
  const auto& r = reader.ValueOrDie();
  const size_t n = r.count();
  std::vector<int64_t> out(n);
  r.DecompressRange(0, n, out.data());
  // Point access and a sub-range, through the same corrupt structures.
  if (n > 0) {
    (void)r.Get(0);
    (void)r.Get(n - 1);
    (void)r.Get(n / 2);
    std::vector<int64_t> range(std::min<size_t>(n, 64));
    r.DecompressRange(n / 3, range.size() <= n - n / 3 ? range.size()
                                                       : n - n / 3,
                      range.data());
  }
  if (r.scheme() == Scheme::kPFor || r.scheme() == Scheme::kPDict) {
    std::vector<uint32_t> codes(n);
    std::vector<uint32_t> exc_pos;
    (void)r.DecompressCodes(0, n, codes.data(), &exc_pos);
  }
  if (require_exact) {
    if (n != original.size()) {
      ADD_FAILURE() << label << ": accepted segment with count " << n
                    << " != " << original.size();
      return true;
    }
    if (out != original) {
      ADD_FAILURE() << label << ": accepted segment decoded non-exact";
    }
  }
  return true;
}

// Flips every byte of `seg` two ways (one seeded bit, full invert) and
// drives the decoders on each mutant. Returns the number of mutants.
size_t ByteFlipSweep(const SegmentCase& c, uint64_t seed, bool require_exact,
                     size_t* accepted) {
  Rng rng(seed);
  AlignedBuffer copy = c.seg;
  size_t mutants = 0;
  for (size_t pos = 0; pos < c.seg.size(); pos++) {
    const uint8_t orig_byte = copy.data()[pos];
    const uint8_t patterns[2] = {uint8_t(1u << rng.Uniform(8)), 0xFF};
    for (uint8_t pat : patterns) {
      copy.data()[pos] = orig_byte ^ pat;
      mutants++;
      *accepted += DriveEntryPoints(copy.data(), copy.size(), c.values,
                                    require_exact,
                                    c.label + " byte " + std::to_string(pos))
                       ? 1
                       : 0;
    }
    copy.data()[pos] = orig_byte;  // restore for the next position
  }
  return mutants;
}

TEST(CorruptionBattery, ExhaustiveByteFlipsChecksummed) {
  // Checksummed segments: a flipped byte must be rejected, except for the
  // one benign mutation (clearing the checksum flag yields a valid
  // unchecksummed v2 header over an unchanged layout) — which still must
  // decode bit-exact. DriveEntryPoints enforces exactly that contract.
  size_t mutants = 0, accepted = 0;
  for (int kind = 0; kind < 6; kind++) {
    for (auto& c : BuildCases(kind, 300, uint64_t(kind) * 101 + 1, {})) {
      mutants += ByteFlipSweep(c, uint64_t(kind) + 7,
                               /*require_exact=*/true, &accepted);
    }
  }
  // The sweep is the 10k-mutant floor of the battery on its own.
  EXPECT_GE(mutants, 10000u);
  // Nearly everything must be rejected; the benign flag-bit flip is ~1
  // accepted mutant per segment (plus inverts that restore the same bit).
  EXPECT_LT(accepted, mutants / 100);
}

TEST(CorruptionBattery, ExhaustiveByteFlipsChecksumless) {
  // Without checksums the format cannot promise detection — only memory
  // safety. Silent value changes are allowed; crashes and overruns are
  // not (ASan/UBSan legs make this assertion sharp).
  size_t mutants = 0, accepted = 0;
  for (int kind = 0; kind < 6; kind++) {
    for (auto& c : BuildCases(kind, 300, uint64_t(kind) * 131 + 5,
                              {.with_checksums = false})) {
      mutants += ByteFlipSweep(c, uint64_t(kind) + 11,
                               /*require_exact=*/false, &accepted);
    }
  }
  EXPECT_GE(mutants, 10000u);
  EXPECT_GT(accepted, 0u);  // payload flips pass header validation
}

TEST(CorruptionBattery, EveryTruncationRejected) {
  // Validate() bounds total_size by the buffer, so EVERY proper prefix —
  // including every section boundary — must fail to open.
  for (int kind = 0; kind < 6; kind++) {
    for (auto& c : BuildCases(kind, 300, uint64_t(kind) * 17 + 3, {})) {
      for (size_t cut = 0; cut < c.seg.size(); cut++) {
        auto reader = SegmentReader<int64_t>::Open(c.seg.data(), cut);
        ASSERT_FALSE(reader.ok()) << c.label << " cut=" << cut;
      }
      // The full buffer still opens.
      ASSERT_TRUE(
          SegmentReader<int64_t>::Open(c.seg.data(), c.seg.size()).ok())
          << c.label;
    }
  }
}

TEST(CorruptionBattery, SeededRandomCorruptionRounds) {
  // Random multi-byte corruption, truncation, and byte-soup rounds.
  // SCC_FUZZ_ITERS scales the campaign (CI nightly raises it).
  const size_t iters = FuzzIters(2000);
  auto cases = BuildCases(1, 900, 42, {});
  {
    auto more = BuildCases(4, 900, 43, {});
    for (auto& c : more) cases.push_back(std::move(c));
  }
  Rng rng(20260806);
  for (size_t it = 0; it < iters; it++) {
    const SegmentCase& c = cases[it % cases.size()];
    AlignedBuffer copy = c.seg;
    const size_t ncorrupt = 1 + rng.Uniform(8);
    for (size_t k = 0; k < ncorrupt; k++) {
      copy.data()[rng.Uniform(copy.size())] ^= uint8_t(1 + rng.Uniform(255));
    }
    size_t size = copy.size();
    if (rng.Bernoulli(0.2)) size = rng.Uniform(copy.size() + 1);
    (void)DriveEntryPoints(copy.data(), size, c.values,
                           /*require_exact=*/false,
                           c.label + " round " + std::to_string(it));
  }
  SUCCEED();
}

TEST(CorruptionBattery, AllIsasSurviveFlippedSegments) {
  // The SIMD decode kernels must be as corruption-proof as the scalar
  // path: replay a reduced flip sweep under every supported backend.
  const auto isas = SupportedKernelIsas();
  for (KernelIsa isa : isas) {
    ScopedKernelIsa force(isa);
    size_t accepted = 0;
    for (int kind : {1, 4}) {
      for (auto& c : BuildCases(kind, 300, uint64_t(kind) * 101 + 1, {})) {
        ByteFlipSweep(c, uint64_t(kind) + 7, /*require_exact=*/true,
                      &accepted);
      }
      for (auto& c : BuildCases(kind, 300, uint64_t(kind) * 131 + 5,
                                {.with_checksums = false})) {
        ByteFlipSweep(c, uint64_t(kind) + 11, /*require_exact=*/false,
                      &accepted);
      }
    }
  }
  SUCCEED();
}

TEST(CorruptionBattery, ChecksumReportNamesTheBadSection) {
  auto v = MakeDistribution(1, 2000, 9);
  auto seg = SegmentBuilder<int64_t>::BuildPFor(v, PForParams<int64_t>{7, 0});
  ASSERT_TRUE(seg.ok());
  AlignedBuffer buf = seg.MoveValueOrDie();
  SegmentHeader hdr;
  std::memcpy(&hdr, buf.data(), sizeof(hdr));
  ASSERT_TRUE(hdr.HasChecksums());
  ASSERT_TRUE(VerifySegmentChecksums(buf.data(), buf.size()).ok());

  struct Probe {
    size_t pos;
    bool SegmentChecksumReport::* field;
  };
  const Probe probes[] = {
      {hdr.entries_offset, &SegmentChecksumReport::meta_ok},
      {hdr.codes_offset, &SegmentChecksumReport::codes_ok},
      {hdr.exceptions_offset, &SegmentChecksumReport::exceptions_ok},
  };
  for (const Probe& p : probes) {
    if (p.pos >= buf.size()) continue;  // no exceptions in this segment
    AlignedBuffer copy = buf;
    copy.data()[p.pos] ^= 0x40;
    const SegmentChecksumReport report =
        CheckSegmentChecksums(copy.data(), hdr);
    EXPECT_TRUE(report.present);
    EXPECT_FALSE(report.*(p.field)) << "pos=" << p.pos;
    EXPECT_FALSE(VerifySegmentChecksums(copy.data(), copy.size()).ok());
  }
  // Header corruption that still parses: flip a base bit.
  AlignedBuffer copy = buf;
  copy.data()[offsetof(SegmentHeader, base_bits)] ^= 0x01;
  SegmentHeader bad_hdr;
  std::memcpy(&bad_hdr, copy.data(), sizeof(bad_hdr));
  ASSERT_TRUE(bad_hdr.Validate(copy.size()).ok());
  EXPECT_FALSE(CheckSegmentChecksums(copy.data(), bad_hdr).header_ok);
}

TEST(CorruptionBattery, LegacyUnversionedSegmentsStillOpen) {
  // A v1 segment is exactly a v2 no-checksum segment with flags == 0:
  // rewriting the flags byte (and its CRC-free layout) must stay
  // readable, bit-exact.
  auto v = MakeDistribution(2, 1500, 77);
  for (int scheme = 0; scheme < 2; scheme++) {
    auto seg = scheme == 0
                   ? SegmentBuilder<int64_t>::BuildPFor(
                         v, PForParams<int64_t>{7, 0},
                         {.with_checksums = false})
                   : SegmentBuilder<int64_t>::BuildUncompressed(
                         v, {.with_checksums = false});
    ASSERT_TRUE(seg.ok());
    AlignedBuffer buf = seg.MoveValueOrDie();
    buf.data()[offsetof(SegmentHeader, flags)] = 0;  // pre-versioning file
    auto reader = SegmentReader<int64_t>::Open(buf.data(), buf.size(),
                                               {.verify_checksums = true});
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader.ValueOrDie().header().FormatVersion(), 0);
    std::vector<int64_t> out(v.size());
    reader.ValueOrDie().DecompressAll(out.data());
    EXPECT_EQ(out, v);
  }
}

// ---------------------------------------------------------------------------
// Tier-aware fault storm: the FaultInjector attached to the tiered buffer
// manager's SSD device (docs/STORAGE_TIERS.md). Contract under test: a
// fault on the flash tier surfaces as Status::Corruption or
// Status::IOError at the fetch that hit it, never poisons a DRAM-resident
// page, and never wedges the manager — the failed SSD entry is dropped so
// the next fetch re-faults cold and succeeds. The concurrent leg runs
// under the TSan CI job.

struct TierStormFixture {
  Table table{8192};
  std::vector<int64_t> values;
  SimDisk disk;

  explicit TierStormFixture(size_t rows = 90000) {
    Rng rng(2026);
    values.resize(rows);
    for (size_t i = 0; i < rows; i++) {
      values[i] = 5000 + int64_t(rng.Uniform(1000));
    }
    SCC_CHECK(table.AddColumn<int64_t>("v", values, ColumnCompression::kAuto)
                  .ok(),
              "column");
  }

  const StoredColumn* col() const { return table.column("v"); }
  size_t OneChunkBytes() const { return col()->chunks[0].size(); }

  /// A manager whose DRAM tier holds ~`dram_chunks` compressed chunks,
  /// with a roomy SSD tier underneath and checksum verification on.
  /// (unique_ptr: the manager owns mutexes and can't move.)
  std::unique_ptr<BufferManager> MakeBm(double dram_chunks) {
    BufferManager::TierConfig tc;
    tc.ssd_capacity_bytes = size_t(1) << 30;
    auto bm = std::make_unique<BufferManager>(
        &disk, size_t(dram_chunks * double(OneChunkBytes())), Layout::kDSM,
        tc);
    bm->SetVerifyChecksums(true);
    return bm;
  }

  /// Fetches every chunk once (all cold on the first pass; the small DRAM
  /// tier demotes victims to flash as it goes).
  void WarmAllChunks(BufferManager* bm) {
    for (size_t c = 0; c < col()->chunk_count(); c++) {
      SCC_CHECK(bm->FetchPinned(&table, col(), c).ok(), "warm fetch");
    }
  }
};

TEST(TieredFaultStorm, SsdBitFlipsSurfaceAsCorruptionAndDropTheEntry) {
  TierStormFixture f;
  auto bm = f.MakeBm(2.5);
  f.WarmAllChunks(bm.get());
  ASSERT_TRUE(bm->ssd_resident(f.col(), 0));

  FaultInjector inj({.seed = 11, .bit_flip_prob = 1.0});
  bm->ssd_disk()->AttachFaults(&inj);
  // Chunk 0 lives only on flash: every read attempt comes back flipped,
  // checksum verification rejects each retry, the fetch fails Corruption.
  auto r = bm->FetchPinned(&f.table, f.col(), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
      << r.status().ToString();
  EXPECT_GT(bm->io_faults(), 0u);
  // The poisoned SSD entry is gone; with the injector still attached the
  // refetch walks down to the clean cold device and is bit-exact.
  EXPECT_FALSE(bm->ssd_resident(f.col(), 0));
  auto v = bm->ReadValue<int64_t>(&f.table, f.col(), 100);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.ValueOrDie(), f.values[100]);
  bm->ssd_disk()->AttachFaults(nullptr);
}

TEST(TieredFaultStorm, SsdIoErrorsSurfaceAsIOErrorWithoutTouchingDramResidents) {
  TierStormFixture f;
  auto bm = f.MakeBm(2.5);
  f.WarmAllChunks(bm.get());
  const size_t last = f.col()->chunk_count() - 1;  // still DRAM-resident
  ASSERT_TRUE(bm->ssd_resident(f.col(), 0));
  ASSERT_FALSE(bm->ssd_resident(f.col(), last));

  FaultInjector inj({.seed = 12, .io_error_prob = 1.0});
  bm->ssd_disk()->AttachFaults(&inj);
  auto r = bm->FetchPinned(&f.table, f.col(), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status().ToString();

  // A DRAM-resident page is untouched by the flash storm: the fetch is a
  // pure cache hit — correct bytes, zero device traffic on any tier.
  const size_t cold_reads = f.disk.read_count();
  const size_t ssd_reads = bm->ssd_disk()->read_count();
  auto hit = bm->ReadValue<int64_t>(&f.table, f.col(), last * 8192 + 7);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.ValueOrDie(), f.values[last * 8192 + 7]);
  EXPECT_EQ(f.disk.read_count(), cold_reads);
  EXPECT_EQ(bm->ssd_disk()->read_count(), ssd_reads);
  bm->ssd_disk()->AttachFaults(nullptr);
}

TEST(TieredFaultStorm, TornWritebacksAreCountedAndNeverServeShortPages) {
  TierStormFixture f;
  auto bm = f.MakeBm(1.5);
  // Every demotion's flash write persists only a prefix: the manager must
  // refuse to admit the torn page to the SSD tier (counted as a
  // writeback failure) rather than ever serving short bytes.
  FaultInjector inj({.seed = 13, .torn_write_prob = 1.0});
  bm->ssd_disk()->AttachFaults(&inj);
  f.WarmAllChunks(bm.get());
  const BufferManager::TierStats dram =
      bm->tier_stats(BufferManager::CacheTier::kDram);
  const BufferManager::TierStats ssd =
      bm->tier_stats(BufferManager::CacheTier::kSsd);
  EXPECT_GT(dram.writebacks, 0u);
  EXPECT_EQ(dram.writeback_failures, dram.writebacks);
  EXPECT_EQ(ssd.resident_entries, 0u);
  // With nothing on flash, every refetch goes cold — and stays bit-exact.
  for (size_t c = 0; c < f.col()->chunk_count(); c++) {
    const size_t row = c * 8192 + 11;
    auto v = bm->ReadValue<int64_t>(&f.table, f.col(), row);
    ASSERT_TRUE(v.ok());
    ASSERT_EQ(v.ValueOrDie(), f.values[row]);
  }
  bm->ssd_disk()->AttachFaults(nullptr);
}

TEST(TieredFaultStorm, ArmAfterReadsWarmsThroughAFaultedDevice) {
  TierStormFixture f;
  auto bm = f.MakeBm(1.5);
  f.WarmAllChunks(bm.get());  // pass 1: cold reads + flash writebacks only
  const size_t nchunks = f.col()->chunk_count();

  // Arm the injector only after the reheat pass's SSD reads: the first
  // `nchunks` flash reads pass through clean — deterministically, with no
  // RNG draws — then every later read flips bits.
  FaultInjector inj(
      {.seed = 14, .bit_flip_prob = 1.0, .arm_after_reads = nchunks});
  bm->ssd_disk()->AttachFaults(&inj);
  for (size_t c = 0; c < nchunks; c++) {  // pass 2: served by flash, clean
    const size_t row = c * 8192 + 3;
    auto v = bm->ReadValue<int64_t>(&f.table, f.col(), row);
    ASSERT_TRUE(v.ok()) << "chunk " << c << ": " << v.status().ToString();
    ASSERT_EQ(v.ValueOrDie(), f.values[row]);
  }
  EXPECT_EQ(inj.stats().reads, nchunks);
  EXPECT_EQ(inj.stats().faults(), 0u);
  // Armed now: chunk 0 is long evicted from the 1.5-chunk DRAM tier but
  // still flash-resident, so this fetch reads the armed device and fails
  // checksum verification.
  ASSERT_TRUE(bm->ssd_resident(f.col(), 0));
  auto r = bm->FetchPinned(&f.table, f.col(), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_GT(inj.stats().bit_flips, 0u);
  bm->ssd_disk()->AttachFaults(nullptr);
}

TEST(TieredFaultStorm, ConcurrentMixedStormNeverPoisonsResults) {
  TierStormFixture f;
  auto bm = f.MakeBm(2.0);
  f.WarmAllChunks(bm.get());
  FaultInjector inj(
      {.seed = 15, .io_error_prob = 0.2, .bit_flip_prob = 0.2});
  bm->ssd_disk()->AttachFaults(&inj);

  // 8 threads hammer random chunks through the faulting flash tier. Every
  // OK result must be bit-exact; every failure must be Corruption or
  // IOError; nothing may crash or deadlock (TSan checks the edges).
  constexpr int kThreads = 8;
  std::atomic<size_t> failures{0};
  std::atomic<bool> bad{false};
  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ti++) {
    threads.emplace_back([&, ti] {
      Rng rng(3000 + ti);
      for (int i = 0; i < 300; i++) {
        const size_t row = size_t(rng.Uniform(f.values.size()));
        auto v = bm->ReadValue<int64_t>(&f.table, f.col(), row);
        if (v.ok()) {
          if (v.ValueOrDie() != f.values[row]) bad.store(true);
        } else {
          const StatusCode code = v.status().code();
          if (code != StatusCode::kCorruption &&
              code != StatusCode::kIOError) {
            bad.store(true);
          }
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_FALSE(bad.load()) << "wrong value or unexpected status code";
  EXPECT_GT(inj.stats().faults(), 0u);

  // The storm over: detach the injector and sweep every value. A single
  // mismatch would mean a flipped page was admitted to some tier.
  bm->ssd_disk()->AttachFaults(nullptr);
  for (size_t c = 0; c < f.col()->chunk_count(); c++) {
    for (size_t k = 0; k < 8192 && c * 8192 + k < f.values.size();
         k += 1024) {
      const size_t row = c * 8192 + k;
      auto v = bm->ReadValue<int64_t>(&f.table, f.col(), row);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      ASSERT_EQ(v.ValueOrDie(), f.values[row]) << "row " << row;
    }
  }
}

}  // namespace
}  // namespace scc
