// Micro-benchmarks (google-benchmark) for the kernel-level claims:
//   * bit-unpacking takes < 10% of decompression cost (Section 3)
//   * fine-grained random access costs ~1 cache-miss-equivalent
//     (~200 work cycles per value, Section 3.1)
//   * vector-granularity sweep: the RAM-CPU cache sweet spot
//   * analyzer cost is O(s log s) in the sample

#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bitpack/bitpack.h"
#include "core/analyzer.h"
#include "core/kernels.h"
#include "core/segment.h"
#include "core/segment_builder.h"
#include "core/segment_reader.h"
#include "engine/vector.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace scc {
namespace {

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

void BM_BitUnpack(benchmark::State& state) {
  const int b = int(state.range(0));
  const size_t n = 1u << 20;
  Rng rng(1);
  std::vector<uint32_t> codes(n);
  for (auto& c : codes) c = uint32_t(rng.Next()) & MaxCode(b);
  std::vector<uint32_t> packed(PackedByteSize(n, b) / 4 + 1);
  BitPack(codes.data(), n, b, packed.data());
  std::vector<uint32_t> out(n + 32);
  for (auto _ : state) {
    BitUnpack(packed.data(), n, b, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(n) * 4);
}
BENCHMARK(BM_BitUnpack)->Arg(1)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(24);

void BM_BitPack(benchmark::State& state) {
  const int b = int(state.range(0));
  const size_t n = 1u << 20;
  Rng rng(2);
  std::vector<uint32_t> codes(n);
  for (auto& c : codes) c = uint32_t(rng.Next()) & MaxCode(b);
  std::vector<uint32_t> packed(PackedByteSize(n, b) / 4 + 1);
  for (auto _ : state) {
    BitPack(codes.data(), n, b, packed.data());
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(n) * 4);
}
BENCHMARK(BM_BitPack)->Arg(1)->Arg(8)->Arg(16);

// Decode-only vs unpack+decode: quantifies the paper's "<10% of cost"
// claim for bit-unpacking within full decompression.
void BM_UnpackPlusDecode(benchmark::State& state) {
  const int b = 8;
  const size_t n = 1u << 20;
  auto data = bench::ExceptionData<int64_t>(n, b, 0, 0.02, 3);
  auto seg = SegmentBuilder<int64_t>::BuildPFor(data, PForParams<int64_t>{b, 0});
  std::vector<int64_t> out(n);
  for (auto _ : state) {
    auto reader = SegmentReader<int64_t>::Open(seg.ValueOrDie().data(),
                                               seg.ValueOrDie().size());
    reader.ValueOrDie().DecompressAll(out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(n) * 8);
}
BENCHMARK(BM_UnpackPlusDecode);

void BM_DecodeOnly(benchmark::State& state) {
  const int b = 8;
  const size_t n = 1u << 20;
  auto data = bench::ExceptionData<int64_t>(n, b, 0, 0.02, 3);
  std::vector<uint32_t> codes(n), miss(n);
  std::vector<int64_t> exc(n), out(n);
  size_t first = 0;
  size_t nexc = CompressPred(data.data(), n, b, int64_t(0), codes.data(),
                             exc.data(), &first, miss.data());
  ForCodec<int64_t> codec(int64_t(0));
  for (auto _ : state) {
    DecompressPatched(codes.data(), n, codec, exc.data(), first, nexc,
                      out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(n) * 8);
}
BENCHMARK(BM_DecodeOnly);

// ---------------------------------------------------------------------------
// Fine-grained access
// ---------------------------------------------------------------------------

void BM_FineGrainedGet(benchmark::State& state) {
  const double rate = double(state.range(0)) / 100.0;
  const size_t n = 1u << 20;
  auto data = bench::ExceptionData<int32_t>(n, 8, 0, rate, 4);
  auto seg = SegmentBuilder<int32_t>::BuildPFor(data, PForParams<int32_t>{8, 0});
  auto reader = SegmentReader<int32_t>::Open(seg.ValueOrDie().data(),
                                             seg.ValueOrDie().size());
  const auto& r = reader.ValueOrDie();
  Rng rng(5);
  std::vector<uint32_t> positions(4096);
  for (auto& p : positions) p = uint32_t(rng.Uniform(n));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Get(positions[i]));
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_FineGrainedGet)->Arg(0)->Arg(10)->Arg(30);

void BM_SequentialPerValue(benchmark::State& state) {
  const size_t n = 1u << 20;
  auto data = bench::ExceptionData<int32_t>(n, 8, 0, 0.1, 6);
  auto seg = SegmentBuilder<int32_t>::BuildPFor(data, PForParams<int32_t>{8, 0});
  auto reader = SegmentReader<int32_t>::Open(seg.ValueOrDie().data(),
                                             seg.ValueOrDie().size());
  std::vector<int32_t> out(n);
  for (auto _ : state) {
    reader.ValueOrDie().DecompressAll(out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_SequentialPerValue);

// ---------------------------------------------------------------------------
// Vector granularity ablation (the RAM-CPU cache design point)
// ---------------------------------------------------------------------------

void BM_VectorGranularity(benchmark::State& state) {
  const size_t vec = size_t(state.range(0));
  const size_t n = 4u << 20;
  auto data = bench::ExceptionData<int32_t>(n, 8, 0, 0.05, 7);
  auto seg = SegmentBuilder<int32_t>::BuildPFor(data, PForParams<int32_t>{8, 0});
  auto reader = SegmentReader<int32_t>::Open(seg.ValueOrDie().data(),
                                             seg.ValueOrDie().size());
  const auto& r = reader.ValueOrDie();
  std::vector<int32_t> buf(vec);
  for (auto _ : state) {
    int64_t acc = 0;
    for (size_t pos = 0; pos < n; pos += vec) {
      r.DecompressRange(pos, std::min(vec, n - pos), buf.data());
      for (size_t i = 0; i < std::min(vec, n - pos); i++) acc += buf[i];
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(n) * 4);
}
BENCHMARK(BM_VectorGranularity)
    ->Arg(128)
    ->Arg(1024)
    ->Arg(8192)
    ->Arg(65536)
    ->Arg(1 << 20);

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

void BM_AnalyzeSample(benchmark::State& state) {
  const size_t s = size_t(state.range(0));
  auto data = bench::ExceptionData<int64_t>(s, 12, 1000, 0.05, 8);
  for (auto _ : state) {
    auto choice = Analyzer<int64_t>::Analyze(data);
    benchmark::DoNotOptimize(choice.est_bits_per_value);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(s));
}
BENCHMARK(BM_AnalyzeSample)->Arg(4096)->Arg(65536);

// ---------------------------------------------------------------------------
// Kernel ISA sweep: scalar vs SIMD backends side by side
// ---------------------------------------------------------------------------

/// One measured kernel variant: best-of-reps wall time plus a hardware
/// counter reading of a single run (ScopedPerfReading), so each row can
/// print IPC / cache-miss / branch-miss next to its bandwidth.
struct IsaMeasurement {
  double seconds = 0;
  PerfReading perf;
};

IsaMeasurement MeasureKernel(const std::function<void()>& fn) {
  IsaMeasurement m;
  m.seconds = bench::BestSeconds(5, fn);
  PerfCounters counters;
  if (counters.available()) {
    ScopedPerfReading scope(&counters, &m.perf);
    fn();
  }
  return m;
}

/// Prints one sweep row, or with `report` records it there instead.
void PrintIsaRow(const char* name, KernelIsa isa, const IsaMeasurement& m,
                 double bytes, double n, double speedup,
                 bench::JsonReport* report) {
  if (report != nullptr) {
    const std::string key = std::string(name) + "/" + KernelIsaName(isa);
    report->Rate(key, bytes, n, m.seconds);
    if (m.perf.IPC() >= 0) {
      report->Metric(key + ".ipc", m.perf.IPC());
      report->Metric(key + ".cache_miss_rate", m.perf.CacheMissRate());
      report->Metric(key + ".branch_miss_rate", m.perf.BranchMissRate());
    }
    if (speedup > 0) report->Metric(key + ".speedup_vs_scalar", speedup);
  } else {
    printf("  %-28s %-6s %8.2f GB/s  %6.2f ns/kval  ipc=%s miss=%s "
           "br=%s",
           name, KernelIsaName(isa), GBPerSec(bytes, m.seconds),
           m.seconds * 1e9 / (n / 1000.0), bench::FmtIpc(m.perf.IPC()).c_str(),
           bench::FmtRate(m.perf.CacheMissRate()).c_str(),
           bench::FmtRate(m.perf.BranchMissRate()).c_str());
    if (speedup > 0) printf("  %4.2fx", speedup);
    printf("\n");
  }
}

/// The tentpole measurement: every supported backend decoding the same
/// packed streams, per bit width, with the scalar column as the baseline.
/// Buffers are sized L1-resident (16 KB out) and each timed run loops the
/// kernel kInner times, so the sweep measures kernel throughput rather
/// than the cache-level store bandwidth a multi-MB working set hits.
/// Each run pins its backend, so the startup selection stands afterwards.
void RunIsaSweep(bench::JsonReport* report) {
  const KernelIsa original = ActiveKernelIsa();
  const auto isas = SupportedKernelIsas();
  const size_t n = 4096;
  const size_t kInner = 2048;
  Rng rng(42);

  if (report == nullptr) {
    printf("\n=== Kernel ISA sweep (scalar vs SIMD) ===\n");
    printf("active backend at startup: %s\n\n", KernelIsaName(original));
  }

  // BitUnpack per bit width. Geometric-mean speedup over widths 1..16 is
  // the acceptance number for the SIMD backends.
  std::vector<double> simd_speedups_1_16;
  for (int b : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 20,
                24, 28, 32}) {
    std::vector<uint32_t> codes(n);
    for (auto& c : codes) c = uint32_t(rng.Next()) & MaxCode(b);
    std::vector<uint32_t> packed(PackedByteSize(n, b) / 4 + 4);
    BitPack(codes.data(), n, b, packed.data());
    std::vector<uint32_t> out(n + 32);
    const double bytes = double(n) * 4 * double(kInner);
    char name[32];
    snprintf(name, sizeof(name), "BitUnpack/%d", b);
    double scalar_seconds = 0;
    for (KernelIsa isa : isas) {
      ScopedKernelIsa pin(isa);
      auto m = MeasureKernel([&] {
        for (size_t k = 0; k < kInner; k++) {
          BitUnpack(packed.data(), n, b, out.data());
        }
      });
      double speedup = 0;
      if (isa == KernelIsa::kScalar) {
        scalar_seconds = m.seconds;
      } else if (scalar_seconds > 0) {
        speedup = scalar_seconds / m.seconds;
        if (isa == original && b <= 16) simd_speedups_1_16.push_back(speedup);
      }
      PrintIsaRow(name, isa, m, bytes, double(n) * double(kInner), speedup,
                  report);
    }
  }

  // Fused unpack+FOR and the PFOR-DELTA prefix sum at one representative
  // width each — the two other decode-path kernels the dispatch serves.
  {
    const int b = 8;
    std::vector<uint32_t> codes(n);
    for (auto& c : codes) c = uint32_t(rng.Next()) & MaxCode(b);
    std::vector<uint32_t> packed(PackedByteSize(n, b) / 4 + 4);
    BitPack(codes.data(), n, b, packed.data());
    std::vector<uint32_t> out32(n);
    std::vector<uint64_t> out64(n);
    const double values = double(n) * double(kInner);
    // One row per backend; a timed run calls `body` kInner times.
    auto sweep = [&](const char* name, double value_bytes, auto&& body) {
      for (KernelIsa isa : isas) {
        ScopedKernelIsa pin(isa);
        auto m = MeasureKernel([&] {
          for (size_t k = 0; k < kInner; k++) body();
        });
        PrintIsaRow(name, isa, m, values * value_bytes, values, 0, report);
      }
    };
    sweep("BitUnpackFor32/8", 4, [&] {
      BitUnpackFor32(packed.data(), n, b, 1000u, out32.data());
    });
    sweep("BitUnpackFor64/8", 8, [&] {
      BitUnpackFor64(packed.data(), n, b, 1000u, out64.data());
    });
    sweep("PrefixSum32", 4, [&] {
      std::memcpy(out32.data(), codes.data(), n * 4);
      PrefixSum32(out32.data(), n, 0);
    });
    sweep("PrefixSum64", 8, [&] {
      for (size_t i = 0; i < n; i++) out64[i] = codes[i];
      PrefixSum64(out64.data(), n, 0);
    });
  }

  const double geomean = bench::GeoMean(simd_speedups_1_16);
  if (report != nullptr) {
    if (geomean > 0) {
      report->Metric(std::string("BitUnpackGeoMeanSpeedup/b1-16/") +
                         KernelIsaName(original),
                     geomean);
    }
  } else if (geomean > 0) {
    printf("\nBitUnpack geomean speedup (b=1..16, %s vs scalar): %.2fx\n\n",
           KernelIsaName(original), geomean);
  }
}

// ---------------------------------------------------------------------------
// Checksum cost: verified vs unverified decode of the same segment
// ---------------------------------------------------------------------------

/// The format-v2 acceptance number: opening a segment with CRC
/// verification on, then decoding it at the paper's 128-value vector
/// granularity, must cost < 5% of the unverified decode bandwidth. The
/// CRC pass is a single streaming sweep per segment open, amortized over
/// every vector decoded from it — this sweep makes that amortization
/// visible (plus a raw CRC32C bandwidth row for context).
void RunChecksumSweep(bench::JsonReport* report) {
  const size_t n = 1u << 20;
  const size_t kGran = 128;  // the paper's vector granularity
  const int b = 8;
  auto data = bench::ExceptionData<int64_t>(n, b, 0, 0.01, 3);
  auto seg = SegmentBuilder<int64_t>::BuildPFor(data, PForParams<int64_t>{b, 0},
                                                {.with_checksums = true});
  SCC_CHECK(seg.ok(), "bench segment build failed");
  const AlignedBuffer& buf = seg.ValueOrDie();
  std::vector<int64_t> out(kGran);

  // Whole-segment decode at 128-value granularity, no verification.
  auto decode_pass = [&] {
    auto r = SegmentReader<int64_t>::Open(buf.data(), buf.size());
    SCC_CHECK(r.ok(), "bench segment open failed");
    for (size_t off = 0; off < n; off += kGran) {
      r.ValueOrDie().DecompressRange(off, kGran, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  };

  // The verify-on cost is (verify once per open) + (decode). Timing the
  // two phases separately and summing is equivalent but far less noisy
  // than subtracting two whole-pass timings: the verify term is ~4% of
  // the decode term, well below this machine's run-to-run jitter.
  const double bytes = double(n) * sizeof(int64_t);
  const double off_s = bench::BestSeconds(9, decode_pass);
  const double ver_s = bench::BestSeconds(9, [&] {
    SCC_CHECK(VerifySegmentChecksums(buf.data(), buf.size()).ok(), "crc");
  });
  const double on_s = off_s + ver_s;
  const double crc_s = bench::BestSeconds(9, [&] {
    benchmark::DoNotOptimize(Crc32c(buf.data(), buf.size()));
  });
  const double overhead = off_s > 0 ? ver_s / off_s : 0.0;

  if (report != nullptr) {
    report->Rate("ChecksumDecode/off", bytes, n, off_s);
    report->Rate("ChecksumDecode/on", bytes, n, on_s);
    report->Metric("ChecksumDecode/on.overhead_vs_off", overhead);
    report->Metric(std::string("Crc32c/") + Crc32cBackendName() +
                       ".bytes_per_second",
                   double(buf.size()) / crc_s);
    return;
  }
  printf("\n=== Checksum cost (PFOR b=%d, %zu values, 128-value vectors) "
         "===\n",
         b, n);
  printf("  %-28s %8.2f GB/s\n", "decode, verify off",
         GBPerSec(bytes, off_s));
  printf("  %-28s %8.2f GB/s  overhead=%.2f%%  [%s, budget 5%%]\n",
         "decode, verify on", GBPerSec(bytes, on_s), overhead * 100.0,
         overhead < 0.05 ? "PASS" : "WARN");
  printf("  %-28s %8.2f GB/s\n",
         (std::string("crc32c sweep (") + Crc32cBackendName() + ")").c_str(),
         GBPerSec(double(buf.size()), crc_s));
}

}  // namespace
}  // namespace scc

int main(int argc, char** argv) {
  if (scc::bench::StripFlag(&argc, argv, "--json")) {
    // Machine-readable mode: the sweeps only, no google-benchmark text.
    scc::bench::JsonReport report("micro_kernels");
    scc::RunIsaSweep(&report);
    scc::RunChecksumSweep(&report);
    report.Write(stdout);
    return 0;
  }
  scc::RunIsaSweep(nullptr);
  scc::RunChecksumSweep(nullptr);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
