// Compressed-execution ablations:
//
// 1. Section 2.1: a selection on a dictionary-compressed column evaluated
//    three ways:
//      decode+compare - decompress values, compare each to the literal
//      code-compare   - compare the b-bit codes to the literal's code
//                       (DecompressCodes; exceptions handled via Get)
//    The code-level plan reads the same compressed bytes but skips value
//    materialization and compares narrow integers, so it is both faster
//    and touches less memory — the paper's "selection directly on the
//    integer code" optimization.
//
// 2. Selection pushdown sweep: SegmentReader::SelectBetween (summary skip
//    + packed SelectBetween kernels) against decode-then-select, across
//    selectivities from 0.1% to 99%, on a uniform column (summaries never
//    skip: the win is pure kernel) and a clustered/sorted one (summaries
//    skip or bulk-accept almost every group). Both plans must agree
//    exactly; the sweep records per-value latency.
//
// --json PATH writes the sweep in the benches' one report format
// (bench/bench_util.h).
// Bandwidth numbers are single-threaded and the working set at the sweep
// size fits the last-level cache on typical hardware — treat absolute
// GB/s from 1-core CI runners as indicative only.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/segment_builder.h"
#include "core/segment_reader.h"

namespace scc {
namespace {

constexpr size_t kN = 4u << 20;
constexpr int kReps = 3;

// Selection sweep working set: 1M values keeps the packed codes (~1.25 MB
// at b=10) cache-resident so the sweep measures the kernels, not DRAM.
constexpr size_t kSweepN = 1u << 20;
constexpr int kSweepB = 10;

void RunDictAblation() {
  // A 16-value "category" domain over int64 values, 1% exceptions.
  std::vector<int64_t> dict;
  for (int i = 0; i < 16; i++) dict.push_back(int64_t(i) * 1000003 + 17);
  Rng rng(5);
  std::vector<int64_t> values(kN);
  for (auto& v : values) {
    v = rng.Bernoulli(0.01) ? int64_t(rng.Next() | (1ull << 40))
                            : dict[rng.Uniform(dict.size())];
  }
  auto seg =
      SegmentBuilder<int64_t>::BuildPDict(values, PDictParams<int64_t>{4, dict});
  SCC_CHECK(seg.ok(), "build");
  auto reader = SegmentReader<int64_t>::Open(seg.ValueOrDie().data(),
                                             seg.ValueOrDie().size());
  const auto& r = reader.ValueOrDie();
  const int64_t kLiteral = dict[7];
  const uint32_t kCode = 7;

  size_t hits_decode = 0, hits_codes = 0;
  std::vector<int64_t> decoded(kN);
  double t_decode = bench::BestSeconds(kReps, [&] {
    r.DecompressAll(decoded.data());
    size_t h = 0;
    for (size_t i = 0; i < kN; i++) h += (decoded[i] == kLiteral);
    hits_decode = h;
  });

  std::vector<uint32_t> codes(kN);
  std::vector<uint32_t> exc_pos;
  double t_codes = bench::BestSeconds(kReps, [&] {
    exc_pos.clear();
    SCC_CHECK(r.DecompressCodes(0, kN, codes.data(), &exc_pos).ok(), "codes");
    for (uint32_t p : exc_pos) codes[p] = 0xFFFFFFFFu;  // mask gap codes
    size_t h = 0;
    for (size_t i = 0; i < kN; i++) h += (codes[i] == kCode);
    // Exceptions are by construction not dictionary members; the check
    // costs one Get per exception.
    for (uint32_t p : exc_pos) h += (r.Get(p) == kLiteral);
    hits_codes = h;
  });

  SCC_CHECK(hits_decode == hits_codes, "plans disagree");
  const double bytes = double(kN) * 8;
  printf("selected %zu of %zu rows (literal = dict[7])\n\n", hits_decode, kN);
  printf("  plan            time (ms)   effective GB/s\n");
  printf("  decode+compare   %8.2f   %10.2f\n", t_decode * 1e3,
         GBPerSec(bytes, t_decode));
  printf("  code-compare     %8.2f   %10.2f\n", t_codes * 1e3,
         GBPerSec(bytes, t_codes));
}

void RunSelectionSweep(bench::JsonReport* report) {
  bench::PrintHeader("Selection pushdown vs decode-then-select",
                     "compressed-domain SelectBetween");
  // Uniform: every 128-value group spans nearly the whole [0, 1024)
  // domain, so the min/max summaries never skip a group — the compressed
  // plan wins only through the packed SelectBetween kernels. Clustered:
  // the same values sorted, so at low selectivity the summaries skip
  // nearly every group and at high selectivity they bulk-accept them.
  Rng rng(7);
  std::vector<int64_t> uniform(kSweepN);
  for (auto& v : uniform) {
    v = rng.Bernoulli(0.01) ? int64_t(rng.Next() & 0xFFFFFFF)  // exception
                            : int64_t(rng.Uniform(1u << kSweepB));
  }
  std::vector<int64_t> clustered = uniform;
  std::sort(clustered.begin(), clustered.end());

  struct Shape {
    const char* name;
    const std::vector<int64_t>* values;
  };
  const Shape shapes[] = {{"uniform", &uniform}, {"clustered", &clustered}};
  for (const Shape& shape : shapes) {
    auto seg = SegmentBuilder<int64_t>::BuildPFor(
        *shape.values, PForParams<int64_t>{kSweepB, 0});
    SCC_CHECK(seg.ok(), "build sweep segment");
    auto reader = SegmentReader<int64_t>::Open(seg.ValueOrDie().data(),
                                               seg.ValueOrDie().size());
    const auto& r = reader.ValueOrDie();
    printf("\n%s data, %zu x int64 in %d-bit codes (%.2f MB packed):\n\n",
           shape.name, kSweepN, kSweepB,
           double(seg.ValueOrDie().size()) / 1048576.0);
    printf("  select. |  decode+select  |   compressed    | speedup\n");
    printf("          |  ms    Mrows/s  |  ms    Mrows/s  |\n");
    printf("  --------+-----------------+-----------------+--------\n");
    std::vector<int64_t> decoded(kSweepN);
    std::vector<uint32_t> sel_dec(kSweepN), sel_push(kSweepN);
    for (double s : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.99}) {
      // [0, q) over the uniform [0, 1024) domain selects ~s of the rows.
      const int64_t lo = 0;
      const int64_t hi = int64_t(s * double(1u << kSweepB)) - 1;
      size_t cnt_dec = 0, cnt_push = 0;
      const double t_dec = bench::BestSeconds(kReps, [&] {
        r.DecompressAll(decoded.data());
        size_t c = 0;
        for (size_t i = 0; i < kSweepN; i++) {
          sel_dec[c] = uint32_t(i);
          c += size_t(decoded[i] >= lo && decoded[i] <= hi);
        }
        cnt_dec = c;
      });
      const double t_push = bench::BestSeconds(kReps, [&] {
        cnt_push = r.SelectBetween(0, kSweepN, lo, hi, sel_push.data());
      });
      SCC_CHECK(cnt_dec == cnt_push, "plans disagree");
      SCC_CHECK(std::equal(sel_dec.begin(), sel_dec.begin() + cnt_dec,
                           sel_push.begin()),
                "selections disagree");
      printf("  %5.1f%%  | %5.2f %9.1f | %5.2f %9.1f | %6.2fx\n", s * 100,
             t_dec * 1e3, kSweepN / t_dec / 1e6, t_push * 1e3,
             kSweepN / t_push / 1e6, t_dec / t_push);
      char key[64];
      snprintf(key, sizeof(key), "%s.s%04.1f.", shape.name, s * 100);
      report->Metric(std::string(key) + "decoded_ns_per_value",
                     t_dec * 1e9 / double(kSweepN));
      report->Metric(std::string(key) + "compressed_ns_per_value",
                     t_push * 1e9 / double(kSweepN));
      report->Metric(std::string(key) + "speedup", t_dec / t_push);
    }
  }
  printf("\nThe compressed plan never materializes the 8-byte values: it "
         "skips\ndisqualified groups from the summaries, bulk-accepts "
         "fully-qualifying ones,\nand runs the packed SelectBetween kernel "
         "over the rest.\n");
}

}  // namespace

int Main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  bench::PrintHeader("Selection on dictionary codes vs decoded values",
                     "Section 2.1 (compressed execution)");
  RunDictAblation();

  bench::JsonReport report("micro_compressed_exec");
  report.Config("sweep_n", double(kSweepN));
  report.Config("sweep_bits", kSweepB);
  RunSelectionSweep(&report);
  if (json_path != nullptr && !report.Save(json_path)) return 1;

  printf("\nPaper reference (Section 2.1): selecting on the integer code "
         "needs less\nI/O and a cheaper predicate than decoding to the "
         "value domain first.\n");
  return 0;
}

}  // namespace scc

int main(int argc, char** argv) { return scc::Main(argc, argv); }
