#ifndef SCC_CORE_ANALYZER_H_
#define SCC_CORE_ANALYZER_H_

#include <algorithm>
#include <span>
#include <vector>

#include "core/codec.h"
#include "core/codec_metrics.h"
#include "core/exception_model.h"
#include "util/bitutil.h"

// Automatic compression-scheme and parameter selection (Section 3.1,
// "Choosing Compression Schemes"). Gathers a sample, sorts it once
// (O(s log s)), then for every candidate bit width b:
//   PFOR       - PFOR_ANALYZE_BITS finds the longest stretch of the sorted
//                sample whose range fits b bits; everything outside the
//                stretch is an exception and the stretch start is the base.
//   PFOR-DELTA - the same analysis on the sorted deltas of the sample.
//   PDICT      - a frequency histogram, re-sorted descending; the top 2^b
//                buckets become the dictionary.
// The scheme/width pair minimizing estimated bits/value wins; raw storage
// is the fallback when nothing beats value_bits.

namespace scc {

/// Number of values a PDICT dictionary is amortized over (the chunk
/// size); dictionary storage is charged to the estimate at this
/// granularity.
inline constexpr size_t kDictAmortization = 64 * 1024;

template <CodecValue T>
struct AnalyzerOptions {
  bool allow_pfor = true;
  bool allow_pfor_delta = true;
  bool allow_pdict = true;
  /// PDICT dictionaries are capped at 2^max_dict_bits entries.
  int max_dict_bits = 16;
};

template <CodecValue T>
class Analyzer {
 public:
  using U = std::make_unsigned_t<T>;

  /// Picks the best scheme and parameters for `sample`.
  static CompressionChoice<T> Analyze(std::span<const T> sample,
                                      const AnalyzerOptions<T>& opts = {}) {
    constexpr int kValueBits = int(sizeof(T)) * 8;
    CompressionChoice<T> best;
    best.scheme = Scheme::kUncompressed;
    best.est_bits_per_value = kValueBits;
    if (sample.empty()) return best;

    std::vector<T> sorted(sample.begin(), sample.end());
    std::sort(sorted.begin(), sorted.end());

    if (opts.allow_pfor) {
      ConsiderPFor(sorted, Scheme::kPFor, &best);
    }
    if (opts.allow_pfor_delta && sample.size() > 1) {
      // Analyze the n-1 TRUE deltas, seeding prev with sample[0]. Seeding
      // with 0 would smuggle the first value's absolute magnitude in as
      // deltas[0]; on a large-base, small-delta column that one outlier
      // widens the sorted-delta range, inflates the modeled exception rate
      // at small b (a sample exception rate of 1/n is compulsory-heavy at
      // n <= 128), and mis-picks the bit width or even the scheme. The
      // encoder still stores d[0] = v[0] — as group 0's one exception —
      // which is noise the rate model shouldn't see.
      std::vector<T> deltas(sample.size() - 1);
      for (size_t i = 1; i < sample.size(); i++) {
        deltas[i - 1] = T(U(sample[i]) - U(sample[i - 1]));
      }
      std::sort(deltas.begin(), deltas.end());
      ConsiderPFor(deltas, Scheme::kPForDelta, &best);
    }
    if (opts.allow_pdict) {
      ConsiderPDict(sorted, opts, &best);
    }
    CodecMetrics& cm = CodecMetrics::Get();
    cm.analyzer_runs->Increment();
    cm.analyzer_choice[CodecMetrics::SchemeIndex(best.scheme)]->Increment();
    return best;
  }

  /// The paper's PFOR_ANALYZE_BITS: one pass over the sorted sample to
  /// find the longest stretch [lo, hi] with V[hi] - V[lo] <= 2^b - 1.
  /// Returns {start index, length}.
  static std::pair<size_t, size_t> AnalyzeBits(std::span<const T> sorted,
                                               int b) {
    const U range = U(MaxCode(b));
    size_t best_lo = 0, best_len = 0;
    size_t lo = 0;
    for (size_t hi = 0; hi < sorted.size(); hi++) {
      // The difference must be reduced modulo the value width: for sub-int
      // types the subtraction promotes to int and could go negative.
      while (U(U(sorted[hi]) - U(sorted[lo])) > range) lo++;
      if (hi - lo + 1 > best_len) {
        best_len = hi - lo + 1;
        best_lo = lo;
      }
    }
    return {best_lo, best_len};
  }

 private:
  /// 2^b dictionary capacity, shift-safe for ANY non-negative b (saturates
  /// instead of shifting past the word width).
  static size_t DictCapacity(int b) {
    if (b >= int(sizeof(size_t)) * 8) return SIZE_MAX;
    return size_t(1) << b;
  }

  static void ConsiderPFor(std::span<const T> sorted, Scheme scheme,
                           CompressionChoice<T>* best) {
    constexpr int kValueBits = int(sizeof(T)) * 8;
    const size_t n = sorted.size();
    // b is capped one below the value width: at b == value_bits the codes
    // are as wide as the values and raw storage wins anyway.
    const int max_b = std::min(kMaxBitWidth, kValueBits - 1);
    // Once some width's best stretch covers the whole sample, every wider
    // width trivially does too (same window, larger allowed range) with
    // the same {0, n} answer — skip the O(n) rescans. This is exact, not
    // a heuristic; it just prunes the per-width sweep, which dominates
    // analyzer time on wide-span samples.
    std::pair<size_t, size_t> cut{0, 0};
    for (int b = 0; b <= max_b; b++) {
      if (cut.second < n) cut = AnalyzeBits(sorted, b);
      auto [lo, len] = cut;
      const double e = double(n - len) / double(n);
      const double bits = EstimatedBitsPerValue(
          e, b, kValueBits, scheme == Scheme::kPForDelta);
      if (bits < best->est_bits_per_value) {
        best->scheme = scheme;
        best->pfor.bit_width = b;
        best->pfor.base = sorted[lo];
        best->est_bits_per_value = bits;
        best->est_exception_rate = e;
      }
    }
  }

  static void ConsiderPDict(std::span<const T> sorted,
                            const AnalyzerOptions<T>& opts,
                            CompressionChoice<T>* best) {
    constexpr int kValueBits = int(sizeof(T)) * 8;
    const size_t n = sorted.size();
    // Build the frequency histogram from the sorted sample.
    std::vector<std::pair<size_t, T>> hist;  // (count, value)
    for (size_t i = 0; i < n;) {
      size_t j = i;
      while (j < n && sorted[j] == sorted[i]) j++;
      hist.emplace_back(j - i, sorted[i]);
      i = j;
    }
    std::sort(hist.begin(), hist.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    // Values seen only once in the sample carry no evidence of reuse;
    // admitting them to the dictionary would overfit (a dictionary of the
    // whole sample always "covers" it). Treat singletons as exceptions.
    while (!hist.empty() && hist.back().first < 2) hist.pop_back();
    if (hist.empty()) return;
    // Prefix sums of descending frequencies -> exception rate per 2^b cut.
    std::vector<size_t> covered(hist.size() + 1, 0);
    for (size_t i = 0; i < hist.size(); i++) {
      covered[i + 1] = covered[i] + hist[i].first;
    }
    // Codes are 32-bit and the builder rejects widths above kMaxBitWidth,
    // so clamp the candidate range regardless of what max_dict_bits says:
    // without the clamp a 64-bit type with max_dict_bits > 32 could select
    // a pdict.bit_width the builder must then refuse, and the capacity
    // computation sat one branch away from an out-of-range shift.
    const int max_b = std::min({opts.max_dict_bits, kValueBits, kMaxBitWidth});
    for (int b = 0; b <= max_b; b++) {
      const size_t dict_size = std::min(hist.size(), DictCapacity(b));
      if (dict_size == 0) continue;
      const double e = 1.0 - double(covered[dict_size]) / double(n);
      double bits = EstimatedBitsPerValue(e, b, kValueBits);
      // Charge dictionary storage amortized over the chunk.
      bits += double(dict_size) * kValueBits / double(kDictAmortization);
      if (bits < best->est_bits_per_value) {
        best->scheme = Scheme::kPDict;
        best->pdict.bit_width = b;
        best->pdict.dict.clear();
        best->pdict.dict.reserve(dict_size);
        for (size_t i = 0; i < dict_size; i++) {
          best->pdict.dict.push_back(hist[i].second);
        }
        best->est_bits_per_value = bits;
        best->est_exception_rate = e;
      }
    }
  }
};

}  // namespace scc

#endif  // SCC_CORE_ANALYZER_H_
