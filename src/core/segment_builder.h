#ifndef SCC_CORE_SEGMENT_BUILDER_H_
#define SCC_CORE_SEGMENT_BUILDER_H_

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "bitpack/bitpack.h"
#include "core/codec.h"
#include "core/codec_metrics.h"
#include "core/pdict_hash.h"
#include "core/segment.h"
#include "sys/timer.h"
#include "util/aligned_buffer.h"
#include "util/bitutil.h"
#include "util/status.h"

// Compresses a value array into the self-describing segment layout of
// segment.h. Each 128-value group is compressed independently: predicated
// exception detection (LOOP1), patch-list construction with compulsory
// exceptions (LOOP2), then bit packing — a faithful production version of
// the paper's Section 3.1 compressors.
//
// The packing stage runs through the dispatched pack kernels
// (bitpack/bitpack.h): groups are packed as they are compressed, and an
// exception-free group skips the intermediate code array entirely via the
// fused ForEncodePack kernels (subtract base + mask + pack in one pass).
// Every path masks codes to b bits and zero-pads partial groups the same
// way, so segment bytes are identical across the scalar and AVX2 backends
// and across the fused vs. patched paths.

namespace scc {

/// Build-time format options. Checksums default ON: new segments carry the
/// v2 per-section CRC32C block (~16 bytes per segment, computed at the
/// hardware CRC rate). Turn off for byte-compatibility experiments and the
/// checksum-cost bench rows.
struct SegmentBuildOptions {
  bool with_checksums = true;
  /// Write the per-group min/max summary section (segment.h). Costs
  /// 2 * sizeof(T) bytes per 128 values (= 0.125 bits/value for T =
  /// uint64_t) and one extra scan at build time; enables compressed-domain
  /// selection pushdown to skip whole groups at read time. Summaries are
  /// computed from the decoded values with a deterministic scalar scan, so
  /// segment bytes stay identical across ISAs and thread counts.
  bool with_summaries = true;
};

template <CodecValue T>
class SegmentBuilder {
 public:
  using U = std::make_unsigned_t<T>;

  /// Dispatches on the analyzer's choice.
  static Result<AlignedBuffer> Build(std::span<const T> values,
                                     const CompressionChoice<T>& choice,
                                     const SegmentBuildOptions& opts = {}) {
    switch (choice.scheme) {
      case Scheme::kUncompressed:
        return BuildUncompressed(values, opts);
      case Scheme::kPFor:
        return BuildPFor(values, choice.pfor, opts);
      case Scheme::kPForDelta:
        return BuildPForDelta(values, choice.pfor, opts);
      case Scheme::kPDict:
        return BuildPDict(values, choice.pdict, opts);
    }
    return Status::InvalidArgument("unknown scheme");
  }

  /// Raw array storage (also the fallback when data is incompressible).
  static Result<AlignedBuffer> BuildUncompressed(
      std::span<const T> values, const SegmentBuildOptions& opts = {}) {
    EncodeTimer timer;
    SegmentHeader hdr;
    hdr.scheme = uint8_t(Scheme::kUncompressed);
    hdr.value_size = sizeof(T);
    hdr.count = uint32_t(values.size());
    hdr.flags = FormatFlags(opts);
    hdr.codes_offset = uint32_t(hdr.BodyOffset());
    hdr.total_size =
        uint32_t(hdr.BodyOffset() + values.size() * sizeof(T));
    // v2 marks the (empty) exception section explicitly; legacy wrote 0.
    hdr.exceptions_offset = hdr.total_size;
    AlignedBuffer buf(hdr.total_size);
    std::memcpy(buf.data(), &hdr, sizeof(hdr));
    std::memcpy(buf.data() + hdr.codes_offset, values.data(),
                values.size() * sizeof(T));
    StampChecksums(&buf, hdr);
    CodecMetrics& cm = CodecMetrics::Get();
    cm.encode_values[size_t(Scheme::kUncompressed)]->Add(values.size());
    cm.encode_bytes_out[size_t(Scheme::kUncompressed)]->Add(hdr.total_size);
    return buf;
  }

  static Result<AlignedBuffer> BuildPFor(std::span<const T> values,
                                         const PForParams<T>& params,
                                         const SegmentBuildOptions& opts = {}) {
    EncodeTimer timer;
    SCC_RETURN_NOT_OK(CheckBitWidth(params.bit_width));
    GroupResults g = CompressGroups(values, params, /*deltas=*/false);
    return Assemble(Scheme::kPFor, values, params, g, /*dict=*/{}, opts);
  }

  static Result<AlignedBuffer> BuildPForDelta(
      std::span<const T> values, const PForParams<T>& params,
      const SegmentBuildOptions& opts = {}) {
    EncodeTimer timer;
    SCC_RETURN_NOT_OK(CheckBitWidth(params.bit_width));
    // Delta transform with wraparound; v[-1] := 0 so d[0] = v[0]. The
    // dispatched kernels vectorize the shifted subtraction for the machine
    // widths; narrow types stay scalar.
    std::vector<T> deltas(values.size());
    if constexpr (sizeof(T) == 8) {
      DeltaEncode64(reinterpret_cast<const uint64_t*>(values.data()),
                    values.size(), 0,
                    reinterpret_cast<uint64_t*>(deltas.data()));
    } else if constexpr (sizeof(T) == 4) {
      DeltaEncode32(reinterpret_cast<const uint32_t*>(values.data()),
                    values.size(), 0,
                    reinterpret_cast<uint32_t*>(deltas.data()));
    } else {
      U prev = 0;
      for (size_t i = 0; i < values.size(); i++) {
        deltas[i] = T(U(values[i]) - prev);
        prev = U(values[i]);
      }
    }
    GroupResults g =
        CompressGroups(std::span<const T>(deltas), params, /*deltas=*/true);
    // Per-group running bases: the original value preceding the group.
    g.bases.resize(g.entries.size());
    for (size_t grp = 0; grp < g.entries.size(); grp++) {
      g.bases[grp] = grp == 0 ? T(0) : values[grp * kEntryGroup - 1];
    }
    return Assemble(Scheme::kPForDelta, values, params, g, /*dict=*/{}, opts);
  }

  static Result<AlignedBuffer> BuildPDict(std::span<const T> values,
                                          const PDictParams<T>& params,
                                          const SegmentBuildOptions& opts = {}) {
    EncodeTimer timer;
    SCC_RETURN_NOT_OK(CheckBitWidth(params.bit_width));
    if (params.dict.empty()) {
      return Status::InvalidArgument("PDICT requires a non-empty dictionary");
    }
    const int dict_b = params.bit_width;
    if (dict_b < 32 && params.dict.size() > (size_t(1) << dict_b)) {
      return Status::InvalidArgument("dictionary larger than code range");
    }
    PDictHash<T> hash(params.dict);
    GroupResults g = CompressGroupsDict(values, params, hash);
    return Assemble(Scheme::kPDict, values,
                    PForParams<T>{params.bit_width, T(0)}, g, params.dict,
                    opts);
  }

 private:
  /// flags byte for newly built segments: always version v2; checksum bit
  /// per the build options.
  static uint8_t FormatFlags(const SegmentBuildOptions& opts) {
    uint8_t f = uint8_t(1u << kSegmentVersionShift);
    if (opts.with_checksums) f |= kSegmentFlagChecksums;
    return f;
  }

  /// Computes and writes the SegmentChecksums block of a fully assembled
  /// segment. No-op for segments built without checksums.
  static void StampChecksums(AlignedBuffer* buf, const SegmentHeader& hdr) {
    if (!hdr.HasChecksums()) return;
    const SegmentChecksums sums = ComputeSegmentChecksums(buf->data(), hdr);
    std::memcpy(buf->data() + sizeof(SegmentHeader), &sums, sizeof(sums));
  }

  /// Accumulates wall time of one Build* call into codec.encode.nanos.
  /// Build() dispatches to the timed leaf builders, so it adds no timer of
  /// its own (no double counting).
  struct EncodeTimer {
    Timer t;
    ~EncodeTimer() {
      CodecMetrics::Get().encode_nanos->Add(uint64_t(t.ElapsedNanos()));
    }
  };

  struct GroupResults {
    std::vector<uint32_t> packed;  // bit-packed codes, PackedByteSize(n, b)
    std::vector<uint32_t> entries; // one entry point per group
    std::vector<T> exceptions;     // in linked-list walk order
    std::vector<T> bases;          // PFOR-DELTA running bases (else empty)
    size_t fused_groups = 0;       // took the single-pass ForEncodePack
    size_t patched_groups = 0;     // went through LOOP1 + LOOP2 + BitPack
  };

  static Status CheckBitWidth(int b) {
    if (b < 0 || b > kMaxBitWidth) {
      return Status::InvalidArgument("bit width must be in [0, 32]");
    }
    return Status::OK();
  }

  /// LOOP2 shared by all schemes: converts the group-local miss list into
  /// a linked patch list with compulsory exceptions; appends exception
  /// values, returns the entry point's first-offset field.
  static uint32_t PatchGroup(const T* group, size_t glen, int b,
                             const uint32_t* miss, size_t nmiss,
                             uint32_t* codes, std::vector<T>* exceptions) {
    const size_t max_gap = MaxExceptionGap(b);
    uint32_t first = kNoException;
    size_t prev = SIZE_MAX;
    for (size_t k = 0; k < nmiss; k++) {
      size_t cur = miss[k];
      if (prev == SIZE_MAX) {
        first = uint32_t(cur);
      } else {
        while (cur - prev > max_gap) {
          // Compulsory exception: compressible value stored as exception
          // anyway, just to keep the list connected (Section 3.1).
          size_t comp = prev + max_gap;
          codes[prev] = uint32_t(comp - prev - 1);
          exceptions->push_back(group[comp]);
          prev = comp;
        }
        codes[prev] = uint32_t(cur - prev - 1);
      }
      exceptions->push_back(group[cur]);
      prev = cur;
    }
    if (prev != SIZE_MAX) codes[prev] = 0;  // final member: gap unused
    (void)glen;
    return first;
  }

  /// True when no value of the group escapes [base, base + 2^b) modulo the
  /// value width. Branch-free accumulation the compiler auto-vectorizes, so
  /// the clean-group fast path costs one cheap scan plus the fused pack.
  static bool GroupClean(const T* in, size_t glen, U base,
                         uint32_t max_code) {
    uint32_t bad = 0;
    for (size_t i = 0; i < glen; i++) {
      const U diff = U(in[i]) - base;
      if constexpr (sizeof(T) > 4) {
        bad |= uint32_t((diff >> 32) != 0) |
               uint32_t(uint32_t(diff) > max_code);
      } else {
        bad |= uint32_t(uint32_t(diff) > max_code);
      }
    }
    return bad == 0;
  }

  /// Single-pass encode for an exception-free group: subtract base, mask,
  /// pack — no intermediate code array.
  static void FusedEncodePack(const T* in, size_t glen, int b, U base,
                              uint32_t* dst) {
    static_assert(sizeof(T) >= 4, "narrow types take the code-array path");
    if constexpr (sizeof(T) == 8) {
      ForEncodePack64(reinterpret_cast<const uint64_t*>(in), glen, b,
                      uint64_t(base), dst);
    } else {
      ForEncodePack32(reinterpret_cast<const uint32_t*>(in), glen, b,
                      uint32_t(base), dst);
    }
  }

  static GroupResults CompressGroups(std::span<const T> values,
                                     const PForParams<T>& params,
                                     bool /*deltas*/) {
    const int b = params.bit_width;
    const uint32_t max_code = MaxCode(b);
    const U base = U(params.base);
    const size_t n = values.size();
    const size_t groups = (n + kEntryGroup - 1) / kEntryGroup;
    // One 128-value group packs to exactly this many words.
    const size_t group_words = (kEntryGroup / 32) * size_t(b);

    GroupResults out;
    out.packed.resize(PackedByteSize(n, b) / 4);
    out.entries.resize(groups);
    out.exceptions.reserve(n / 16);

    uint32_t codes[kEntryGroup];
    uint32_t miss[kEntryGroup];
    for (size_t g = 0; g < groups; g++) {
      const size_t lo = g * kEntryGroup;
      const size_t glen = std::min(kEntryGroup, n - lo);
      const T* in = values.data() + lo;
      uint32_t* dst = out.packed.data() + g * group_words;
      const uint32_t exc_index = uint32_t(out.exceptions.size());
      if constexpr (sizeof(T) >= 4) {
        // Exception-free groups (the common case at a well-chosen b) skip
        // LOOP2 and the code array entirely: one vectorizable scan, then
        // the fused subtract+pack kernel.
        if (GroupClean(in, glen, base, max_code)) {
          FusedEncodePack(in, glen, b, base, dst);
          out.entries[g] = MakeEntryPoint(kNoException, exc_index);
          out.fused_groups++;
          continue;
        }
      }
      size_t j = 0;
      /* LOOP1: encode and find exceptions (predicated append) */
      for (size_t i = 0; i < glen; i++) {
        U diff = U(in[i]) - base;
        uint32_t val = uint32_t(diff);
        bool is_exc;
        if constexpr (sizeof(T) > 4) {
          // Wide types can alias into the 32-bit code range; any diff with
          // high bits set is an exception regardless of its low word.
          is_exc = (diff >> 32) != 0 || val > max_code;
        } else {
          is_exc = val > max_code;
        }
        codes[i] = val;
        miss[j] = uint32_t(i);
        j += is_exc;
      }
      uint32_t first =
          PatchGroup(in, glen, b, miss, j, codes, &out.exceptions);
      BitPack(codes, glen, b, dst);
      out.entries[g] = MakeEntryPoint(first, exc_index);
      out.patched_groups++;
    }
    return out;
  }

  static GroupResults CompressGroupsDict(std::span<const T> values,
                                         const PDictParams<T>& params,
                                         const PDictHash<T>& hash) {
    const int b = params.bit_width;
    const size_t n = values.size();
    const size_t groups = (n + kEntryGroup - 1) / kEntryGroup;
    const size_t group_words = (kEntryGroup / 32) * size_t(b);

    GroupResults out;
    out.packed.resize(PackedByteSize(n, b) / 4);
    out.entries.resize(groups);
    out.exceptions.reserve(n / 16);

    uint32_t codes[kEntryGroup];
    uint32_t miss[kEntryGroup];
    for (size_t g = 0; g < groups; g++) {
      const size_t lo = g * kEntryGroup;
      const size_t glen = std::min(kEntryGroup, n - lo);
      const T* in = values.data() + lo;
      uint32_t* dst = out.packed.data() + g * group_words;
      const uint32_t exc_index = uint32_t(out.exceptions.size());
      size_t j = 0;
      for (size_t i = 0; i < glen; i++) {
        uint32_t val = hash.Lookup(in[i]);  // kDictMiss when absent
        codes[i] = val;
        miss[j] = uint32_t(i);
        j += (val == kDictMiss);
      }
      uint32_t first =
          PatchGroup(in, glen, b, miss, j, codes, &out.exceptions);
      BitPack(codes, glen, b, dst);
      out.entries[g] = MakeEntryPoint(first, exc_index);
      out.patched_groups++;
    }
    return out;
  }

  static Result<AlignedBuffer> Assemble(Scheme scheme,
                                        std::span<const T> values,
                                        const PForParams<T>& params,
                                        const GroupResults& g,
                                        std::span<const T> dict,
                                        const SegmentBuildOptions& opts) {
    if (g.exceptions.size() >= (1u << 24)) {
      return Status::ResourceExhausted(
          "more than 2^24 exceptions in one segment; use smaller segments");
    }
    const int b = params.bit_width;
    const size_t n = values.size();
    SegmentHeader hdr;
    hdr.scheme = uint8_t(scheme);
    hdr.bit_width = uint8_t(b);
    hdr.value_size = sizeof(T);
    hdr.count = uint32_t(n);
    hdr.exception_count = uint32_t(g.exceptions.size());
    hdr.entry_count = uint32_t(g.entries.size());
    hdr.base_bits = uint64_t(U(params.base));
    hdr.flags = FormatFlags(opts);

    size_t off = hdr.BodyOffset();
    hdr.entries_offset = uint32_t(off);
    off += g.entries.size() * sizeof(uint32_t);
    if (!g.bases.empty()) {
      off = AlignUp(off, sizeof(T));
      hdr.bases_offset = uint32_t(off);
      off += g.bases.size() * sizeof(T);
    }
    size_t padded_dict = 0;
    if (!dict.empty()) {
      padded_dict = std::max<size_t>(dict.size(), kEntryGroup);
      off = AlignUp(off, sizeof(T));
      hdr.dict_offset = uint32_t(off);
      hdr.dict_size = uint32_t(dict.size());
      off += padded_dict * sizeof(T);
    }
    // Per-group min/max summaries (pushdown skip bounds), interleaved
    // min[g], max[g]. They live below codes_offset so meta_crc covers them.
    const bool summaries = opts.with_summaries && !g.entries.empty();
    if (summaries) {
      off = AlignUp(off, sizeof(T));
      hdr.summary_offset = uint32_t(off);
      off += 2 * g.entries.size() * sizeof(T);
    }
    off = AlignUp(off, 4);
    hdr.codes_offset = uint32_t(off);
    off += PackedByteSize(n, b);
    off = AlignUp(off, sizeof(T));
    hdr.exceptions_offset = uint32_t(off);
    off += g.exceptions.size() * sizeof(T);
    hdr.total_size = uint32_t(off);

    AlignedBuffer buf(hdr.total_size);
    std::memset(buf.data(), 0, hdr.total_size);
    std::memcpy(buf.data(), &hdr, sizeof(hdr));
    std::memcpy(buf.data() + hdr.entries_offset, g.entries.data(),
                g.entries.size() * sizeof(uint32_t));
    if (!g.bases.empty()) {
      std::memcpy(buf.data() + hdr.bases_offset, g.bases.data(),
                  g.bases.size() * sizeof(T));
    }
    if (!dict.empty()) {
      std::memcpy(buf.data() + hdr.dict_offset, dict.data(),
                  dict.size() * sizeof(T));
      // Remaining padded entries stay zero; bogus gap codes in LOOP1 may
      // read them but LOOP2 overwrites the results.
    }
    if (summaries) {
      T* summary = reinterpret_cast<T*>(buf.data() + hdr.summary_offset);
      for (size_t grp = 0; grp < g.entries.size(); grp++) {
        const size_t lo = grp * kEntryGroup;
        const size_t glen = std::min(kEntryGroup, n - lo);
        T mn = values[lo], mx = values[lo];
        for (size_t i = 1; i < glen; i++) {
          mn = std::min(mn, values[lo + i]);
          mx = std::max(mx, values[lo + i]);
        }
        summary[2 * grp] = mn;
        summary[2 * grp + 1] = mx;
      }
    }
    // Codes were packed group-at-a-time during compression.
    if (!g.packed.empty()) {
      std::memcpy(buf.data() + hdr.codes_offset, g.packed.data(),
                  PackedByteSize(n, b));
    }
    // Exception section grows backward from total_size: exception i lives
    // at total_size - (i+1)*sizeof(T).
    T* exc_end = reinterpret_cast<T*>(buf.data() + hdr.total_size);
    for (size_t i = 0; i < g.exceptions.size(); i++) {
      exc_end[-(ptrdiff_t(i) + 1)] = g.exceptions[i];
    }
    StampChecksums(&buf, hdr);
    CodecMetrics& cm = CodecMetrics::Get();
    const size_t si = CodecMetrics::SchemeIndex(scheme);
    cm.encode_values[si]->Add(n);
    cm.encode_bytes_out[si]->Add(hdr.total_size);
    cm.encode_exceptions[si]->Add(g.exceptions.size());
    // Batched per segment, not per group: one relaxed add each.
    cm.pack_values->Add(n);
    cm.pack_fused_groups->Add(g.fused_groups);
    cm.pack_patched_groups->Add(g.patched_groups);
    return buf;
  }
};

}  // namespace scc

#endif  // SCC_CORE_SEGMENT_BUILDER_H_
