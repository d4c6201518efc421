#ifndef SCC_CORE_SEGMENT_READER_H_
#define SCC_CORE_SEGMENT_READER_H_

#include <algorithm>
#include <cstring>
#include <span>

#include "bitpack/bitpack.h"
#include "core/codec.h"
#include "core/codec_metrics.h"
#include "core/segment.h"
#include "util/bitutil.h"
#include "util/status.h"

// Decompression side of the segment format. Three access paths, mirroring
// Section 3.1:
//  * DecompressAll / DecompressRange — the sequential scan path: per
//    128-value group, bit-unpack into a stack buffer, LOOP1 decode all,
//    LOOP2 patch the exception linked list (for PFOR-DELTA: patch first,
//    then running sum from the group's stored base).
//  * Get — fine-grained random access: walk the group's exception list
//    from the entry point without decompressing (PFOR/PDICT), or decode
//    the 128-value group (PFOR-DELTA, which needs the running sum).
//
// The reader does not own the segment bytes: it wraps memory held by the
// buffer manager, which caches segments in compressed form (Figure 1).

namespace scc {

/// Open-time verification options. Checksum verification defaults OFF here
/// because the scan path Opens a reader per page over buffer-manager
/// memory that was already verified at page-fix time; FileStore and the
/// buffer manager opt in at their I/O boundaries instead.
struct SegmentOpenOptions {
  bool verify_checksums = false;
};

template <CodecValue T>
class SegmentReader {
 public:
  using U = std::make_unsigned_t<T>;

  /// Validates the header and wraps `data` (not copied; must outlive the
  /// reader). With opts.verify_checksums, additionally recomputes every
  /// section CRC of a checksummed segment before returning.
  static Result<SegmentReader<T>> Open(const uint8_t* data, size_t size,
                                       const SegmentOpenOptions& opts = {}) {
    if (size < sizeof(SegmentHeader)) {
      return Status::Corruption("segment shorter than header");
    }
    SegmentHeader hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    SCC_RETURN_NOT_OK(hdr.Validate(size));
    if (hdr.value_size != sizeof(T)) {
      return Status::InvalidArgument("segment value width mismatch");
    }
    if (opts.verify_checksums) {
      SCC_RETURN_NOT_OK(VerifySegmentChecksums(data, size));
    }
    return SegmentReader<T>(data, hdr);
  }

  const SegmentHeader& header() const { return hdr_; }
  size_t count() const { return hdr_.count; }
  Scheme scheme() const { return hdr_.GetScheme(); }
  int bit_width() const { return hdr_.bit_width; }
  double compression_ratio() const { return hdr_.CompressionRatio(); }
  size_t exception_count() const { return hdr_.exception_count; }

  /// Decompresses the whole segment into `out` (count() values).
  void DecompressAll(T* out) const { DecompressRange(0, hdr_.count, out); }

  /// Decompresses values [start, start + n) into `out`.
  void DecompressRange(size_t start, size_t n, T* out) const {
    SCC_DCHECK(start + n <= hdr_.count);
    if (n == 0) return;
    // One sharded relaxed add per *vector*, not per value: the whole
    // telemetry cost of the scan decompress hot path.
    CodecMetrics::Get()
        .decode_values[CodecMetrics::SchemeIndex(scheme())]
        ->Add(n);
    if (scheme() == Scheme::kUncompressed) {
      std::memcpy(out, Raw() + start, n * sizeof(T));
      return;
    }
    const size_t first_group = start / kEntryGroup;
    const size_t last_group = (start + n - 1) / kEntryGroup;
    T tmp[kEntryGroup];
    for (size_t g = first_group; g <= last_group; g++) {
      const size_t glo = g * kEntryGroup;
      const size_t glen = std::min(kEntryGroup, hdr_.count - glo);
      const size_t lo = std::max(start, glo);
      const size_t hi = std::min(start + n, glo + glen);
      if (lo == glo && hi == glo + glen) {
        DecodeGroup(g, glen, out + (glo - start));
      } else {
        DecodeGroup(g, glen, tmp);
        std::memcpy(out + (lo - start), tmp + (lo - glo),
                    (hi - lo) * sizeof(T));
      }
    }
  }

  /// Fine-grained access to the value at position `idx` (Section 3.1's
  /// finegrained_decompress).
  T Get(size_t idx) const {
    SCC_DCHECK(idx < hdr_.count);
    CodecMetrics::Get().random_access_calls->Increment();
    switch (scheme()) {
      case Scheme::kUncompressed:
        return Raw()[idx];
      case Scheme::kPFor:
        return GetPatched(idx, [this](uint32_t c) {
          return T(U(uint64_t(hdr_.base_bits)) + U(c));
        });
      case Scheme::kPDict:
        return GetPatched(
            idx, [this](uint32_t c) { return Dict()[ClampDictCode(c)]; });
      case Scheme::kPForDelta: {
        // The running sum makes point access decode the enclosing group.
        const size_t g = idx / kEntryGroup;
        const size_t glen =
            std::min(kEntryGroup, size_t(hdr_.count) - g * kEntryGroup);
        T tmp[kEntryGroup];
        DecodeGroup(g, glen, tmp);
        return tmp[idx % kEntryGroup];
      }
    }
    return T(0);
  }

  /// Bytes of the code section (useful for bandwidth accounting).
  size_t code_section_bytes() const {
    return PackedByteSize(hdr_.count, hdr_.bit_width);
  }

  /// True when the segment carries the per-group min/max summary section
  /// that lets SelectBetween skip whole groups.
  bool has_summaries() const { return hdr_.HasSummaries(); }

  /// Compressed-domain selection pushdown: writes i (ascending, relative
  /// to `start`) for every position in [start, start + n) whose value v
  /// satisfies lo <= v <= hi (inclusive, in T's ordering) and returns the
  /// count. `out` needs room for n entries. The result is always exact —
  /// the fast paths only change how it is computed:
  ///  * groups the min/max summaries disqualify are skipped without
  ///    touching their code bytes;
  ///  * groups the summaries prove fully qualifying emit an index range;
  ///  * partially-qualifying PFOR groups translate [lo, hi] into a code
  ///    interval (valid when code -> base + code is monotone, i.e. the
  ///    frame does not wrap T's ordering) and run the dispatched packed
  ///    SelectBetween kernels — no value decode. PDICT groups unpack codes
  ///    and test a qualifying-code table built once per call.
  ///  * everything else (PFOR-DELTA, wrapping frames, narrow value types,
  ///    oversized dictionaries) decodes the group and selects scalar.
  /// The kernel path always selects a whole group. Exception slots hold
  /// patch-list gap codes, not data, so it then re-checks each exception
  /// value against [lo, hi] while walking the group's patch list and
  /// patches the verdicts into the selection in place. A window that cuts
  /// a group runs the same path into a group-local buffer and copies out
  /// the indices inside the window.
  size_t SelectBetween(size_t start, size_t n, T lo, T hi,
                       uint32_t* out) const {
    SCC_DCHECK(start + n <= hdr_.count);
    if (n == 0 || lo > hi) return 0;
    if (scheme() == Scheme::kUncompressed) {
      const T* raw = Raw() + start;
      size_t cnt = 0;
      for (size_t i = 0; i < n; i++) {
        out[cnt] = uint32_t(i);
        cnt += size_t(raw[i] >= lo && raw[i] <= hi);
      }
      return cnt;
    }
    CodecMetrics& cm = CodecMetrics::Get();
    const int b = hdr_.bit_width;
    const T* summary =
        hdr_.HasSummaries()
            ? reinterpret_cast<const T*>(data_ + hdr_.summary_offset)
            : nullptr;

    // PFOR predicate translation into code space: v = T(base + c), so when
    // the map is monotone over [0, max_code] the value range [lo, hi]
    // becomes the code interval [clo, chi]. A frame whose span wraps T's
    // ordering (possible when the analyzer picked a base near the type
    // max) is not monotone; those segments take the decode fallback.
    bool pfor_kernel = false;
    uint32_t clo = 1, chi = 0;  // empty interval: only exceptions qualify
    if constexpr (sizeof(T) >= 4) {
      if (scheme() == Scheme::kPFor) {
        const U base = U(uint64_t(hdr_.base_bits));
        const uint32_t max_code = MaxCode(b);
        const T base_v = T(base);
        const T max_v = T(U(base + U(max_code)));
        if (base_v <= max_v) {
          pfor_kernel = true;
          if (lo <= max_v && hi >= base_v) {
            clo = lo <= base_v ? 0 : uint32_t(U(lo) - base);
            chi = hi >= max_v ? max_code : uint32_t(U(hi) - base);
          }
        }
      }
    }

    // PDICT qualifying-code table over the padded dictionary region (the
    // dictionary is frequency-ordered, not sorted, so there is no interval
    // to exploit). Indexed by ClampDictCode, whose limit is exactly qlim.
    constexpr uint32_t kMaxQualDict = 512;
    bool qual[kMaxQualDict];
    bool have_qual = false;
    if (scheme() == Scheme::kPDict) {
      const uint32_t qlim =
          std::max<uint32_t>(hdr_.dict_size, uint32_t(kEntryGroup));
      if (qlim <= kMaxQualDict) {
        const T* dict = Dict();
        for (uint32_t c = 0; c < qlim; c++) {
          qual[c] = c < hdr_.dict_size && dict[c] >= lo && dict[c] <= hi;
        }
        have_qual = true;
      }
    }

    const size_t first_group = start / kEntryGroup;
    const size_t last_group = (start + n - 1) / kEntryGroup;
    size_t cnt = 0;
    size_t skipped = 0, full = 0, kernel = 0, decoded_groups = 0;
    for (size_t g = first_group; g <= last_group; g++) {
      const size_t glo = g * kEntryGroup;
      const size_t glen = std::min(kEntryGroup, size_t(hdr_.count) - glo);
      // The window within the group.
      const uint32_t wlo = uint32_t(std::max(start, glo) - glo);
      const uint32_t whi = uint32_t(std::min(start + n, glo + glen) - glo);
      if (summary != nullptr) {
        const T mn = summary[2 * g];
        const T mx = summary[2 * g + 1];
        if (mx < lo || mn > hi) {
          skipped++;
          continue;
        }
        if (mn >= lo && mx <= hi) {
          for (size_t i = wlo; i < whi; i++) {
            out[cnt++] = uint32_t(glo + i - start);
          }
          full++;
          continue;
        }
      }
      if (!pfor_kernel && !have_qual) {
        T decoded[kEntryGroup];
        DecodeGroup(g, glen, decoded);
        for (size_t i = wlo; i < whi; i++) {
          out[cnt] = uint32_t(glo + i - start);
          cnt += size_t(decoded[i] >= lo && decoded[i] <= hi);
        }
        decoded_groups++;
        continue;
      }
      // Kernel path over the whole group. A group inside the window emits
      // final indices straight into `out`; a cut group selects into
      // `local` (group-relative) and copies out the window's share.
      const bool whole = wlo == 0 && whi == glen;
      uint32_t local[kEntryGroup];
      uint32_t* sel = whole ? out + cnt : local;
      const uint32_t rel = whole ? uint32_t(glo - start) : 0;
      const uint32_t* words = CodeWords() + g * (kEntryGroup / 32) * size_t(b);
      size_t k;
      if (pfor_kernel) {
        k = BitSelectBetween(words, glen, b, clo, chi, rel, sel);
      } else {
        uint32_t codes[kEntryGroup];
        BitUnpack(words, glen, b, codes);
        k = 0;
        for (size_t i = 0; i < glen; i++) {
          sel[k] = rel + uint32_t(i);
          k += size_t(qual[ClampDictCode(codes[i])]);
        }
      }
      // The selection judged each exception slot's gap code, not its
      // value: re-decide it on the stored exception value and insert into
      // / remove from the sorted run with a short memmove.
      const GroupExceptions exc = ExceptionsOf(g);
      size_t cur = exc.first;
      for (size_t e = 0; e < exc.count && cur < glen; e++) {
        const T v = Exception(exc.index + e);
        const bool want = v >= lo && v <= hi;
        const uint32_t target = rel + uint32_t(cur);
        uint32_t* p = std::lower_bound(sel, sel + k, target);
        const bool have = p != sel + k && *p == target;
        if (want && !have) {
          std::memmove(p + 1, p, size_t(sel + k - p) * sizeof(uint32_t));
          *p = target;
          k++;
        } else if (!want && have) {
          std::memmove(p, p + 1, size_t(sel + k - p - 1) * sizeof(uint32_t));
          k--;
        }
        cur += size_t(BitExtract(CodeWords(), glo + cur, b)) + 1;
      }
      if (whole) {
        cnt += k;
      } else {
        uint32_t* from = std::lower_bound(local, local + k, wlo);
        uint32_t* to = std::lower_bound(from, local + k, whi);
        for (; from != to; from++) out[cnt++] = uint32_t(glo + *from - start);
      }
      kernel++;
    }
    // Batched per call (one vector), not per group.
    if (skipped) cm.pushdown_groups_skipped->Add(skipped);
    if (full) cm.pushdown_groups_full->Add(full);
    if (kernel) cm.pushdown_groups_kernel->Add(kernel);
    if (decoded_groups) cm.pushdown_groups_decoded->Add(decoded_groups);
    return cnt;
  }

  /// PDICT only: the decode dictionary (dict_size() entries).
  const T* dictionary() const {
    SCC_DCHECK(scheme() == Scheme::kPDict);
    return Dict();
  }
  size_t dict_size() const { return hdr_.dict_size; }

  /// Compressed execution (Section 2.1): materializes the raw b-bit code
  /// stream for [start, start+n) WITHOUT decoding values, appending the
  /// in-range positions (relative to `start`) whose codes are patch-list
  /// gaps rather than data to `exception_positions`. A selection on
  /// dictionary codes (e.g. gender = 1 instead of gender = "FEMALE") can
  /// run directly on `codes`, falling back to Get() only for the listed
  /// exceptions. Valid for kPFor and kPDict; kPForDelta codes are deltas
  /// and not directly comparable.
  Status DecompressCodes(size_t start, size_t n, uint32_t* codes,
                         std::vector<uint32_t>* exception_positions) const {
    if (scheme() != Scheme::kPFor && scheme() != Scheme::kPDict) {
      return Status::InvalidArgument(
          "DecompressCodes requires PFOR or PDICT");
    }
    SCC_DCHECK(start + n <= hdr_.count);
    if (n == 0) return Status::OK();
    CodecMetrics::Get().compressed_exec_codes->Add(n);
    const int b = hdr_.bit_width;
    const size_t first_group = start / kEntryGroup;
    const size_t last_group = (start + n - 1) / kEntryGroup;
    uint32_t gcodes[kEntryGroup];
    for (size_t g = first_group; g <= last_group; g++) {
      const size_t glo = g * kEntryGroup;
      const size_t glen = std::min(kEntryGroup, size_t(hdr_.count) - glo);
      BitUnpack(CodeWords() + g * (kEntryGroup / 32) * size_t(b), glen, b,
                gcodes);
      const size_t lo = std::max(start, glo);
      const size_t hi = std::min(start + n, glo + glen);
      std::memcpy(codes + (lo - start), gcodes + (lo - glo),
                  (hi - lo) * sizeof(uint32_t));
      // Walk this group's exception list; report in-range members.
      const GroupExceptions exc = ExceptionsOf(g);
      size_t cur = exc.first;
      for (size_t k = 0; k < exc.count && cur < glen; k++) {
        size_t pos = glo + cur;
        if (pos >= lo && pos < hi) {
          exception_positions->push_back(uint32_t(pos - start));
        }
        cur += size_t(gcodes[cur]) + 1;
      }
    }
    return Status::OK();
  }

 private:
  SegmentReader(const uint8_t* data, const SegmentHeader& hdr)
      : data_(data), hdr_(hdr) {}

  const T* Raw() const {
    return reinterpret_cast<const T*>(data_ + hdr_.codes_offset);
  }
  const uint32_t* Entries() const {
    return reinterpret_cast<const uint32_t*>(data_ + hdr_.entries_offset);
  }
  const T* Bases() const {
    return reinterpret_cast<const T*>(data_ + hdr_.bases_offset);
  }
  const T* Dict() const {
    return reinterpret_cast<const T*>(data_ + hdr_.dict_offset);
  }
  const uint32_t* CodeWords() const {
    return reinterpret_cast<const uint32_t*>(data_ + hdr_.codes_offset);
  }
  /// Exception i; the section grows backward from the segment's end.
  T Exception(size_t i) const {
    const T* end = reinterpret_cast<const T*>(data_ + hdr_.total_size);
    return end[-(ptrdiff_t(i) + 1)];
  }

  /// Group g's patch list: the group offset of its first member
  /// (kNoException, past any group, when it has none), that member's
  /// index in the exception section, and the member count. The count is
  /// clamped so corrupt headers or entry points can never drive a walk
  /// past the exception section (defense in depth on top of Validate());
  /// every walk also stops at the group's end.
  struct GroupExceptions {
    size_t first;
    size_t index;
    size_t count;
  };
  GroupExceptions ExceptionsOf(size_t g) const {
    const uint32_t entry = Entries()[g];
    const size_t index = EntryExceptionIndex(entry);
    const size_t end = std::min<size_t>(
        g + 1 < hdr_.entry_count ? EntryExceptionIndex(Entries()[g + 1])
                                 : hdr_.exception_count,
        hdr_.exception_count);
    return {EntryFirstOffset(entry), index, end > index ? end - index : 0};
  }

  /// Bounds a (possibly corrupt) dictionary code to the padded dictionary
  /// section, whose extent Validate() guarantees. Exception slots carry
  /// gap codes, not dictionary indices, so clamping them to 0 is harmless:
  /// LOOP2 patches those positions with the stored exception value.
  uint32_t ClampDictCode(uint32_t c) const {
    const uint32_t lim =
        std::max<uint32_t>(hdr_.dict_size, uint32_t(kEntryGroup));
    return c < lim ? c : 0;
  }

  /// Sequential decode of group `g` (glen values) into `out`.
  ///
  /// For 4/8-byte PFOR(-DELTA) values LOOP1 runs as the fused dispatched
  /// unpack+FOR kernel straight into `out` — no intermediate code array.
  /// The exception walk then recovers each gap code from the decoded
  /// output (out[cur] = base + gap before patching), so LOOP2 needs no
  /// codes[] either. Smaller value types and PDICT keep the unpack-into-
  /// scratch shape: PDICT needs codes as dictionary indices, and sub-4-byte
  /// lanes are not worth a dedicated kernel family.
  void DecodeGroup(size_t g, size_t glen, T* __restrict out) const {
    const int b = hdr_.bit_width;
    const uint32_t* words = CodeWords() + g * (kEntryGroup / 32) * size_t(b);
    // The exception count bounds the LOOP2 walk (the final list member's
    // gap code is unused).
    const GroupExceptions exc = ExceptionsOf(g);
    switch (scheme()) {
      case Scheme::kPFor: {
        const U base = U(uint64_t(hdr_.base_bits));
        UnpackForInto(words, glen, b, base, out);
        PatchFused(base, glen, exc, out);
        break;
      }
      case Scheme::kPForDelta: {
        const U base = U(uint64_t(hdr_.base_bits));
        UnpackForInto(words, glen, b, base, out);
        /* patch BEFORE the running sum (paper footnote 3) */
        PatchFused(base, glen, exc, out);
        RunningSumInto(out, glen, U(Bases()[g]));
        break;
      }
      case Scheme::kPDict: {
        uint32_t codes[kEntryGroup];
        BitUnpack(words, glen, b, codes);
        const T* dict = Dict();
        if (b <= 7) {
          // 2^b <= kEntryGroup: every code lands inside the padded
          // dictionary section by construction, no clamp needed.
          for (size_t i = 0; i < glen; i++) out[i] = dict[codes[i]];
        } else {
          // Wider codes can exceed the padded region on corrupt input;
          // clamp keeps the read in-bounds (LOOP2 overwrites gap slots).
          for (size_t i = 0; i < glen; i++) {
            out[i] = dict[ClampDictCode(codes[i])];
          }
        }
        for (size_t cur = exc.first, k = 0; k < exc.count && cur < glen;
             k++) {
          const size_t next = cur + size_t(codes[cur]) + 1;
          out[cur] = Exception(exc.index + k);
          cur = next;
        }
        break;
      }
      case Scheme::kUncompressed:
        SCC_DCHECK(false);
        break;
    }
  }

  /// LOOP1 for PFOR(-DELTA): dispatched fused unpack+base-add for 4/8-byte
  /// values (writes exactly glen values — safe for DecompressRange's
  /// direct-into-caller-buffer path), scratch-array shape otherwise.
  static void UnpackForInto(const uint32_t* words, size_t glen, int b,
                            U base, T* __restrict out) {
    if constexpr (sizeof(T) == 4) {
      BitUnpackFor32(words, glen, b, uint32_t(base),
                     reinterpret_cast<uint32_t*>(out));
    } else if constexpr (sizeof(T) == 8) {
      BitUnpackFor64(words, glen, b, uint64_t(base),
                     reinterpret_cast<uint64_t*>(out));
    } else {
      uint32_t codes[kEntryGroup];
      BitUnpack(words, glen, b, codes);
      for (size_t i = 0; i < glen; i++) out[i] = T(base + U(codes[i]));
    }
  }

  /// LOOP2 without a code array: before patching, out[cur] still holds
  /// base + gap_code, so the next-position step recovers the gap from the
  /// decoded value itself.
  void PatchFused(U base, size_t glen, const GroupExceptions& exc,
                  T* __restrict out) const {
    for (size_t cur = exc.first, k = 0; k < exc.count && cur < glen; k++) {
      const size_t next = cur + size_t(uint32_t(U(out[cur]) - base)) + 1;
      out[cur] = Exception(exc.index + k);
      cur = next;
    }
  }

  /// PFOR-DELTA epilogue via the dispatched prefix-sum kernels.
  static void RunningSumInto(T* out, size_t glen, U start) {
    if constexpr (sizeof(T) == 4) {
      PrefixSum32(reinterpret_cast<uint32_t*>(out), glen, uint32_t(start));
    } else if constexpr (sizeof(T) == 8) {
      PrefixSum64(reinterpret_cast<uint64_t*>(out), glen, uint64_t(start));
    } else {
      U acc = start;
      for (size_t i = 0; i < glen; i++) {
        acc += U(out[i]);
        out[i] = T(acc);
      }
    }
  }

  /// Point lookup for PFOR/PDICT: walk the exception list; if `idx` is on
  /// it return the stored exception, otherwise decode its code.
  template <typename DecodeFn>
  T GetPatched(size_t idx, DecodeFn decode) const {
    const int b = hdr_.bit_width;
    const size_t g = idx / kEntryGroup;
    const size_t x = idx % kEntryGroup;
    const GroupExceptions exc = ExceptionsOf(g);
    const uint32_t* words = CodeWords();
    const size_t gbase = g * kEntryGroup;
    size_t i = exc.first;  // kNoException = 0x80 ends the walk
    size_t k = 0;
    while (k < exc.count && i < x) {
      i += BitExtract(words, gbase + i, b) + 1;
      k++;
    }
    if (k < exc.count && i == x) return Exception(exc.index + k);
    return decode(BitExtract(words, gbase + x, b));
  }

  const uint8_t* data_;
  SegmentHeader hdr_;
};

}  // namespace scc

#endif  // SCC_CORE_SEGMENT_READER_H_
