// scc_inspect — dump the structure of a stored column file or table
// directory: per-chunk scheme, bit width, exception rate and compression
// ratio. The operational "what did the analyzer do to my data" tool.
//
//   scc_inspect <table-dir>              # every column in the MANIFEST
//   scc_inspect <table-dir> <column>     # one column, per-chunk detail
//   scc_inspect --telemetry <table-dir>  # also decode every chunk and
//                                        # print the telemetry snapshot
//   scc_inspect --verify <table-dir>     # re-derive every chunk's
//                                        # per-section CRCs; non-zero
//                                        # exit on any mismatch
//   scc_inspect --isa                    # print the selected decode
//                                        # kernel backend and exit

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bitpack/bitpack.h"
#include "core/segment.h"
#include "core/segment_reader.h"
#include "engine/operators.h"
#include "storage/file_store.h"
#include "sys/telemetry.h"
#include "util/crc32c.h"

namespace scc {
namespace {

void PrintColumn(const StoredColumn& col, bool per_chunk) {
  size_t raw = col.rows * TypeSize(col.type);
  printf("%-20s %-4s rows=%-10zu chunks=%-5zu %8.2f MB -> %8.2f MB "
         "(%.2fx)\n",
         col.name.c_str(), TypeName(col.type), col.rows, col.chunk_count(),
         raw / 1048576.0, col.ByteSize() / 1048576.0,
         col.ByteSize() ? double(raw) / col.ByteSize() : 0.0);
  if (!per_chunk) return;
  for (size_t i = 0; i < col.chunks.size(); i++) {
    if (col.chunks[i].size() < sizeof(SegmentHeader)) {
      printf("  chunk %-4zu TRUNCATED (%zu bytes, header needs %zu)\n", i,
             col.chunks[i].size(), sizeof(SegmentHeader));
      continue;
    }
    SegmentHeader hdr;
    std::memcpy(&hdr, col.chunks[i].data(), sizeof(hdr));
    printf("  chunk %-4zu %-12s b=%-3u n=%-8u exc=%-8u (%.2f%%)  "
           "%.1f bits/value\n",
           i, SchemeName(hdr.GetScheme()), hdr.bit_width, hdr.count,
           hdr.exception_count,
           hdr.count ? 100.0 * hdr.exception_count / hdr.count : 0.0,
           hdr.count ? 8.0 * hdr.total_size / hdr.count : 0.0);
  }
}

/// Full decode of every chunk of `col` (validating as it goes), so the
/// codec.*.decode metric family reflects the whole table. Returns false
/// if any chunk fails segment validation.
bool DecodeColumn(const StoredColumn& col) {
  bool ok = true;
  DispatchType(col.type, [&](auto tag) {
    using T = decltype(tag);
    if constexpr (std::is_integral_v<T>) {
      std::vector<T> out;
      for (const AlignedBuffer& seg : col.chunks) {
        auto reader = SegmentReader<T>::Open(seg.data(), seg.size());
        if (!reader.ok()) {
          ok = false;
          continue;
        }
        out.resize(reader.ValueOrDie().count());
        reader.ValueOrDie().DecompressAll(out.data());
      }
    } else {
      ok = false;  // float columns are stored via the integer codec paths
    }
    return 0;
  });
  return ok;
}

/// Re-derives every chunk's section CRCs and prints a per-chunk verdict.
/// Returns the number of chunks whose stored checksum block mismatches.
size_t VerifyColumn(const StoredColumn& col) {
  size_t bad = 0;
  printf("%-20s ", col.name.c_str());
  for (size_t i = 0; i < col.chunks.size(); i++) {
    const AlignedBuffer& seg = col.chunks[i];
    SegmentHeader hdr;
    if (seg.size() < sizeof(hdr)) {
      printf("\n  chunk %-4zu TRUNCATED (%zu bytes)", i, seg.size());
      bad++;
      continue;
    }
    std::memcpy(&hdr, seg.data(), sizeof(hdr));
    if (Status st = hdr.Validate(seg.size()); !st.ok()) {
      printf("\n  chunk %-4zu INVALID HEADER: %s", i, st.ToString().c_str());
      bad++;
      continue;
    }
    const SegmentChecksumReport r = CheckSegmentChecksums(seg.data(), hdr);
    if (!r.present || !r.ok()) {
      printf("\n  chunk %-4zu v%u %s%s%s%s%s", i, hdr.FormatVersion(),
             r.present ? "CRC MISMATCH:" : "no checksums (legacy)",
             r.header_ok ? "" : " header", r.meta_ok ? "" : " meta",
             r.codes_ok ? "" : " codes", r.exceptions_ok ? "" : " exceptions");
      if (r.present) bad++;
    }
  }
  printf(bad == 0 ? "%zu chunks OK\n" : "\n  => %zu chunks FAILED\n",
         bad == 0 ? col.chunk_count() : bad);
  return bad;
}

/// Reports the dispatch decision: which kernel ISA decodes will use on
/// this host (honours SCC_KERNEL_ISA), plus what the CPU would support.
void PrintIsa() {
  printf("active kernel isa: %s\n", KernelIsaName(ActiveKernelIsa()));
  printf("supported:        ");
  for (KernelIsa isa : SupportedKernelIsas()) printf(" %s", KernelIsaName(isa));
  printf("\n");
}

int Run(int argc, char** argv) {
  bool telemetry = false;
  bool verify = false;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry = true;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--isa") == 0) {
      PrintIsa();
      return 0;
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.empty()) {
    fprintf(stderr,
            "usage: %s [--telemetry] [--verify] [--isa] <table-dir> "
            "[column]\n",
            argv[0]);
    return 2;
  }
  if (telemetry) SetTelemetryEnabled(true);
  // --verify reports per-chunk status itself, so skip load-time
  // verification — otherwise a single bad chunk would abort the scan
  // before we could say which sections disagree.
  auto table = FileStore::Load(pos[0], {.verify_checksums = !verify});
  if (!table.ok()) {
    fprintf(stderr, "error: %s\n", table.status().ToString().c_str());
    return 1;
  }
  const Table& t = table.ValueOrDie();
  printf("table %s: %zu columns, %zu rows, %.2f MB stored\n\n", pos[0],
         t.column_count(), t.rows(), t.ByteSize() / 1048576.0);
  int rc = 0;
  if (verify) {
    printf("checksum backend: crc32c-%s\n\n", Crc32cBackendName());
    size_t bad = 0;
    if (pos.size() >= 2) {
      const StoredColumn* col = t.column(std::string(pos[1]));
      if (col == nullptr) {
        fprintf(stderr, "no such column: %s\n", pos[1]);
        return 1;
      }
      bad += VerifyColumn(*col);
    } else {
      for (size_t c = 0; c < t.column_count(); c++) {
        bad += VerifyColumn(*t.column(c));
      }
    }
    printf("\nverify: %s\n", bad == 0 ? "all chunks OK" : "FAILED");
    return bad == 0 ? 0 : 1;
  }
  if (pos.size() >= 2) {
    const StoredColumn* col = t.column(std::string(pos[1]));
    if (col == nullptr) {
      fprintf(stderr, "no such column: %s\n", pos[1]);
      return 1;
    }
    PrintColumn(*col, /*per_chunk=*/true);
    if (telemetry && !DecodeColumn(*col)) rc = 1;
  } else {
    for (size_t c = 0; c < t.column_count(); c++) {
      PrintColumn(*t.column(c), /*per_chunk=*/false);
      if (telemetry && !DecodeColumn(*t.column(c))) rc = 1;
    }
  }
  if (telemetry) {
    printf("\n-- telemetry --\n%s",
           MetricsRegistry::Instance().Snapshot().ToTable().c_str());
    if (rc != 0) fprintf(stderr, "warning: some chunks failed to decode\n");
  }
  return rc;
}

}  // namespace
}  // namespace scc

int main(int argc, char** argv) { return scc::Run(argc, argv); }
