#ifndef SCC_STORAGE_BULK_LOAD_H_
#define SCC_STORAGE_BULK_LOAD_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "storage/storage_metrics.h"
#include "storage/table.h"
#include "sys/timer.h"
#include "util/status.h"

// Morsel-parallel bulk loading (the write-path counterpart of
// core/parallel.h). A column ingests as one task per chunk on the shared
// work-stealing pool: every chunk is analyzed (sample drawn from ITS OWN
// head, exactly as the serial path does) and compressed independently,
// then the finished segments are stitched into the column in chunk order.
//
// Determinism guarantee: chunk ci's segment is a pure function of
// (values[ci*chunk .. ), mode) — no state is shared between chunk tasks,
// and slot ci of the output vector is written only by the task that owns
// ci. Segment bytes, including the v2 CRC32C section checksums, are
// therefore identical for every thread count — and for every kernel ISA,
// because the pack kernels are byte-compatible (bitpack_kernels.h).
// tests/compression_pipeline_test.cc holds this to section-CRC equality
// across threads in {1, 2, 8}.
//
// Header-only but requires linking scc_exec (the pool).

namespace scc {

struct BulkLoadOptions {
  /// Total threads, counting the caller: 0 = pool default, 1 = fully
  /// serial (the pool is never touched).
  unsigned threads = 0;
  ColumnCompression mode = ColumnCompression::kAuto;
};

/// Compresses `values` into a new column of `table` (chunked at the
/// table's chunk_values) using up to opts.threads concurrent chunk builds.
/// Output is byte-identical to Table::AddColumn with the same mode.
template <CodecValue T>
Status BulkLoadColumn(Table* table, const std::string& name,
                      std::span<const T> values,
                      const BulkLoadOptions& opts = {}) {
  Timer timer;
  const size_t chunk_values = table->chunk_values();
  auto col = std::make_unique<StoredColumn>();
  col->name = name;
  col->type = TypeIdOf<T>();
  col->rows = values.size();
  col->chunk_values = chunk_values;
  col->compressed = opts.mode != ColumnCompression::kNone;
  const size_t nchunks =
      values.empty() ? 1
                     : (values.size() + chunk_values - 1) / chunk_values;
  col->chunks.resize(nchunks);
  std::vector<Status> chunk_status(nchunks);
  auto build_one = [&](size_t ci) {
    const size_t lo = ci * chunk_values;
    const size_t n = std::min(chunk_values, values.size() - lo);
    Result<AlignedBuffer> seg =
        BuildColumnChunk<T>(values.subspan(lo, n), opts.mode);
    if (seg.ok()) {
      col->chunks[ci] = seg.MoveValueOrDie();
    } else {
      chunk_status[ci] = seg.status();
    }
  };
  if (opts.threads == 1 || nchunks <= 1) {
    for (size_t ci = 0; ci < nchunks; ci++) build_one(ci);
  } else {
    // Resolve the kernel dispatch table before fanning out so the CPUID
    // probe + publish happens once, not racing on every worker's first
    // pack (same discipline as ParallelDecompress).
    (void)ActiveKernelIsa();
    // threads counts the caller, so the pool-side cap is threads - 1;
    // threads == 1 took the serial path, so the cap cannot underflow.
    ThreadPool::Instance().ParallelFor(
        nchunks, build_one,
        opts.threads == 0 ? ThreadPool::kNoWorkerCap : opts.threads - 1);
  }
  for (size_t ci = 0; ci < nchunks; ci++) {
    SCC_RETURN_NOT_OK(chunk_status[ci]);
  }
  StorageMetrics& sm = StorageMetrics::Get();
  sm.load_columns->Increment();
  sm.load_chunks->Add(nchunks);
  sm.load_rows->Add(values.size());
  sm.load_bytes_out->Add(col->ByteSize());
  sm.load_nanos->Add(uint64_t(timer.ElapsedNanos()));
  return table->AdoptColumn(std::move(col));
}

}  // namespace scc

#endif  // SCC_STORAGE_BULK_LOAD_H_
