#ifndef SCC_EXEC_PARALLEL_SCAN_H_
#define SCC_EXEC_PARALLEL_SCAN_H_

#include <functional>
#include <string>
#include <vector>

#include "engine/operators.h"
#include "exec/thread_pool.h"
#include "storage/buffer_manager.h"
#include "storage/chunk_cursor.h"
#include "storage/table.h"

// Morsel-driven parallel table scan (Leis et al.'s morsel model applied
// to the paper's RAM->cache pipeline). A morsel is one compressed chunk
// — the buffer manager's I/O unit — so a worker that claims a morsel
// owns the whole page fetch + decode for it, through its slot's
// ChunkCursor (storage/chunk_cursor.h):
//
//   claim morsel (atomic counter)  ->  the only fetcher of its pages
//   FetchPinned all column pages   ->  pages can't be evicted mid-decode
//   decode vector-at-a-time        ->  visitor(batch, morsel, slot)
//   drop pins                      ->  pages become evictable again
//
// Morsels are claimed from an ascending claim list. Without pushdown it
// lists every morsel; SetPushdownBetween keeps only the morsels whose
// chunk summary (StoredColumn::ranges) meets [lo, hi], so a pruned morsel
// is never pinned, fetched, opened or selected. A column without a
// summary prunes nothing.
//
// The visitor runs on whatever worker decoded the morsel, concurrently.
// Use the `slot` argument to index per-slot partial state (e.g.
// aggregation partials): slots are dense in [0, slot_count()) and a slot
// is never used by two threads at once. Within a morsel, vectors arrive
// in table order, and each slot claims its morsels in ascending order.
//
// Pages are fetched on demand, by the claiming slot only. There is no
// read-ahead: SimDisk charges virtual time and the harness assumes I/O
// fully overlaps decode (storage/sim_disk.h), so fetching a page early
// would buy nothing and fetch it twice.
//
// Telemetry: exec.scan.morsels / exec.scan.morsels_pruned /
// exec.scan.rows. A scan that runs to completion adds morsel_count() to
// morsels + morsels_pruned.

namespace scc {

struct ParallelScanOptions {
  /// Max threads working the scan including the caller (0 = pool
  /// workers + caller).
  unsigned threads = 0;
  /// Trace-operation label for this scan (interned; per-query labels like
  /// "scan.q=3" are fine). Empty = the generic "exec.parallel_scan".
  /// When tracing is on, Run() opens a TraceOperation under this name, so
  /// every worker span — on whichever thread it runs — exports
  /// as one per-operation tree.
  std::string trace_label;
  /// Cooperative cancellation, checked at every morsel boundary (before a
  /// worker claims its next morsel — so a cancelled scan never pins new
  /// pages). A non-OK return stops the scan: in-flight morsels complete,
  /// their page pins release as usual, no further morsels are claimed,
  /// and Run() returns the first non-OK status observed. The service
  /// layer passes a deadline check here (Status::DeadlineExceeded); the
  /// callback must be thread-safe — it runs concurrently on every slot.
  std::function<Status()> cancel_check;
};

class ParallelScan {
 public:
  using Options = ParallelScanOptions;

  /// visitor(batch, morsel, slot): `batch` holds one vector (<= kVectorSize
  /// rows) per scanned column; valid only during the call.
  using Visitor =
      std::function<void(const Batch& batch, size_t morsel, size_t slot)>;

  ParallelScan(const Table* table, BufferManager* bm,
               std::vector<std::string> columns, Options options = {});

  /// Runs the scan on the shared pool; the calling thread participates.
  /// Returns OK on completion, or the first error: a cancel_check status,
  /// a page unreadable after the buffer manager's retries (IOError /
  /// Corruption), or a segment that fails validation (Corruption). An
  /// error stops the scan the way cancellation does: no further morsels
  /// are claimed, every pinned page is released, and the visitor simply
  /// stops receiving batches, so its partial state must be discarded.
  [[nodiscard]] Status Run(const Visitor& visitor);

  /// Compressed-domain selection pushdown, mirroring
  /// TableScanOp::SetPushdownBetween: `column` (one of the scanned
  /// columns) is filtered to [lo, hi] inside each worker's decode loop —
  /// selection straight off the packed codes, min/max-disqualified groups
  /// never decoded, and the other columns decode only the 128-value
  /// groups holding selected rows. Morsels whose chunk summary proves
  /// they hold no value in [lo, hi] are dropped from the claim list, and
  /// slot_count() shrinks to at most the morsels left. With pushdown set,
  /// batch column data is valid only at the indices in selection(slot);
  /// every vector of every claimed morsel is delivered, empty or not. A
  /// column that is not scanned makes Run() return InvalidArgument.
  void SetPushdownBetween(const std::string& column, int64_t lo, int64_t hi);

  /// Per-slot selection over the batch most recently delivered to the
  /// visitor on `slot`; meaningful only with pushdown configured.
  const SelVec& selection(size_t slot) const {
    return cursors_[slot].selection();
  }
  /// Mutable so the visitor can refine its slot's selection in place.
  SelVec* mutable_selection(size_t slot) {
    return cursors_[slot].mutable_selection();
  }

  /// Parallel slots handed to the visitor; size per-slot partials to this
  /// after SetPushdownBetween. (Worker threads + the participating caller,
  /// capped by Options::threads and the number of claimed morsels.)
  unsigned slot_count() const { return unsigned(cursors_.size()); }
  /// Morsels in the table, claimed or pruned.
  size_t morsel_count() const { return morsels_; }

  /// Summed across slots: total CPU seconds inside decompression over
  /// every Run() so far (wall time is less — slots overlap).
  double decompress_seconds() const { return decompress_seconds_; }

 private:
  ThreadPool& pool_;
  Options options_;
  std::vector<const StoredColumn*> cols_;
  size_t morsels_ = 0;
  std::vector<size_t> claims_;  // ascending morsels Run() claims
  double decompress_seconds_ = 0;
  Status pushdown_status_;  // InvalidArgument for an unscanned column
  std::vector<ChunkCursor> cursors_;  // one per slot, touched by its owner
};

}  // namespace scc

#endif  // SCC_EXEC_PARALLEL_SCAN_H_
