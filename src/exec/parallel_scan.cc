#include "exec/parallel_scan.h"

#include <atomic>
#include <mutex>

#include "exec/exec_metrics.h"
#include "sys/telemetry.h"

namespace scc {

ParallelScan::ParallelScan(const Table* table, BufferManager* bm,
                           std::vector<std::string> columns, Options options)
    : pool_(ThreadPool::Instance()), options_(options) {
  SCC_CHECK(table->chunk_values() % kVectorSize == 0,
            "chunk size must be a multiple of the vector size");
  for (const std::string& name : columns) {
    const StoredColumn* col = table->column(name);
    SCC_CHECK(col != nullptr, name.c_str());
    cols_.push_back(col);
  }
  morsels_ = table->chunk_count();
  unsigned slots = pool_.worker_count() + 1;  // workers + the caller
  if (options_.threads != 0 && options_.threads < slots) {
    slots = options_.threads;
  }
  if (morsels_ != 0 && slots > morsels_) slots = unsigned(morsels_);
  slots_ = slots == 0 ? 1 : slots;
  cursors_.reserve(slots_);
  for (unsigned s = 0; s < slots_; s++) cursors_.emplace_back(table, bm, cols_);
}

void ParallelScan::SetPushdownBetween(const std::string& column, int64_t lo,
                                      int64_t hi) {
  for (size_t c = 0; c < cols_.size(); c++) {
    if (cols_[c]->name != column) continue;
    for (ChunkCursor& cursor : cursors_) cursor.SetPushdownBetween(c, lo, hi);
    pushdown_status_ = Status::OK();
    return;
  }
  pushdown_status_ = Status::InvalidArgument("pushdown column '" + column +
                                             "' is not scanned");
}

Status ParallelScan::Run(const Visitor& visitor) {
  SCC_RETURN_NOT_OK(pushdown_status_);
  if (morsels_ == 0 || cols_.empty()) return Status::OK();
  // Root of this scan's trace tree: the slots' pool tasks are submitted
  // from this scope, so the pool carries the operation id to whichever
  // threads run them.
  TraceOperation op(options_.trace_label.empty()
                        ? std::string("exec.parallel_scan")
                        : options_.trace_label);
  ExecMetrics& em = ExecMetrics::Get();

  // The first error wins, whether a cancel_check status or an unreadable
  // page. The flag stops every slot at its next morsel boundary;
  // in-flight morsels finish and release their pins as usual.
  std::atomic<size_t> next{0};
  std::atomic<bool> stopped{false};
  std::mutex stop_mu;
  Status stop_status;  // guarded by stop_mu
  auto stop = [&](Status st) {
    {
      std::lock_guard<std::mutex> lock(stop_mu);
      if (stop_status.ok()) stop_status = std::move(st);
    }
    stopped.store(true, std::memory_order_release);
  };
  auto should_stop = [&]() -> bool {
    if (stopped.load(std::memory_order_acquire)) return true;
    if (!options_.cancel_check) return false;
    Status st = options_.cancel_check();
    if (st.ok()) return false;
    stop(std::move(st));
    return true;
  };
  auto work = [&](size_t slot) {
    SCC_TRACE_SPAN("exec.parallel_scan.worker");
    ChunkCursor& cursor = cursors_[slot];
    size_t m;
    while (!should_stop() &&
           (m = next.fetch_add(1, std::memory_order_relaxed)) < morsels_) {
      Status st = cursor.Open(m);
      if (!st.ok()) {
        stop(std::move(st));
        return;
      }
      size_t rows = 0;
      while (size_t n = cursor.Next()) {
        visitor(cursor.batch(), m, slot);
        rows += n;
      }
      cursor.Close();  // unpin before claiming the next morsel
      em.scan_morsels->Increment();
      em.scan_rows->Add(rows);
    }
  };

  // Each slot runs once, on a pool worker or on the participating caller.
  pool_.ParallelFor(slots_, work, slots_ - 1);
  decompress_seconds_ = 0;
  for (const ChunkCursor& c : cursors_) {
    decompress_seconds_ += c.decompress_seconds();
  }
  std::lock_guard<std::mutex> lock(stop_mu);
  return stop_status;
}

}  // namespace scc
