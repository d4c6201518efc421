#include "storage/merge_scan.h"

#include <algorithm>

#include "storage/chunk_cursor.h"
#include "storage/storage_metrics.h"

namespace scc {

MergeScanOp::MergeScanOp(const Table* table, BufferManager* bm,
                         std::vector<std::string> columns,
                         const DeltaStore* delta,
                         std::vector<size_t> delta_columns)
    : base_(table, bm, columns), delta_(delta),
      delta_columns_(std::move(delta_columns)) {
  SCC_CHECK(delta_columns_.size() == base_.output_types().size(),
            "delta column mapping arity mismatch");
  for (TypeId t : base_.output_types()) {
    out_.push_back(std::make_unique<Vector>(t));
  }
}

size_t MergeScanOp::EmitInserts(Batch* out) {
  const size_t total = delta_->insert_count();
  if (insert_pos_ >= total) return 0;
  const size_t n = std::min(kVectorSize, total - insert_pos_);
  out->columns.clear();
  for (size_t c = 0; c < out_.size(); c++) {
    const std::vector<int64_t>& src = delta_->inserted(delta_columns_[c]);
    DispatchType(out_[c]->type(), [&](auto tag) {
      using T = decltype(tag);
      T* dst = out_[c]->template data<T>();
      for (size_t i = 0; i < n; i++) dst[i] = T(src[insert_pos_ + i]);
      return 0;
    });
    out_[c]->set_count(n);
    out->columns.push_back(out_[c].get());
  }
  StorageMetrics::Get().merge_insert_rows->Add(n);
  out->rows = n;
  insert_pos_ += n;
  return n;
}

size_t MergeScanOp::Next(Batch* out) {
  while (!base_done_) {
    Batch in;
    size_t n = base_.Next(&in);
    if (n == 0) {
      base_done_ = true;
      break;
    }
    // Filter deleted base rows (selection-vector compaction).
    SelVec sel;
    size_t kept = 0;
    StorageMetrics& sm = StorageMetrics::Get();
    if (delta_->delete_count() == 0) {
      *out = in;
      base_row_ += n;
      sm.merge_base_rows->Add(n);
      return n;
    }
    for (size_t i = 0; i < n; i++) {
      sel.idx[kept] = uint32_t(i);
      kept += delta_->IsDeleted(base_row_ + i) ? 0 : 1;
    }
    sel.count = kept;
    base_row_ += n;
    sm.merge_base_rows->Add(kept);
    sm.merge_deleted_rows->Add(n - kept);
    if (kept == 0) continue;
    out->columns.clear();
    for (size_t c = 0; c < out_.size(); c++) {
      DispatchType(out_[c]->type(), [&](auto tag) {
        using T = decltype(tag);
        Gather(in.col(c)->template data<T>(), sel,
               out_[c]->template data<T>());
        return 0;
      });
      out_[c]->set_count(kept);
      out->columns.push_back(out_[c].get());
    }
    out->rows = kept;
    return kept;
  }
  return EmitInserts(out);
}

void MergeScanOp::Reset() {
  base_.Reset();
  base_row_ = 0;
  insert_pos_ = 0;
  base_done_ = false;
}

Result<Table> Checkpoint(const Table& base, const DeltaStore& delta,
                         BufferManager* bm, ColumnCompression mode) {
  if (delta.column_count() != base.column_count()) {
    return Status::InvalidArgument("delta/base column count mismatch");
  }
  Table merged(base.chunk_values());
  for (size_t c = 0; c < base.column_count(); c++) {
    const StoredColumn* col = base.column(c);
    // Decompress the base column, drop deletes, append inserts, rebuild.
    // An unreadable or corrupt page comes back as the cursor's Status.
    ChunkCursor cursor(&base, bm, {col});
    Status st = Status::OK();
    DispatchType(col->type, [&](auto tag) {
      using T = decltype(tag);
      if constexpr (std::is_integral_v<T>) {
        std::vector<T> values;
        values.reserve(base.rows() + delta.insert_count());
        uint64_t row = 0;
        for (size_t chunk = 0; chunk < base.chunk_count() && st.ok();
             chunk++) {
          st = cursor.Open(chunk);
          while (size_t n = cursor.Next()) {
            const T* src = cursor.batch().col(0)->template data<T>();
            for (size_t i = 0; i < n; i++, row++) {
              if (!delta.IsDeleted(row)) values.push_back(src[i]);
            }
          }
        }
        if (!st.ok()) return 0;
        for (int64_t v : delta.inserted(c)) values.push_back(T(v));
        st = merged.AddColumn<T>(col->name, values, mode);
      } else {
        st = Status::NotImplemented("checkpoint: non-integral column");
      }
      return 0;
    });
    SCC_RETURN_NOT_OK(st);
  }
  return merged;
}

}  // namespace scc
