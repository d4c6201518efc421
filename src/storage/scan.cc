#include "storage/scan.h"

#include <cstring>

#include "engine/primitives.h"
#include "storage/storage_metrics.h"
#include "sys/telemetry.h"
#include "sys/timer.h"

namespace scc {

namespace {

std::vector<const StoredColumn*> ResolveColumns(
    const Table* table, const std::vector<std::string>& names) {
  std::vector<const StoredColumn*> cols;
  for (const std::string& name : names) {
    const StoredColumn* col = table->column(name);
    SCC_CHECK(col != nullptr, name.c_str());
    cols.push_back(col);
  }
  return cols;
}

}  // namespace

TableScanOp::TableScanOp(const Table* table, BufferManager* bm,
                         std::vector<std::string> columns, Mode mode)
    : table_(table), mode_(mode), cols_(ResolveColumns(table, columns)),
      cursor_(table, bm, cols_) {
  SCC_CHECK(table->chunk_values() % kVectorSize == 0,
            "chunk size must be a multiple of the vector size");
  for (const StoredColumn* col : cols_) types_.push_back(col->type);
  if (mode_ == Mode::kPageWise) {
    pages_.resize(cols_.size());
    vectors_.reserve(cols_.size());
    for (const StoredColumn* col : cols_) vectors_.emplace_back(col->type);
  }
}

void TableScanOp::SetPushdownBetween(const std::string& column, int64_t lo,
                                     int64_t hi) {
  pushdown_col_ = -1;
  for (size_t c = 0; c < cols_.size(); c++) {
    if (cols_[c]->name == column) pushdown_col_ = int(c);
  }
  SCC_CHECK(pushdown_col_ >= 0, "pushdown column must be scanned");
  pushdown_lo_ = lo;
  pushdown_hi_ = hi;
  cursor_.SetPushdownBetween(size_t(pushdown_col_), lo, hi);
}

Status TableScanOp::OpenChunk(size_t chunk) {
  SCC_RETURN_NOT_OK(cursor_.Open(chunk));
  if (mode_ == Mode::kVectorWise) return Status::OK();
  // I/O-RAM style: decompress the whole page back into RAM first.
  SCC_TRACE_SPAN("scan.decompress_page");
  Timer t;
  page_rows_ = table_->column(0)->ChunkRows(chunk);
  page_pos_ = 0;
  for (size_t c = 0; c < cols_.size(); c++) {
    pages_[c].Resize(page_rows_ * TypeSize(cols_[c]->type));
    cursor_.reader(c).Decode(0, page_rows_, pages_[c].data());
  }
  decompress_seconds_ += t.ElapsedSeconds();
  return Status::OK();
}

size_t TableScanOp::CopyPageVector() {
  if (page_pos_ >= page_rows_) return 0;
  const size_t n = std::min(kVectorSize, page_rows_ - page_pos_);
  Timer t;
  // Copy the vector out of the RAM-resident page (the extra memory
  // traffic Figure 7 charges this approach for).
  for (size_t c = 0; c < cols_.size(); c++) {
    const size_t width = TypeSize(cols_[c]->type);
    std::memcpy(vectors_[c].raw(), pages_[c].data() + page_pos_ * width,
                n * width);
    vectors_[c].set_count(n);
  }
  if (pushdown_col_ >= 0) {
    // Page-wise keeps the full decode and derives the identical selection
    // from the decoded values, so results never depend on the mode.
    const Vector& fv = vectors_[size_t(pushdown_col_)];
    SelVec* sel = cursor_.mutable_selection();
    DispatchType(fv.type(), [&](auto tag) {
      using T = decltype(tag);
      if constexpr (std::is_integral_v<T>) {
        T tlo, thi;
        if (!ClampPushdownBounds<T>(pushdown_lo_, pushdown_hi_, &tlo, &thi)) {
          sel->count = 0;
        } else {
          SelectBetween(fv.data<T>(), n, tlo, thi, sel);
        }
      }
      return 0;
    });
  }
  decompress_seconds_ += t.ElapsedSeconds();
  page_pos_ += n;
  return n;
}

size_t TableScanOp::Next(Batch* out) {
  const double decompress0 = decompress_seconds_;
  const double cursor0 = cursor_.decompress_seconds();
  size_t n;
  while ((n = mode_ == Mode::kVectorWise ? cursor_.Next()
                                         : CopyPageVector()) == 0) {
    if (next_chunk_ == table_->chunk_count()) {
      cursor_.Close();
      return 0;
    }
    Status st = OpenChunk(next_chunk_++);
    // The scan operator has no error channel in Next(); an unreadable or
    // corrupt page is a hard stop, not silent data.
    SCC_CHECK(st.ok(), st.ToString().c_str());
  }
  if (mode_ == Mode::kVectorWise) {
    out->columns = cursor_.batch().columns;
  } else {
    out->columns.clear();
    for (Vector& v : vectors_) out->columns.push_back(&v);
  }
  decompress_seconds_ += cursor_.decompress_seconds() - cursor0;
  StorageMetrics& sm = StorageMetrics::Get();
  sm.scan_vectors->Increment();
  sm.scan_rows->Add(n);
  sm.scan_decompress_nanos->Add(
      uint64_t((decompress_seconds_ - decompress0) * 1e9));
  out->rows = n;
  return n;
}

void TableScanOp::Reset() {
  cursor_.Close();
  cursor_.mutable_selection()->count = 0;
  next_chunk_ = 0;
  page_rows_ = 0;
  page_pos_ = 0;
  decompress_seconds_ = 0;
}

}  // namespace scc
