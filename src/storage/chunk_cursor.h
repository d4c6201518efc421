#ifndef SCC_STORAGE_CHUNK_CURSOR_H_
#define SCC_STORAGE_CHUNK_CURSOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/segment_reader.h"
#include "engine/vector.h"
#include "storage/buffer_manager.h"
#include "storage/table.h"
#include "util/status.h"

// The scan's decode step, written once: compressed pages leave the buffer
// manager and are decompressed one vector at a time into cache-resident
// buffers (the paper's RAM->CPU-cache pipeline).
//
//   PageReader   one column page, validated once; decodes a value range,
//                selects [lo, hi] straight off the packed codes, or
//                decodes only the 128-value groups holding selected rows
//   ChunkCursor  one chunk across several columns: pins every column
//                page once, opens one PageReader per page, then yields
//                the chunk vector by vector with optional BETWEEN
//                pushdown
//
// Every failure (a page unreadable after the buffer manager's retries, a
// segment that fails validation) comes back as a Status, never an abort.
// ParallelScan drives one cursor per slot over its morsels, TableScanOp
// one cursor over the table's chunks in order, and Checkpoint one
// single-column cursor per column.

namespace scc {

/// Clamps a query-level [lo, hi] (int64_t, inclusive) into T's range.
/// Returns false when no T value can satisfy the predicate.
template <typename T>
inline bool ClampPushdownBounds(int64_t lo, int64_t hi, T* tlo, T* thi) {
  static_assert(std::is_integral_v<T>);
  const int64_t tmin = int64_t(std::numeric_limits<T>::min());
  const int64_t tmax = int64_t(std::numeric_limits<T>::max());
  if (lo > hi || lo > tmax || hi < tmin) return false;
  *tlo = T(std::max(lo, tmin));
  *thi = T(std::min(hi, tmax));
  return true;
}

class PageReader {
 public:
  /// Validates `page` as `col`'s segment of exactly `rows` values. The
  /// page must outlive every later call on this reader.
  Status Open(const StoredColumn* col, const AlignedBuffer& page,
              size_t rows);

  /// Decodes values [offset, offset + n) into `out`, which holds at least
  /// n values of the column's type.
  void Decode(size_t offset, size_t n, uint8_t* out) const;
  void Decode(size_t offset, size_t n, Vector* out) const;
  /// Fills `sel` with the positions of [offset, offset + n) whose value
  /// lies in [lo, hi] (clamped to the column type), indices relative to
  /// offset. Groups the min/max summaries disqualify are never decoded.
  void Select(size_t offset, size_t n, int64_t lo, int64_t hi,
              SelVec* sel) const;
  /// Decodes only the 128-value groups of [offset, offset + n) holding a
  /// position in `sel`; the other slots of `out` are left undefined.
  void DecodeSelected(size_t offset, size_t n, const SelVec& sel,
                      Vector* out) const;

 private:
  std::variant<std::monostate, SegmentReader<int8_t>, SegmentReader<int16_t>,
               SegmentReader<int32_t>, SegmentReader<int64_t>>
      reader_;
};

class ChunkCursor {
 public:
  /// Scans `columns` (all of `table`) through `bm`; batch() holds one
  /// vector per column, in this order.
  ChunkCursor(const Table* table, BufferManager* bm,
              std::vector<const StoredColumn*> columns);

  /// Filters column `col` (an index into the scanned columns) to
  /// [lo, hi] on its packed codes; the other columns then decode only the
  /// groups holding selected rows. With pushdown set, batch data is valid
  /// only at the indices in selection(), and every vector is still
  /// yielded, empty or not.
  void SetPushdownBetween(size_t col, int64_t lo, int64_t hi);

  /// Pins chunk `chunk` of every column and opens one reader per page.
  /// On error no page stays pinned and Next() yields nothing.
  Status Open(size_t chunk);
  /// Decodes the open chunk's next vector into batch(); returns its row
  /// count, 0 once the chunk is exhausted.
  size_t Next();
  /// Releases the open chunk's pins (Open and the destructor do too).
  void Close();

  const Batch& batch() const { return batch_; }
  const SelVec& selection() const { return sel_; }
  /// Mutable so a consumer can refine the selection in place.
  SelVec* mutable_selection() { return &sel_; }
  /// The open chunk's reader for scanned column `col`.
  const PageReader& reader(size_t col) const { return readers_[col]; }
  /// Seconds spent decoding and selecting since construction.
  double decompress_seconds() const { return decompress_seconds_; }

 private:
  const Table* table_;
  BufferManager* bm_;
  std::vector<const StoredColumn*> cols_;
  std::vector<BufferManager::PageGuard> guards_;
  std::vector<PageReader> readers_;
  std::vector<Vector> vectors_;
  Batch batch_;
  SelVec sel_;
  int pushdown_col_ = -1;
  int64_t pushdown_lo_ = 0;
  int64_t pushdown_hi_ = 0;
  size_t rows_ = 0;  // of the open chunk
  size_t pos_ = 0;
  double decompress_seconds_ = 0;
};

}  // namespace scc

#endif  // SCC_STORAGE_CHUNK_CURSOR_H_
