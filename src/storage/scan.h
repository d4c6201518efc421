#ifndef SCC_STORAGE_SCAN_H_
#define SCC_STORAGE_SCAN_H_

#include <string>
#include <vector>

#include "engine/operators.h"
#include "storage/buffer_manager.h"
#include "storage/chunk_cursor.h"
#include "storage/table.h"

// Table scan over ColumnBM storage. Two decompression strategies, the
// subject of Figure 7 and Table 3:
//
//   kVectorWise - RAM-CPU cache compression (this paper's proposal): the
//                 buffer manager hands out compressed segments and the
//                 scan decompresses one vector at a time into a
//                 cache-resident buffer, just in time for the query.
//   kPageWise   - I/O-RAM compression (Sybase IQ style): on first touch a
//                 whole chunk is decompressed into a RAM-resident page,
//                 and vectors are then copied out of it — three trips of
//                 the data through the CPU cache instead of one.
//
// Both modes run over one ChunkCursor (storage/chunk_cursor.h): Next()
// opens the next chunk once the open one is exhausted, which pins and
// validates each column page once, and releases the last chunk's pins
// before it returns 0. kPageWise decodes its RAM image from the cursor's
// open readers.
//
// The scan accounts decompression time separately so the TPC-H harness
// can decompose query time as in Figure 8.

namespace scc {

class TableScanOp : public Operator {
 public:
  enum class Mode { kVectorWise, kPageWise };

  TableScanOp(const Table* table, BufferManager* bm,
              std::vector<std::string> columns,
              Mode mode = Mode::kVectorWise);

  const std::vector<TypeId>& output_types() const override { return types_; }
  size_t Next(Batch* out) override;
  void Reset() override;

  /// Seconds spent inside decompression routines (and page copies for
  /// kPageWise) since construction or the last Reset().
  double decompress_seconds() const { return decompress_seconds_; }

  /// Compressed-domain selection pushdown: `column` (which must be one of
  /// the scanned columns) is filtered to [lo, hi] (inclusive, clamped to
  /// the column type) INSIDE the scan. In kVectorWise mode the selection
  /// is computed on the packed codes via SegmentReader::SelectBetween —
  /// groups the per-group min/max summaries disqualify are never decoded —
  /// and the remaining columns decompress only the 128-value groups that
  /// contain selected rows. Call before the first Next().
  ///
  /// Contract change for the emitted batch: Next() still reports the full
  /// vector length, but column data is only guaranteed valid at the
  /// indices in selection(); consumers must drive their reads through it.
  /// (kPageWise decompresses everything as before and derives the same
  /// selection from the decoded values, so results are mode-independent.)
  void SetPushdownBetween(const std::string& column, int64_t lo, int64_t hi);

  /// Selection over the batch emitted by the last Next(); meaningful only
  /// with pushdown configured. Mutable so consumers can refine in place.
  SelVec* mutable_selection() { return cursor_.mutable_selection(); }
  const SelVec& selection() const { return cursor_.selection(); }

 private:
  /// Pins and validates chunk `chunk`'s pages; kPageWise also decodes
  /// them whole into pages_.
  Status OpenChunk(size_t chunk);
  /// kPageWise: copies the open chunk's next vector out of pages_ into
  /// vectors_; 0 once the chunk is exhausted.
  size_t CopyPageVector();

  const Table* table_;
  Mode mode_;
  std::vector<const StoredColumn*> cols_;
  std::vector<TypeId> types_;
  ChunkCursor cursor_;
  size_t next_chunk_ = 0;
  double decompress_seconds_ = 0;
  int pushdown_col_ = -1;
  int64_t pushdown_lo_ = 0;
  int64_t pushdown_hi_ = 0;
  // kPageWise: the open chunk decompressed into RAM, one image per
  // column, and the vectors copied out of it.
  std::vector<AlignedBuffer> pages_;
  std::vector<Vector> vectors_;
  size_t page_rows_ = 0;
  size_t page_pos_ = 0;
};

}  // namespace scc

#endif  // SCC_STORAGE_SCAN_H_
