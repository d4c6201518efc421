#ifndef SCC_STORAGE_TABLE_H_
#define SCC_STORAGE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/codec.h"
#include "core/segment_builder.h"
#include "engine/vector.h"
#include "util/aligned_buffer.h"
#include "util/status.h"

// On-"disk" table representation for ColumnBM. Every column is split into
// chunks of `chunk_values` rows; each chunk is a self-describing segment
// (compressed per the analyzer's choice, or stored raw). The same stored
// segments serve both layouts:
//
//   DSM  - each (column, chunk) is its own I/O unit [CK85]
//   PAX  - all columns of one row range form a single I/O unit [ADHS01]
//
// which is precisely the distinction the paper evaluates in Table 2: PAX
// reads every column of a chunk even when the query touches few.

namespace scc {

enum class Layout { kDSM, kPAX };

/// The values one chunk holds lie in [min, max]. An empty chunk's range
/// is empty (min > max), so it can hold no value.
struct ChunkRange {
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
  bool operator==(const ChunkRange&) const = default;
};

/// The [min, max] of one chunk's values.
template <CodecValue T>
ChunkRange ChunkRangeOf(std::span<const T> values) {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (T v : values) {
    lo = std::min(lo, int64_t(v));
    hi = std::max(hi, int64_t(v));
  }
  return ChunkRange{lo, hi};
}

/// Per-column storage: a sequence of segment buffers.
struct StoredColumn {
  std::string name;
  TypeId type = TypeId::kInt64;
  size_t rows = 0;
  size_t chunk_values = 0;
  std::vector<AlignedBuffer> chunks;
  bool compressed = false;
  /// One [min, max] per chunk (a small materialized aggregate, after
  /// Moerkotte), filled where the chunks are built. Empty when the column
  /// has no summary: a float column, a column built by hand and adopted,
  /// or one loaded without checksum verification.
  std::vector<ChunkRange> ranges;

  size_t chunk_count() const { return chunks.size(); }
  /// False only when chunk `k`'s summary proves it holds no value in
  /// [lo, hi]; a column without a summary may hold any value anywhere.
  bool ChunkMayHold(size_t k, int64_t lo, int64_t hi) const {
    return ranges.empty() || (ranges[k].min <= hi && lo <= ranges[k].max);
  }
  size_t ByteSize() const {
    size_t total = 0;
    for (const auto& c : chunks) total += c.size();
    return total;
  }
  /// Rows covered by chunk `i`.
  size_t ChunkRows(size_t i) const {
    size_t lo = i * chunk_values;
    return std::min(chunk_values, rows - lo);
  }
};

/// Compression policy for Table::AddColumn.
enum class ColumnCompression {
  kNone,         // raw segments
  kAuto,         // analyzer picks per chunk
  kPFor,         // force PFOR (analyzer picks b/base)
  kPForDelta,    // force PFOR-DELTA
};

/// Values the analyzer samples from the head of each chunk.
inline constexpr size_t kChunkSampleValues = size_t(64) * 1024;

/// Builds one chunk's segment under `mode`, sampling up to
/// kChunkSampleValues values from the chunk head for the analyzer
/// (Section 3.1). Pure function of its arguments — through BuildChunkAt,
/// the unit of work both the serial Table::AddColumn loop and the
/// parallel bulk loader (storage/bulk_load.h) fan out, which is what
/// makes their outputs byte-identical.
template <CodecValue T>
Result<AlignedBuffer> BuildColumnChunk(std::span<const T> chunk,
                                       ColumnCompression mode) {
  const size_t sample_n = std::min(chunk.size(), kChunkSampleValues);
  switch (mode) {
    case ColumnCompression::kNone:
      return SegmentBuilder<T>::BuildUncompressed(chunk);
    case ColumnCompression::kAuto: {
      CompressionChoice<T> choice =
          Analyzer<T>::Analyze(chunk.subspan(0, sample_n));
      return SegmentBuilder<T>::Build(chunk, choice);
    }
    case ColumnCompression::kPFor: {
      AnalyzerOptions<T> opts;
      opts.allow_pfor_delta = false;
      opts.allow_pdict = false;
      CompressionChoice<T> choice =
          Analyzer<T>::Analyze(chunk.subspan(0, sample_n), opts);
      return SegmentBuilder<T>::Build(chunk, choice);
    }
    case ColumnCompression::kPForDelta: {
      AnalyzerOptions<T> opts;
      opts.allow_pfor = false;
      opts.allow_pdict = false;
      CompressionChoice<T> choice =
          Analyzer<T>::Analyze(chunk.subspan(0, sample_n), opts);
      return SegmentBuilder<T>::Build(chunk, choice);
    }
  }
  return Status::InvalidArgument("bad compression mode");
}

/// A new column of `rows` values in chunks of `chunk_values`, with a slot
/// per chunk and per summary for BuildChunkAt to fill.
template <CodecValue T>
std::unique_ptr<StoredColumn> NewColumn(const std::string& name, size_t rows,
                                        size_t chunk_values,
                                        ColumnCompression mode) {
  auto col = std::make_unique<StoredColumn>();
  col->name = name;
  col->type = TypeIdOf<T>();
  col->rows = rows;
  col->chunk_values = chunk_values;
  col->compressed = mode != ColumnCompression::kNone;
  const size_t nchunks =
      rows == 0 ? 1 : (rows + chunk_values - 1) / chunk_values;
  col->chunks.resize(nchunks);
  col->ranges.resize(nchunks);
  return col;
}

/// Builds chunk `ci` of `col` (made by NewColumn) from the column's
/// `values`: its segment, then its summary while the chunk is cache-hot.
/// Writes only slot ci, so chunk tasks can run in parallel.
template <CodecValue T>
Status BuildChunkAt(StoredColumn* col, std::span<const T> values, size_t ci,
                    ColumnCompression mode) {
  const size_t lo = ci * col->chunk_values;
  const std::span<const T> chunk =
      values.subspan(lo, std::min(col->chunk_values, values.size() - lo));
  SCC_ASSIGN_OR_RETURN(col->chunks[ci], BuildColumnChunk<T>(chunk, mode));
  col->ranges[ci] = ChunkRangeOf(chunk);
  return Status::OK();
}

class Table {
 public:
  explicit Table(size_t chunk_values = 1u << 18)
      : chunk_values_(chunk_values) {}

  /// Adds a column, compressing and summarizing each chunk independently.
  /// All columns of a table must have the same row count.
  template <CodecValue T>
  Status AddColumn(const std::string& name, std::span<const T> values,
                   ColumnCompression mode) {
    if (rows_ != 0 && values.size() != rows_) {
      return Status::InvalidArgument("column row count mismatch");
    }
    rows_ = values.size();
    std::unique_ptr<StoredColumn> col =
        NewColumn<T>(name, values.size(), chunk_values_, mode);
    for (size_t ci = 0; ci < col->chunk_count(); ci++) {
      SCC_RETURN_NOT_OK(BuildChunkAt<T>(col.get(), values, ci, mode));
    }
    columns_.push_back(std::move(col));
    return Status::OK();
  }

  /// Adopts an externally constructed column (e.g. loaded from disk by
  /// FileStore). The first adopted column fixes the table's row count and
  /// chunk size; later ones must match.
  Status AdoptColumn(std::unique_ptr<StoredColumn> col) {
    if (columns_.empty() && rows_ == 0) {
      rows_ = col->rows;
      chunk_values_ = col->chunk_values;
    } else if (col->rows != rows_) {
      return Status::InvalidArgument("adopted column row count mismatch");
    } else if (col->chunk_values != chunk_values_) {
      return Status::InvalidArgument("adopted column chunk size mismatch");
    }
    columns_.push_back(std::move(col));
    return Status::OK();
  }

  const StoredColumn* column(const std::string& name) const {
    for (const auto& c : columns_) {
      if (c->name == name) return c.get();
    }
    return nullptr;
  }
  const StoredColumn* column(size_t i) const { return columns_[i].get(); }
  size_t column_count() const { return columns_.size(); }
  size_t rows() const { return rows_; }
  size_t chunk_values() const { return chunk_values_; }
  size_t chunk_count() const {
    return columns_.empty() ? 0 : columns_[0]->chunk_count();
  }

  /// Total stored bytes (all columns).
  size_t ByteSize() const {
    size_t total = 0;
    for (const auto& c : columns_) total += c->ByteSize();
    return total;
  }

  /// Bytes of one PAX row-group = this row range across all columns.
  size_t RowGroupBytes(size_t chunk_idx) const {
    size_t total = 0;
    for (const auto& c : columns_) total += c->chunks[chunk_idx].size();
    return total;
  }

  /// Compression ratio vs. raw array storage, over the given columns
  /// (all columns when empty).
  double CompressionRatio(const std::vector<std::string>& names = {}) const {
    size_t raw = 0, stored = 0;
    for (const auto& c : columns_) {
      if (!names.empty() &&
          std::find(names.begin(), names.end(), c->name) == names.end()) {
        continue;
      }
      raw += c->rows * TypeSize(c->type);
      stored += c->ByteSize();
    }
    return stored == 0 ? 1.0 : double(raw) / double(stored);
  }

 private:
  size_t chunk_values_;
  size_t rows_ = 0;
  std::vector<std::unique_ptr<StoredColumn>> columns_;
};

}  // namespace scc

#endif  // SCC_STORAGE_TABLE_H_
