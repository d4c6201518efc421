#ifndef SCC_STORAGE_TABLE_H_
#define SCC_STORAGE_TABLE_H_

#include <algorithm>
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

/// Per-column storage: a sequence of segment buffers.
struct StoredColumn {
  std::string name;
  TypeId type = TypeId::kInt64;
  size_t rows = 0;
  size_t chunk_values = 0;
  std::vector<AlignedBuffer> chunks;
  bool compressed = false;

  size_t chunk_count() const { return chunks.size(); }
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
/// (Section 3.1). Pure function of its arguments — the unit of work both
/// the serial Table::AddColumn loop and the parallel bulk loader
/// (storage/bulk_load.h) fan out, which is what makes their outputs
/// byte-identical.
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

class Table {
 public:
  explicit Table(size_t chunk_values = 1u << 18)
      : chunk_values_(chunk_values) {}

  /// Adds a column, compressing each chunk independently. All columns of
  /// a table must have the same row count.
  template <CodecValue T>
  Status AddColumn(const std::string& name, std::span<const T> values,
                   ColumnCompression mode) {
    if (rows_ != 0 && values.size() != rows_) {
      return Status::InvalidArgument("column row count mismatch");
    }
    rows_ = values.size();
    auto col = std::make_unique<StoredColumn>();
    col->name = name;
    col->type = TypeIdOf<T>();
    col->rows = values.size();
    col->chunk_values = chunk_values_;
    col->compressed = mode != ColumnCompression::kNone;
    const size_t nchunks =
        values.empty() ? 1
                       : (values.size() + chunk_values_ - 1) / chunk_values_;
    for (size_t ci = 0; ci < nchunks; ci++) {
      size_t lo = ci * chunk_values_;
      size_t n = std::min(chunk_values_, values.size() - lo);
      Result<AlignedBuffer> seg = BuildChunk(values.subspan(lo, n), mode);
      SCC_RETURN_NOT_OK(seg.status());
      col->chunks.push_back(seg.MoveValueOrDie());
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
  template <CodecValue T>
  Result<AlignedBuffer> BuildChunk(std::span<const T> chunk,
                                   ColumnCompression mode) {
    return BuildColumnChunk<T>(chunk, mode);
  }

  size_t chunk_values_;
  size_t rows_ = 0;
  std::vector<std::unique_ptr<StoredColumn>> columns_;
};

}  // namespace scc

#endif  // SCC_STORAGE_TABLE_H_
