#ifndef SCC_TPCH_QUERIES_H_
#define SCC_TPCH_QUERIES_H_

#include <string>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/scan.h"
#include "storage/table.h"
#include "tpch/dbgen.h"

// Hand-coded vectorized plans for the TPC-H query set the paper evaluates
// (Table 2: Q1, 3, 4, 5, 6, 7, 11, 14, 15, 18, 21). Queries are written
// as X100-style pipelines over TableScanOp: tight primitive loops,
// selection vectors, hash tables — mirroring how MonetDB/X100 executes
// them. All eleven queries of the paper's Table 2 are implemented; Q21's
// correlated EXISTS / NOT EXISTS pair is resolved in one streaming pass
// because lineitem is clustered by orderkey.
//
// Monetary values are int64 cents; "revenue" sums are in units of
// cents * percent^k and reported as checksums plus scaled doubles, so
// uncompressed and compressed runs must agree exactly.

namespace scc {

/// Column-store images of the generated data, one Table per relation.
struct TpchDatabase {
  Table lineitem;
  Table orders;
  Table customer;
  Table supplier;
  Table part;
  Table partsupp;

  size_t ByteSize() const {
    return lineitem.ByteSize() + orders.ByteSize() + customer.ByteSize() +
           supplier.ByteSize() + part.ByteSize() + partsupp.ByteSize();
  }

  /// Builds all tables with the given per-chunk compression policy.
  static TpchDatabase Build(const TpchData& data, ColumnCompression mode,
                            size_t chunk_values = 1u << 17);
};

/// Per-query execution statistics, the raw material for Table 2 / Fig 8.
struct QueryStats {
  int query = 0;
  double cpu_seconds = 0;         // measured execution time (incl. decomp)
  double decompress_seconds = 0;  // part of cpu_seconds spent decompressing
  double io_seconds = 0;          // simulated disk time
  size_t bytes_read = 0;
  uint64_t checksum = 0;  // result digest; layout-independent
  size_t result_rows = 0;

  /// Wall time under the full-overlap I/O model (DESIGN.md).
  double TotalSeconds() const { return std::max(cpu_seconds, io_seconds); }
  double IoStallSeconds() const {
    return std::max(0.0, io_seconds - cpu_seconds);
  }
  double ProcessingSeconds() const {
    return cpu_seconds - decompress_seconds;
  }
};

/// The query numbers implemented (the paper's full Table 2 set).
const std::vector<int>& TpchQuerySet();

/// Columns each query touches (used for per-query compression ratios as
/// in Table 2's "compression ratio" column).
std::vector<std::pair<std::string, std::string>> QueryColumns(int query);

/// Runs TPC-H query `q`. `bm` supplies buffered (compressed) chunks and
/// charges its SimDisk; callers Reset the disk/stats around the call.
///
/// `threads` is 1 for the serial plans. Any other value fans Q1's and
/// Q6's vector-wise scan pipeline out over the shared thread pool
/// (`threads` slots including the caller; 0 = pool size). Q1 and Q6 are
/// written once: the serial and parallel plans share each query's
/// per-vector fold and finalization, and the parallel plan folds per-slot
/// partials that merge before the finalization. The aggregates are
/// integer sums, so checksums match the serial plans exactly. `bm` must
/// be shared safely, which the sharded buffer manager is; cpu_seconds is
/// wall time of the parallel region, decompress_seconds the summed
/// per-slot decode time (so decompress may exceed cpu when slots
/// overlap). Queries without a parallel plan, and kPageWise runs, keep
/// the serial plan: the join-heavy queries' hash-build sides are stateful
/// pipelines whose parallelization is a separate effort.
QueryStats RunTpchQuery(int q, const TpchDatabase& db, BufferManager* bm,
                        TableScanOp::Mode mode, unsigned threads = 1);

/// True when query `q` has a morsel-driven parallel plan (the pure-scan
/// queries Q1 and Q6; the rest run serial plans regardless of `threads`).
bool TpchQueryHasParallelPlan(int q);

}  // namespace scc

#endif  // SCC_TPCH_QUERIES_H_
