#ifndef STACKBENCH_LADDER_H_
#define STACKBENCH_LADDER_H_

// The per-layer ladder of the traced run: probes that time calls into each
// module's public functions on the workload's own table, from the kernels
// up to a loopback round trip, plus the registry-counter deltas of the
// traced workload repeat.

#include <string>
#include <vector>

#include "common.h"
#include "storage/table.h"
#include "sys/telemetry.h"
#include "tpch/queries.h"

namespace stackbench {

struct LadderInput {
  const scc::Table* table = nullptr;
  /// Columns the TableScanOp probe reads.
  std::vector<std::string> scan_columns;
  /// Integer column for point, decode and select probes.
  std::string point_column;
  /// Sorted column; the narrow probes select the values of its rows
  /// [narrow_row, narrow_row + 1000).
  std::string filter_column;
  size_t narrow_row = 0;
  /// Database for the TPC-H engine probes.
  const scc::TpchDatabase* tpch = nullptr;
  uint64_t seed = 1;
};

/// Runs every probe, adds its per-layer metrics to `out` and prints the
/// adjacent-layer gaps for points and scans.
void RunLadder(const LadderInput& in, SpanLog* log, MetricSet* out);

/// Per-layer metrics derived from the registry delta of a traced workload
/// repeat that served `ops` operations and moved `device_bytes` through
/// the simulated cold and SSD devices.
void AddRegistryMetrics(const scc::MetricsSnapshot& delta, double ops,
                        double device_bytes, MetricSet* out);

}  // namespace stackbench

#endif  // STACKBENCH_LADDER_H_
