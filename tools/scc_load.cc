// scc_load — parallel bulk loader. Ingests a pipe-separated .tbl file (or
// the synthetic table of tools/synthetic_table.h) through the morsel-
// parallel write path (storage/bulk_load.h) and saves the result as a
// FileStore directory.
//
//   scc_load --out <dir> --tbl <file>  [options]   load a .tbl file
//   scc_load --out <dir> --rows N      [options]   synthetic table
//
// Options:
//   --threads N   total threads for chunk compression (0 = pool default,
//                 1 = serial; segment bytes are identical either way)
//   --chunk V     values per chunk (default 64K)
//   --mode M      auto | none | pfor | pfordelta   (default auto)
//   --seed S      synthetic data seed
//   --stats       print the telemetry counters touched by the load
//   --telemetry   same as --stats (parity with scc_inspect / table2_tpch);
//                 forces telemetry on even if the env disables it
//   --trace PATH  record the load as a chrome trace: one
//                 "scc_load.bulk_load" operation whose pool tasks (chunk
//                 compression, morsel writes) export as a span tree
//
// .tbl columns that parse as integers load as int64; columns that parse
// as decimals load as int64 cents (x100, TPC-H style). Everything else
// (dates, strings) is skipped — this is a numeric-column loader.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "storage/bulk_load.h"
#include "storage/file_store.h"
#include "storage/storage_metrics.h"
#include "sys/telemetry.h"
#include "sys/timer.h"
#include "synthetic_table.h"

namespace scc {
namespace {

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = int64_t(v);
  return true;
}

bool ParseCents(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = int64_t(v * 100.0 + (v < 0 ? -0.5 : 0.5));
  return true;
}

/// Reads a pipe-separated file into its integer and decimal columns;
/// other columns (dates, strings) are skipped with a warning. False, with
/// a message, when the file cannot be read or has no numeric column.
bool ReadTbl(const char* path, std::vector<NamedColumn>* out) {
  struct TblColumn {
    std::string name;
    std::vector<int64_t> values;
    bool all_int = true;
    bool all_decimal = true;
  };
  std::ifstream f(path);
  if (!f) {
    fprintf(stderr, "error: cannot open %s\n", path);
    return false;
  }
  std::vector<TblColumn> cols;
  std::string line;
  size_t row = 0;
  // Whole lines, however long: a row is never split into two.
  while (std::getline(f, line)) {
    while (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    size_t start = 0, ci = 0;
    while (start <= line.size()) {
      size_t bar = line.find('|', start);
      if (bar == std::string::npos) bar = line.size();
      std::string field = line.substr(start, bar - start);
      start = bar + 1;
      // A trailing '|' (TPC-H convention) yields one empty final field;
      // drop it rather than treating it as a column.
      if (field.empty() && start > line.size()) break;
      if (ci >= cols.size()) {
        cols.resize(ci + 1);
        char nb[24];
        std::snprintf(nb, sizeof(nb), "c%zu", ci);
        cols[ci].name = nb;
        cols[ci].values.resize(row, 0);  // ragged file: pad new column
      }
      TblColumn& col = cols[ci];
      int64_t iv = 0;
      if (col.all_int && ParseInt(field, &iv)) {
        col.values.push_back(iv);
      } else if (col.all_decimal && ParseCents(field, &iv)) {
        col.all_int = false;
        col.values.push_back(iv);
      } else {
        col.all_int = false;
        col.all_decimal = false;
        col.values.push_back(0);
      }
      ci++;
    }
    row++;
    for (; ci < cols.size(); ci++) cols[ci].values.push_back(0);
  }
  for (TblColumn& c : cols) {
    if (!c.all_int && !c.all_decimal) {
      fprintf(stderr,
              "warning: skipping non-numeric column %s "
              "(this is a numeric-column loader)\n",
              c.name.c_str());
      StorageMetrics::Get().load_skipped_columns->Increment();
      continue;
    }
    out->push_back({std::move(c.name), std::move(c.values)});
  }
  if (out->empty()) {
    fprintf(stderr, "error: %s has no numeric columns\n", path);
    return false;
  }
  return true;
}

int Run(int argc, char** argv) {
  size_t rows = 0;
  size_t chunk = 1u << 16;
  uint64_t seed = 2026;
  unsigned threads = 0;
  bool stats = false;
  const char* trace_path = nullptr;
  std::string out, tbl, mode_s = "auto";
  for (int i = 1; i < argc; i++) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--rows") == 0) {
      if (const char* v = next()) rows = size_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--tbl") == 0) {
      if (const char* v = next()) tbl = v;
    } else if (std::strcmp(argv[i], "--chunk") == 0) {
      if (const char* v = next()) chunk = size_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (const char* v = next()) seed = uint64_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (const char* v = next()) threads = unsigned(std::atoi(v));
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      if (const char* v = next()) mode_s = v;
    } else if (std::strcmp(argv[i], "--stats") == 0 ||
               std::strcmp(argv[i], "--telemetry") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = next();
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (const char* v = next()) out = v;
    }
  }
  if (out.empty() || (tbl.empty() && rows == 0) || chunk == 0) {
    fprintf(stderr,
            "usage: %s --out <dir> (--tbl <file> | --rows N) [--threads N] "
            "[--chunk V] [--mode auto|none|pfor|pfordelta] [--seed S] "
            "[--stats|--telemetry] [--trace <path>]\n",
            argv[0]);
    return 2;
  }
  BulkLoadOptions opts;
  opts.threads = threads;
  if (mode_s == "auto") {
    opts.mode = ColumnCompression::kAuto;
  } else if (mode_s == "none") {
    opts.mode = ColumnCompression::kNone;
  } else if (mode_s == "pfor") {
    opts.mode = ColumnCompression::kPFor;
  } else if (mode_s == "pfordelta") {
    opts.mode = ColumnCompression::kPForDelta;
  } else {
    fprintf(stderr, "error: unknown --mode %s\n", mode_s.c_str());
    return 2;
  }

  if (stats) SetTelemetryEnabled(true);
  if (trace_path != nullptr) SetTraceEnabled(true);

  MetricsSnapshot before = MetricsRegistry::Instance().Snapshot();
  Table table(chunk);
  size_t raw_bytes = 0;
  double load_secs = 0;
  Timer timer;
  Status st = Status::OK();
  {
    // Trace root for the whole ingest: compression tasks the bulk loader
    // fans out to the pool inherit this operation id, so the exported
    // trace is one tree per load rather than orphaned worker spans.
    // Scoped so the operation closes before the trace file is written.
    TraceOperation op("scc_load.bulk_load");
    std::vector<NamedColumn> cols;
    if (tbl.empty()) {
      cols = SyntheticColumns(rows, seed);
    } else if (!ReadTbl(tbl.c_str(), &cols)) {
      return 1;
    }
    timer.Reset();  // parse and generation time are not load time
    for (const NamedColumn& c : cols) {
      st = BulkLoadColumn<int64_t>(&table, c.name, c.values, opts);
      if (!st.ok()) break;
      raw_bytes += c.values.size() * sizeof(int64_t);
    }
    load_secs = timer.ElapsedSeconds();
    if (st.ok()) st = FileStore::Save(table, out);
  }
  if (!st.ok()) {
    fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  printf(
      "loaded %zu rows x %zu columns -> %s\n"
      "raw %.2f MB -> stored %.2f MB (ratio %.2fx), compressed in %.3fs "
      "(%.1f MB/s, threads=%u)\n",
      table.rows(), table.column_count(), out.c_str(),
      raw_bytes / 1048576.0, table.ByteSize() / 1048576.0,
      table.CompressionRatio(), load_secs,
      load_secs > 0 ? raw_bytes / 1048576.0 / load_secs : 0.0,
      threads == 0 ? ThreadPool::DefaultWorkerCount() : threads);
  if (stats) {
    MetricsSnapshot delta =
        MetricsRegistry::Instance().Snapshot().DeltaSince(before);
    printf("%s", delta.ToTable().c_str());
  }
  if (trace_path != nullptr) {
    TraceRecorder& tr = TraceRecorder::Instance();
    if (!tr.WriteChromeTrace(trace_path)) {
      fprintf(stderr, "error: cannot write trace to %s\n", trace_path);
      return 1;
    }
    fprintf(stderr, "wrote %zu trace events to %s (%zu dropped)\n",
            tr.event_count(), trace_path, tr.dropped_count());
  }
  return 0;
}

}  // namespace
}  // namespace scc

int main(int argc, char** argv) { return scc::Run(argc, argv); }
