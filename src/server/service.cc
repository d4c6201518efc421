#include "server/service.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "engine/operators.h"
#include "exec/parallel_scan.h"
#include "server/server_metrics.h"
#include "sys/telemetry.h"

namespace scc {
namespace server {

namespace {

Response ErrorResponse(const Request& req, const Status& st) {
  Response resp;
  resp.request_id = req.request_id;
  resp.type = req.type;
  resp.code = st.code();
  resp.error = st.message();
  return resp;
}

/// Deadline check shared by the pre-execution gate and ParallelScan's
/// per-morsel cancel_check. `deadline_micros` <= 0 means no deadline.
Status CheckDeadline(double deadline_micros) {
  if (deadline_micros > 0 && TraceNowMicros() > deadline_micros) {
    return Status::DeadlineExceeded("query budget exhausted");
  }
  return Status::OK();
}

/// Per-slot scan/aggregate accumulator. A slot's visitor calls are
/// sequential (one thread at a time), and within a morsel the vectors
/// arrive in offset order, so tracking (morsel, offset) here recovers
/// the global row id ParallelScan's visitor doesn't carry.
struct SlotAcc {
  size_t morsel = SIZE_MAX;
  size_t off = 0;

  uint64_t matches = 0;
  std::vector<std::pair<uint64_t, int64_t>> rows;  // (global row, value)
  bool collect = false;

  uint64_t sum = 0;  // wrapping: deterministic under any interleaving
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  /// Advances the (morsel, offset) cursor for a batch of `rows` values
  /// and returns the batch's global row base.
  uint64_t Advance(size_t m, size_t chunk_values, size_t batch_rows) {
    if (m != morsel) {
      morsel = m;
      off = 0;
    }
    const uint64_t base = uint64_t(m) * chunk_values + off;
    off += batch_rows;
    return base;
  }

  void Fold(int64_t v, uint64_t row) {
    matches++;
    sum += uint64_t(v);
    min = std::min(min, v);
    max = std::max(max, v);
    if (collect) rows.emplace_back(row, v);
  }
};

/// Reads batch value `i` of column 0 widened to int64 (the batch's
/// vector has the column's native type).
int64_t ValueAt(const Batch& batch, TypeId type, size_t i) {
  return DispatchType(type, [&](auto tag) -> int64_t {
    using T = decltype(tag);
    if constexpr (std::is_integral_v<T>) {
      return int64_t(batch.columns[0]->data<T>()[i]);
    } else {
      return 0;  // unreachable: float columns are rejected at resolve
    }
  });
}

}  // namespace

QueryService::QueryService(const Table* table, BufferManager* bm,
                           ServiceOptions options)
    : table_(table),
      bm_(bm),
      options_(std::move(options)),
      accepted_(ServerMetrics::Get().accepted),
      shed_(ServerMetrics::Get().shed),
      deadline_exceeded_(ServerMetrics::Get().deadline_exceeded) {
  uint64_t total_weight = 0;
  for (const TenantQuota& q : options_.tenant_quotas) {
    total_weight += q.weight;
  }
  if (total_weight == 0) return;
  MetricsRegistry& reg = MetricsRegistry::Instance();
  for (const TenantQuota& q : options_.tenant_quotas) {
    // Weighted share of the global cap, floored at 1 so a configured
    // tenant can always make progress.
    const size_t limit = std::max<size_t>(
        1, options_.max_inflight * q.weight / total_weight);
    const std::string prefix =
        "server.tenant." + std::to_string(q.tenant_id);
    Counter* admitted = &reg.GetCounter(prefix + ".admitted");
    Counter* shed = &reg.GetCounter(prefix + ".shed");
    Gauge* inflight = &reg.GetGauge(prefix + ".inflight");
    tenants_[q.tenant_id] =
        std::make_unique<TenantState>(limit, admitted, shed, inflight);
  }
}

bool QueryService::TryAdmit(uint32_t tenant_id) {
  ServerMetrics& sm = ServerMetrics::Get();
  // Tenant share first: a tenant at its quota is shed without touching
  // the global count, so it cannot starve other tenants' CAS traffic.
  TenantState* ts = FindTenant(tenant_id);
  if (ts != nullptr) {
    size_t cur = ts->inflight.load(std::memory_order_relaxed);
    for (;;) {
      if (cur >= ts->limit) {
        ts->shed.Add();
        shed_.Add();
        return false;
      }
      if (ts->inflight.compare_exchange_weak(cur, cur + 1,
                                             std::memory_order_acq_rel)) {
        break;
      }
    }
    const size_t tnow = cur + 1;
    size_t tpeak = ts->peak.load(std::memory_order_relaxed);
    while (tnow > tpeak && !ts->peak.compare_exchange_weak(
                               tpeak, tnow, std::memory_order_relaxed)) {
    }
  }
  size_t cur = inflight_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= options_.max_inflight) {
      if (ts != nullptr) {
        ts->inflight.fetch_sub(1, std::memory_order_acq_rel);
        ts->shed.Add();
      }
      shed_.Add();
      return false;
    }
    if (inflight_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_acq_rel)) {
      break;
    }
  }
  accepted_.Add();
  sm.inflight->Set(int64_t(inflight_.load(std::memory_order_relaxed)));
  if (ts != nullptr) {
    ts->admitted.Add();
    ts->inflight_metric->Set(
        int64_t(ts->inflight.load(std::memory_order_relaxed)));
  }
  // Racy max update: good enough for the overload tests, which drive the
  // peak from a single storm and assert it never exceeds the limit.
  size_t peak = peak_inflight_.load(std::memory_order_relaxed);
  const size_t now = cur + 1;
  while (now > peak && !peak_inflight_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return true;
}

size_t QueryService::tenant_limit(uint32_t tenant_id) const {
  const TenantState* ts = FindTenant(tenant_id);
  return ts != nullptr ? ts->limit : SIZE_MAX;
}
size_t QueryService::tenant_inflight(uint32_t tenant_id) const {
  const TenantState* ts = FindTenant(tenant_id);
  return ts != nullptr ? ts->inflight.load(std::memory_order_relaxed) : 0;
}
size_t QueryService::tenant_peak_inflight(uint32_t tenant_id) const {
  const TenantState* ts = FindTenant(tenant_id);
  return ts != nullptr ? ts->peak.load(std::memory_order_relaxed) : 0;
}
uint64_t QueryService::tenant_shed(uint32_t tenant_id) const {
  const TenantState* ts = FindTenant(tenant_id);
  return ts != nullptr ? ts->shed.Get() : 0;
}
uint64_t QueryService::tenant_admitted(uint32_t tenant_id) const {
  const TenantState* ts = FindTenant(tenant_id);
  return ts != nullptr ? ts->admitted.Get() : 0;
}

Response QueryService::ShedResponse(const Request& req) {
  return ErrorResponse(
      req, Status::Unavailable("server at admission limit, retry later"));
}

Response QueryService::Execute(const Request& req) {
  // Metadata bypasses admission entirely: it costs a map walk, and
  // shedding it would blind clients exactly when the server is busiest.
  if (req.type == RequestType::kTableInfo) return HandleTableInfo(req);
  const double admit_us = TraceNowMicros();
  if (!TryAdmit(req.tenant_id)) return ShedResponse(req);
  return ExecuteAdmitted(req, admit_us);
}

Response QueryService::ExecuteAdmitted(const Request& req,
                                       double admit_micros) {
  ServerMetrics& sm = ServerMetrics::Get();
  const bool timed = TelemetryEnabled();
  const double start_us = timed ? TraceNowMicros() : 0;
  if (timed) {
    sm.queue_wait_ns->Observe(
        uint64_t(std::max(0.0, start_us - admit_micros) * 1000.0));
  }

  uint64_t budget = req.deadline_micros != 0 ? req.deadline_micros
                                             : options_.default_deadline_micros;
  const double deadline_us =
      budget != 0 ? admit_micros + double(budget) : 0.0;

  Response resp = Dispatch(req, deadline_us);

  if (resp.code == StatusCode::kDeadlineExceeded) {
    deadline_exceeded_.Add();
  } else if (resp.code != StatusCode::kOk) {
    sm.errors->Increment();
  }
  if (timed) {
    sm.e2e_ns->Observe(uint64_t((TraceNowMicros() - start_us) * 1000.0));
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  sm.inflight->Set(int64_t(inflight_.load(std::memory_order_relaxed)));
  if (TenantState* ts = FindTenant(req.tenant_id)) {
    ts->inflight.fetch_sub(1, std::memory_order_acq_rel);
    ts->inflight_metric->Set(
        int64_t(ts->inflight.load(std::memory_order_relaxed)));
  }
  return resp;
}

Response QueryService::Dispatch(const Request& req, double deadline_micros) {
  ServerMetrics& sm = ServerMetrics::Get();
  // Expired-in-queue queries are answered without touching the table:
  // under overload the deadline is the backpressure mechanism, and work
  // the client has already given up on is pure waste.
  if (Status st = CheckDeadline(deadline_micros); !st.ok()) {
    return ErrorResponse(req, st);
  }
  switch (req.type) {
    case RequestType::kPoint: {
      sm.requests_point->Increment();
      TraceOperation op("server.point");
      return HandlePoint(req, deadline_micros);
    }
    case RequestType::kScan: {
      sm.requests_scan->Increment();
      TraceOperation op("server.scan");
      return HandleScan(req, deadline_micros);
    }
    case RequestType::kAggregate: {
      sm.requests_aggregate->Increment();
      TraceOperation op("server.aggregate");
      return HandleAggregate(req, deadline_micros);
    }
    case RequestType::kTableInfo:
      return HandleTableInfo(req);
  }
  return ErrorResponse(req, Status::InvalidArgument("unknown request type"));
}

Result<const StoredColumn*> QueryService::ResolveColumn(
    const std::string& name) const {
  const StoredColumn* col = table_->column(name);
  if (col == nullptr) {
    return Status::InvalidArgument("no such column: " + name);
  }
  if (col->type == TypeId::kFloat64) {
    return Status::InvalidArgument("column " + name +
                                   " is float-typed; integer columns only");
  }
  return col;
}

Response QueryService::HandlePoint(const Request& req,
                                   double deadline_micros) {
  Result<const StoredColumn*> col = ResolveColumn(req.column);
  if (!col.ok()) return ErrorResponse(req, col.status());
  if (req.row >= col.ValueOrDie()->rows) {
    return ErrorResponse(
        req, Status::OutOfRange("row " + std::to_string(req.row) +
                                " out of range"));
  }
  if (Status st = CheckDeadline(deadline_micros); !st.ok()) {
    return ErrorResponse(req, st);
  }
  Response resp;
  resp.request_id = req.request_id;
  resp.type = req.type;
  Status st = DispatchType(col.ValueOrDie()->type, [&](auto tag) -> Status {
    using T = decltype(tag);
    if constexpr (std::is_integral_v<T>) {
      SCC_ASSIGN_OR_RETURN(
          T v, bm_->template ReadValue<T>(table_, col.ValueOrDie(), req.row));
      resp.value = int64_t(v);
      return Status::OK();
    } else {
      return Status::InvalidArgument("unsupported column type");
    }
  });
  if (!st.ok()) return ErrorResponse(req, st);
  return resp;
}

Response QueryService::HandleScan(const Request& req, double deadline_micros) {
  Result<const StoredColumn*> value_col = ResolveColumn(req.column);
  if (!value_col.ok()) return ErrorResponse(req, value_col.status());
  if (req.filter_column.empty()) {
    return ErrorResponse(
        req, Status::InvalidArgument("scan requires a filter column"));
  }
  Result<const StoredColumn*> filter_col = ResolveColumn(req.filter_column);
  if (!filter_col.ok()) return ErrorResponse(req, filter_col.status());
  if (req.lo > req.hi) {
    return ErrorResponse(
        req, Status::InvalidArgument("scan range is empty (lo > hi)"));
  }

  // Column 0 carries the values; the filter column rides along only when
  // distinct (pushdown needs it in the scanned set).
  std::vector<std::string> cols{req.column};
  if (req.filter_column != req.column) cols.push_back(req.filter_column);

  ParallelScanOptions opts;
  opts.threads = options_.scan_threads;
  opts.trace_label = "server.scan.morsels";
  opts.cancel_check = [deadline_micros] {
    return CheckDeadline(deadline_micros);
  };
  ParallelScan scan(table_, bm_, cols, opts);
  scan.SetPushdownBetween(req.filter_column, req.lo, req.hi);

  const size_t chunk_values = table_->chunk_values();
  const TypeId vtype = value_col.ValueOrDie()->type;
  std::vector<SlotAcc> slots(scan.slot_count());
  for (SlotAcc& s : slots) s.collect = true;
  Status st = scan.Run([&](const Batch& batch, size_t morsel, size_t slot) {
    SlotAcc& acc = slots[slot];
    const uint64_t base = acc.Advance(morsel, chunk_values, batch.rows);
    const SelVec& sel = scan.selection(slot);
    for (size_t i = 0; i < sel.count; i++) {
      acc.Fold(ValueAt(batch, vtype, sel.idx[i]), base + sel.idx[i]);
    }
  });
  if (!st.ok()) return ErrorResponse(req, st);

  // Deterministic response independent of thread count and morsel
  // interleaving: merge per-slot hits, order by global row, then cap.
  std::vector<std::pair<uint64_t, int64_t>> all;
  uint64_t total = 0;
  for (SlotAcc& s : slots) {
    total += s.matches;
    all.insert(all.end(), s.rows.begin(), s.rows.end());
  }
  std::sort(all.begin(), all.end());
  const uint64_t cap = std::min<uint64_t>(req.limit, options_.max_scan_rows);
  Response resp;
  resp.request_id = req.request_id;
  resp.type = req.type;
  resp.total_matches = total;
  resp.values.reserve(size_t(std::min<uint64_t>(cap, all.size())));
  for (size_t i = 0; i < all.size() && i < cap; i++) {
    resp.values.push_back(all[i].second);
  }
  ServerMetrics::Get().scan_rows_returned->Add(resp.values.size());
  return resp;
}

Response QueryService::HandleAggregate(const Request& req,
                                       double deadline_micros) {
  Result<const StoredColumn*> agg_col = ResolveColumn(req.column);
  if (!agg_col.ok()) return ErrorResponse(req, agg_col.status());
  const bool filtered = !req.filter_column.empty();
  if (filtered) {
    Result<const StoredColumn*> f = ResolveColumn(req.filter_column);
    if (!f.ok()) return ErrorResponse(req, f.status());
    if (req.lo > req.hi) {
      return ErrorResponse(
          req, Status::InvalidArgument("aggregate range is empty (lo > hi)"));
    }
  }

  // Unfiltered COUNT is schema math, not a scan.
  if (!filtered && req.agg_op == AggOp::kCount) {
    Response resp;
    resp.request_id = req.request_id;
    resp.type = req.type;
    resp.value = int64_t(agg_col.ValueOrDie()->rows);
    return resp;
  }

  std::vector<std::string> cols{req.column};
  if (filtered && req.filter_column != req.column) {
    cols.push_back(req.filter_column);
  }
  ParallelScanOptions opts;
  opts.threads = options_.scan_threads;
  opts.trace_label = "server.aggregate.morsels";
  opts.cancel_check = [deadline_micros] {
    return CheckDeadline(deadline_micros);
  };
  ParallelScan scan(table_, bm_, cols, opts);
  if (filtered) scan.SetPushdownBetween(req.filter_column, req.lo, req.hi);

  const size_t chunk_values = table_->chunk_values();
  const TypeId vtype = agg_col.ValueOrDie()->type;
  std::vector<SlotAcc> slots(scan.slot_count());
  Status st = scan.Run([&](const Batch& batch, size_t morsel, size_t slot) {
    SlotAcc& acc = slots[slot];
    const uint64_t base = acc.Advance(morsel, chunk_values, batch.rows);
    if (filtered) {
      const SelVec& sel = scan.selection(slot);
      for (size_t i = 0; i < sel.count; i++) {
        acc.Fold(ValueAt(batch, vtype, sel.idx[i]), base + sel.idx[i]);
      }
    } else {
      for (size_t i = 0; i < batch.rows; i++) {
        acc.Fold(ValueAt(batch, vtype, i), base + i);
      }
    }
  });
  if (!st.ok()) return ErrorResponse(req, st);

  SlotAcc merged;
  for (const SlotAcc& s : slots) {
    merged.matches += s.matches;
    merged.sum += s.sum;
    merged.min = std::min(merged.min, s.min);
    merged.max = std::max(merged.max, s.max);
  }
  Response resp;
  resp.request_id = req.request_id;
  resp.type = req.type;
  switch (req.agg_op) {
    case AggOp::kSum:
      resp.value = int64_t(merged.sum);
      break;
    case AggOp::kCount:
      resp.value = int64_t(merged.matches);
      break;
    case AggOp::kMin:
    case AggOp::kMax:
      if (merged.matches == 0) {
        return ErrorResponse(
            req, Status::OutOfRange("aggregate over empty selection"));
      }
      resp.value = req.agg_op == AggOp::kMin ? merged.min : merged.max;
      break;
    case AggOp::kNone:
      return ErrorResponse(req,
                           Status::InvalidArgument("missing aggregate op"));
  }
  return resp;
}

Response QueryService::HandleTableInfo(const Request& req) {
  Response resp;
  resp.request_id = req.request_id;
  resp.type = req.type;
  resp.rows = table_->rows();
  for (size_t c = 0; c < table_->column_count(); c++) {
    const StoredColumn* col = table_->column(c);
    resp.columns.push_back(ColumnInfo{col->name, uint8_t(col->type)});
  }
  return resp;
}

}  // namespace server
}  // namespace scc
