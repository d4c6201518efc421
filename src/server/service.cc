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

/// A reply to `req` with its id and type and no payload yet.
Response ReplyTo(const Request& req) {
  Response resp;
  resp.request_id = req.request_id;
  resp.type = req.type;
  return resp;
}

Response ErrorResponse(const Request& req, const Status& st) {
  Response resp = ReplyTo(req);
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

using RowValue = std::pair<uint64_t, int64_t>;  // (global row, value)

/// One slot's share of the filtered fold, on its own cache line: its
/// worker writes it once per value. A slot's visitor calls are
/// sequential (one thread at a time), the slot claims morsels in
/// increasing order, and a morsel yields its vectors in offset order. So
/// tracking (morsel, offset) here recovers the global row id that
/// ParallelScan's visitor does not carry, and the slot's matches arrive
/// sorted by row.
struct alignas(64) SlotAcc {
  size_t morsel = SIZE_MAX;
  size_t off = 0;

  uint64_t matches = 0;
  uint64_t sum = 0;  // wrapping: deterministic under any interleaving
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
  std::vector<RowValue> rows;  // the slot's first `cap` matches

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

  /// Folds one batch's matches: v[sel->idx[i]], or each of the batch's
  /// `batch_rows` values when `sel` is null. Keeps (row, value) while the
  /// slot holds fewer than `cap`; counts and folds every match.
  template <typename T>
  void Fold(const T* v, const SelVec* sel, size_t batch_rows, uint64_t base,
            uint64_t cap) {
    const size_t n = sel != nullptr ? sel->count : batch_rows;
    auto at = [&](size_t i) -> size_t {
      return sel != nullptr ? sel->idx[i] : i;
    };
    for (size_t i = 0; i < n && matches + i < cap; i++) {
      rows.emplace_back(base + at(i), int64_t(v[at(i)]));
    }
    uint64_t s = sum;
    int64_t lo = min, hi = max;
    for (size_t i = 0; i < n; i++) {
      const int64_t x = int64_t(v[at(i)]);
      s += uint64_t(x);
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    sum = s;
    min = lo;
    max = hi;
    matches += n;
  }
};

}  // namespace

bool QueryService::Slots::Take() {
  size_t cur = held.load(std::memory_order_relaxed);
  do {
    if (cur >= limit) return false;
  } while (!held.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_acq_rel));
  size_t p = peak.load(std::memory_order_relaxed);
  while (cur + 1 > p &&
         !peak.compare_exchange_weak(p, cur + 1, std::memory_order_relaxed)) {
  }
  gauge->Add(1);
  return true;
}

void QueryService::Slots::Release() {
  held.fetch_sub(1, std::memory_order_acq_rel);
  gauge->Add(-1);
}

QueryService::QueryService(const Table* table, BufferManager* bm,
                           ServiceOptions options)
    : table_(table),
      bm_(bm),
      options_(std::move(options)),
      inflight_(options_.max_inflight, ServerMetrics::Get().inflight),
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
  // Tenant share first: a tenant at its quota is shed without touching
  // the global count, so it cannot starve other tenants' CAS traffic.
  TenantState* ts = FindTenant(tenant_id);
  if (ts != nullptr && !ts->slots.Take()) {
    ts->shed.Add();
    shed_.Add();
    return false;
  }
  if (!inflight_.Take()) {
    if (ts != nullptr) {
      ts->slots.Release();  // roll the tenant's share back
      ts->shed.Add();
    }
    shed_.Add();
    return false;
  }
  accepted_.Add();
  if (ts != nullptr) ts->admitted.Add();
  return true;
}

size_t QueryService::tenant_limit(uint32_t tenant_id) const {
  const TenantState* ts = FindTenant(tenant_id);
  return ts != nullptr ? ts->slots.limit : SIZE_MAX;
}
size_t QueryService::tenant_inflight(uint32_t tenant_id) const {
  const TenantState* ts = FindTenant(tenant_id);
  return ts != nullptr ? ts->slots.held.load(std::memory_order_relaxed) : 0;
}
size_t QueryService::tenant_peak_inflight(uint32_t tenant_id) const {
  const TenantState* ts = FindTenant(tenant_id);
  return ts != nullptr ? ts->slots.peak.load(std::memory_order_relaxed) : 0;
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
  inflight_.Release();
  if (TenantState* ts = FindTenant(req.tenant_id)) ts->slots.Release();
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
  Response resp = ReplyTo(req);
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

Result<QueryService::Folded> QueryService::Fold(const Request& req,
                                                uint64_t cap,
                                                double deadline_micros) {
  const bool is_scan = req.type == RequestType::kScan;
  SCC_ASSIGN_OR_RETURN(const StoredColumn* value_col,
                       ResolveColumn(req.column));
  const bool filtered = !req.filter_column.empty();
  if (filtered) {
    SCC_RETURN_NOT_OK(ResolveColumn(req.filter_column).status());
    if (req.lo > req.hi) {
      return Status::InvalidArgument(
          std::string(is_scan ? "scan" : "aggregate") +
          " range is empty (lo > hi)");
    }
  } else if (is_scan) {
    return Status::InvalidArgument("scan requires a filter column");
  }

  // Column 0 carries the values; the filter column rides along only when
  // distinct (pushdown needs it in the scanned set).
  std::vector<std::string> cols{req.column};
  if (filtered && req.filter_column != req.column) {
    cols.push_back(req.filter_column);
  }
  ParallelScanOptions opts;
  opts.threads = options_.scan_threads;
  opts.trace_label =
      is_scan ? "server.scan.morsels" : "server.aggregate.morsels";
  opts.cancel_check = [deadline_micros] {
    return CheckDeadline(deadline_micros);
  };
  ParallelScan scan(table_, bm_, cols, opts);
  if (filtered) scan.SetPushdownBetween(req.filter_column, req.lo, req.hi);

  const size_t chunk_values = table_->chunk_values();
  std::vector<SlotAcc> slots(scan.slot_count());
  SCC_RETURN_NOT_OK(
      scan.Run([&](const Batch& batch, size_t morsel, size_t slot) {
        SlotAcc& acc = slots[slot];
        const uint64_t base = acc.Advance(morsel, chunk_values, batch.rows);
        const SelVec* sel = filtered ? &scan.selection(slot) : nullptr;
        DispatchType(value_col->type, [&](auto tag) {
          using T = decltype(tag);
          if constexpr (std::is_integral_v<T>) {  // floats fail to resolve
            acc.Fold(batch.columns[0]->template data<T>(), sel, batch.rows,
                     base, cap);
          }
        });
      }));

  Folded out;
  std::vector<RowValue> first;  // the slots' runs merged, cut at `cap`
  for (const SlotAcc& s : slots) {
    out.matches += s.matches;
    out.sum += s.sum;
    out.min = std::min(out.min, s.min);
    out.max = std::max(out.max, s.max);
    std::vector<RowValue> merged(first.size() + s.rows.size());
    std::merge(first.begin(), first.end(), s.rows.begin(), s.rows.end(),
               merged.begin());
    merged.resize(std::min<size_t>(merged.size(), cap));
    first.swap(merged);
  }
  out.values.reserve(first.size());
  for (const RowValue& rv : first) out.values.push_back(rv.second);
  return out;
}

Response QueryService::HandleScan(const Request& req, double deadline_micros) {
  const uint64_t cap = std::min<uint64_t>(req.limit, options_.max_scan_rows);
  Result<Folded> fold = Fold(req, cap, deadline_micros);
  if (!fold.ok()) return ErrorResponse(req, fold.status());
  Response resp = ReplyTo(req);
  resp.total_matches = fold.ValueOrDie().matches;
  resp.values = std::move(fold.ValueOrDie().values);
  ServerMetrics::Get().scan_rows_returned->Add(resp.values.size());
  return resp;
}

Response QueryService::HandleAggregate(const Request& req,
                                       double deadline_micros) {
  if (req.agg_op == AggOp::kNone) {
    return ErrorResponse(req, Status::InvalidArgument("missing aggregate op"));
  }
  Response resp = ReplyTo(req);
  // Unfiltered COUNT is schema math, not a scan.
  if (req.filter_column.empty() && req.agg_op == AggOp::kCount) {
    Result<const StoredColumn*> col = ResolveColumn(req.column);
    if (!col.ok()) return ErrorResponse(req, col.status());
    resp.value = int64_t(col.ValueOrDie()->rows);
    return resp;
  }
  Result<Folded> fold = Fold(req, /*cap=*/0, deadline_micros);
  if (!fold.ok()) return ErrorResponse(req, fold.status());
  const Folded& f = fold.ValueOrDie();
  switch (req.agg_op) {
    case AggOp::kSum:
      resp.value = int64_t(f.sum);
      break;
    case AggOp::kCount:
      resp.value = int64_t(f.matches);
      break;
    case AggOp::kMin:
    case AggOp::kMax:
      if (f.matches == 0) {
        return ErrorResponse(
            req, Status::OutOfRange("aggregate over empty selection"));
      }
      resp.value = req.agg_op == AggOp::kMin ? f.min : f.max;
      break;
    case AggOp::kNone:
      break;  // answered above
  }
  return resp;
}

Response QueryService::HandleTableInfo(const Request& req) {
  Response resp = ReplyTo(req);
  resp.rows = table_->rows();
  for (size_t c = 0; c < table_->column_count(); c++) {
    const StoredColumn* col = table_->column(c);
    resp.columns.push_back(ColumnInfo{col->name, uint8_t(col->type)});
  }
  return resp;
}

}  // namespace server
}  // namespace scc
