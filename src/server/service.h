#ifndef SCC_SERVER_SERVICE_H_
#define SCC_SERVER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"
#include "storage/buffer_manager.h"
#include "storage/table.h"
#include "sys/telemetry.h"

// QueryService — the transport-independent core of scc_serve: admission
// control, per-query deadlines, and the three query paths over one
// loaded compressed table (docs/SERVICE.md).
//
//  * Point lookups route to the tiered BufferManager::ReadValue — a hot
//    hit copies out of the decoded-group cache, a miss decodes exactly
//    one 128-value group (the paper's fine-grained access, §3.1).
//  * Range scans and filtered aggregates route through ParallelScan with
//    compressed-domain BETWEEN pushdown (SegmentReader::SelectBetween):
//    min/max-disqualified groups are never decoded.
//  * Both run one filtered fold (Fold): per-slot partials (SUM in
//    wrapping uint64, COUNT, MIN, MAX), all commutative, so results are
//    deterministic across thread counts and morsel interleavings. A scan
//    caps each slot at cap = min(limit, max_scan_rows) rows, kept in row
//    order, and merges the slots' runs by row id; it counts every match,
//    so total_matches stays exact while its memory is O(slots x cap).
//
// Admission control: at most max_inflight admitted queries exist at any
// instant, and tenants with a configured quota are additionally capped
// at their weighted share of that limit (limit_i = max(1,
// max_inflight * weight_i / Σweights)) — a misbehaving tenant saturates
// its own share, never the whole server. TryAdmit() is a handful of
// atomics — a shed request costs no decode work, no allocation, no lock
// (the overload tests pin the codec counters at zero across a shed
// storm). Tenant 0 (and any tenant without a quota entry) is only
// subject to the global cap.
//
// Deadlines: each admitted query gets a relative budget (request's
// deadline_micros, else the server default; 0 = none). The budget is
// checked once before execution starts (queries that expired waiting in
// the pool queue never touch the table) and then at every morsel
// boundary via ParallelScan's cancel_check, so a mid-scan expiry stops
// claiming morsels and releases every page pin on the way out.

namespace scc {
namespace server {

/// One tenant's admission share. Weights are relative: tenant i may hold
/// at most max(1, max_inflight * weight_i / Σweights) in-flight slots.
struct TenantQuota {
  uint32_t tenant_id = 0;
  uint32_t weight = 1;
};

struct ServiceOptions {
  /// Admission limit: maximum queries past TryAdmit at once. Requests
  /// beyond it are shed with Status::Unavailable.
  size_t max_inflight = 64;
  /// Per-tenant weighted quotas (empty = every tenant shares the global
  /// cap only). Tenants absent from the list are admitted under the
  /// global cap alone.
  std::vector<TenantQuota> tenant_quotas;
  /// Default per-query budget in µs when the request carries none.
  /// 0 = no deadline.
  uint64_t default_deadline_micros = 0;
  /// Hard cap on values materialized into one scan response (the
  /// request's `limit` is clamped to this).
  uint64_t max_scan_rows = 1u << 16;
  /// ParallelScanOptions::threads for scan/aggregate queries (0 = pool
  /// workers + caller).
  unsigned scan_threads = 0;
};

class QueryService {
 public:
  QueryService(const Table* table, BufferManager* bm,
               ServiceOptions options = {});

  /// Takes an in-flight slot (global + the tenant's share when a quota
  /// is configured) if one is free. Cheap and lock-free; a false return
  /// is a shed — the caller answers Unavailable without queueing any
  /// work.
  bool TryAdmit(uint32_t tenant_id);
  bool TryAdmit() { return TryAdmit(0); }

  /// Executes an admitted request and releases its slot (global and
  /// tenant, via req.tenant_id) before returning. `admit_micros` is the
  /// TraceNowMicros() timestamp of the TryAdmit that won the slot (feeds
  /// server.queue_wait_ns and anchors the deadline).
  Response ExecuteAdmitted(const Request& req, double admit_micros);

  /// Admit + execute in one call (library callers, tests). Sheds are
  /// returned as ShedResponse, exactly like the server path.
  Response Execute(const Request& req);

  /// The Unavailable response a shed request is answered with.
  static Response ShedResponse(const Request& req);

  const ServiceOptions& options() const { return options_; }
  const Table* table() const { return table_; }

  // Test/ops accessors (per-service; the server.* registry family is
  // process-wide).
  size_t inflight() const {
    return inflight_.held.load(std::memory_order_relaxed);
  }
  size_t peak_inflight() const {
    return inflight_.peak.load(std::memory_order_relaxed);
  }
  uint64_t accepted() const { return accepted_.Get(); }
  uint64_t shed() const { return shed_.Get(); }
  uint64_t deadline_exceeded() const { return deadline_exceeded_.Get(); }

  /// Per-tenant accessors; all return 0 for unconfigured tenants
  /// (tenant_limit returns SIZE_MAX: only the global cap applies).
  size_t tenant_limit(uint32_t tenant_id) const;
  size_t tenant_inflight(uint32_t tenant_id) const;
  size_t tenant_peak_inflight(uint32_t tenant_id) const;
  uint64_t tenant_shed(uint32_t tenant_id) const;
  uint64_t tenant_admitted(uint32_t tenant_id) const;

 private:
  /// In-flight slots under one limit, with the most ever held at once:
  /// the global admission count and each tenant's share are one each.
  struct Slots {
    Slots(size_t limit, Gauge* gauge) : limit(limit), gauge(gauge) {}
    /// Takes a slot unless all `limit` are held. Lock-free.
    bool Take();
    void Release();
    const size_t limit;
    std::atomic<size_t> held{0};
    std::atomic<size_t> peak{0};
    Gauge* const gauge;  // process-wide: every Slots adds its changes
  };

  /// Per-tenant admission state, built once at construction for each
  /// configured quota (fixed set — per-tenant metric names stay bounded).
  struct TenantState {
    TenantState(size_t limit, Counter* admitted_metric, Counter* shed_metric,
                Gauge* inflight_metric)
        : slots(limit, inflight_metric),
          admitted(admitted_metric),
          shed(shed_metric) {}
    Slots slots;
    Flow admitted;
    Flow shed;
  };

  /// What the filtered fold leaves: every match counted and folded, and
  /// the first `cap` matching values in row order.
  struct Folded {
    uint64_t matches = 0;
    uint64_t sum = 0;  // wrapping
    int64_t min = std::numeric_limits<int64_t>::max();
    int64_t max = std::numeric_limits<int64_t>::min();
    std::vector<int64_t> values;
  };

  /// Null for an unconfigured tenant (tenants_ is fixed; see there).
  TenantState* FindTenant(uint32_t tenant_id) const {
    auto it = tenants_.find(tenant_id);
    return it == tenants_.end() ? nullptr : it->second.get();
  }

  Response Dispatch(const Request& req, double deadline_micros);
  Response HandlePoint(const Request& req, double deadline_micros);
  Response HandleScan(const Request& req, double deadline_micros);
  Response HandleAggregate(const Request& req, double deadline_micros);
  Response HandleTableInfo(const Request& req);

  /// The one scan under kScan and kAggregate: resolves and validates
  /// req's columns, runs one ParallelScan with req's BETWEEN filter
  /// pushed down (an aggregate without a filter column folds every row)
  /// and folds its matches. Each slot keeps at most `cap` of them, so the
  /// fold holds O(slots x cap) rows however many match.
  Result<Folded> Fold(const Request& req, uint64_t cap,
                      double deadline_micros);

  /// Resolves `name` to a column the integer query paths can serve, or
  /// an error status (unknown name, or a float column — the compressed
  /// scan kernels are integer-domain).
  Result<const StoredColumn*> ResolveColumn(const std::string& name) const;

  const Table* table_;
  BufferManager* bm_;
  ServiceOptions options_;

  Slots inflight_;
  Flow accepted_;
  Flow shed_;
  Flow deadline_exceeded_;

  // Immutable after construction; values hold the mutable atomics.
  std::unordered_map<uint32_t, std::unique_ptr<TenantState>> tenants_;
};

}  // namespace server
}  // namespace scc

#endif  // SCC_SERVER_SERVICE_H_
