#include "tpch/queries.h"

#include <algorithm>
#include <string>
#include <vector>

#include "engine/hash_table.h"
#include "engine/primitives.h"
#include "exec/parallel_scan.h"
#include "sys/telemetry.h"
#include "sys/timer.h"

namespace scc {

namespace {

// Telemetry handles for the query driver (see codec_metrics.h for the
// caching rationale).
struct TpchMetrics {
  Counter* queries;
  Counter* result_rows;
  Counter* cpu_nanos;
  Counter* io_nanos;

  static TpchMetrics& Get() {
    static TpchMetrics* m = [] {
      auto* tm = new TpchMetrics;
      MetricsRegistry& reg = MetricsRegistry::Instance();
      tm->queries = &reg.GetCounter("tpch.queries");
      tm->result_rows = &reg.GetCounter("tpch.result_rows");
      tm->cpu_nanos = &reg.GetCounter("tpch.cpu_nanos");
      tm->io_nanos = &reg.GetCounter("tpch.io_nanos");
      return tm;
    }();
    return *m;
  }
};

/// Stable literal span names (the trace recorder stores the pointer).
const char* QuerySpanName(int q) {
  switch (q) {
    case 1: return "tpch.q1";
    case 3: return "tpch.q3";
    case 4: return "tpch.q4";
    case 5: return "tpch.q5";
    case 6: return "tpch.q6";
    case 7: return "tpch.q7";
    case 11: return "tpch.q11";
    case 14: return "tpch.q14";
    case 15: return "tpch.q15";
    case 18: return "tpch.q18";
    case 21: return "tpch.q21";
    default: return "tpch.q_other";
  }
}

/// Runs one plan under `span_name` and books it: wall time, the simulated
/// I/O the buffer manager's disk charged meanwhile, and the tpch.*
/// counters. Serial and parallel runs share it.
template <typename Plan>
QueryStats Measure(int q, const char* span_name, BufferManager* bm,
                   Plan&& plan) {
  TraceSpan span(span_name, "tpch");
  const double io0 = bm->disk()->io_seconds();
  const size_t bytes0 = bm->disk()->bytes_read();
  Timer timer;
  QueryStats s = plan();
  s.query = q;
  s.cpu_seconds = timer.ElapsedSeconds();
  s.io_seconds = bm->disk()->io_seconds() - io0;
  s.bytes_read = bm->disk()->bytes_read() - bytes0;
  TpchMetrics& tm = TpchMetrics::Get();
  tm.queries->Increment();
  tm.result_rows->Add(s.result_rows);
  tm.cpu_nanos->Add(uint64_t(s.cpu_seconds * 1e9));
  tm.io_nanos->Add(uint64_t(s.io_seconds * 1e9));
  return s;
}

// Nation codes used by the parameterized queries (dbgen assigns fixed
// names; any fixed assignment preserves selectivities).
constexpr int kNationFrance = 6;
constexpr int kNationGermany = 7;
constexpr int kRegionAsia = 2;  // nations 10..14
constexpr int kSegmentBuilding = 0;

void Mix(uint64_t* h, uint64_t v) {
  *h = (*h ^ v) * 0x100000001B3ull;
  *h ^= *h >> 31;
}

int YearOf(int32_t days) {
  int year = 1992;
  while (true) {
    int len = ((year % 4 == 0 && year % 100 != 0) || year % 400 == 0) ? 366
                                                                      : 365;
    if (days < len) return year;
    days -= len;
    year++;
  }
}

/// Materializes one column via the storage layer (I/O charged through the
/// buffer manager), widened to int64.
std::vector<int64_t> LoadColumn(const Table& t, BufferManager* bm,
                                const std::string& name,
                                TableScanOp::Mode mode, double* decomp) {
  TableScanOp scan(&t, bm, {name}, mode);
  std::vector<int64_t> out;
  out.reserve(t.rows());
  Batch b;
  while (size_t n = scan.Next(&b)) {
    const Vector& v = *b.col(0);
    DispatchType(v.type(), [&](auto tag) {
      using T = decltype(tag);
      if constexpr (std::is_integral_v<T>) {
        const T* p = v.data<T>();
        for (size_t i = 0; i < n; i++) out.push_back(int64_t(p[i]));
      }
      return 0;
    });
  }
  *decomp += scan.decompress_seconds();
  return out;
}

// ---------------------------------------------------------------------------
// Q1 (pricing summary report) and Q6 (forecasting revenue change): the
// pure lineitem scans
// ---------------------------------------------------------------------------
//
// Each is written once as an aggregate: Fold consumes one vector, Merge
// adds another slot's partial, Finalize digests the result. All
// aggregates are integer sums, so merge order cannot change a bit of the
// checksum, and the serial and morsel-parallel plans below agree exactly
// (tpch_test pins this down). Fold's `sel` is the scan's selection: Q6
// pushes its shipdate range into the scan and refines that selection in
// place; Q1 pushes nothing down and overwrites it with its own.

// alignas: parallel slots' partials never false-share a cache line.
struct alignas(64) Q1Agg {
  static std::vector<std::string> Columns() {
    return {"l_shipdate", "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax"};
  }
  template <typename Scan>
  static void Pushdown(Scan*) {}

  void Fold(const Batch& b, SelVec* sel) {
    SelectLE(b.col(0)->data<int32_t>(), b.rows, cutoff, sel);
    const int8_t* rf = b.col(1)->data<int8_t>();
    const int8_t* ls = b.col(2)->data<int8_t>();
    const int8_t* qty = b.col(3)->data<int8_t>();
    const int64_t* ep = b.col(4)->data<int64_t>();
    const int8_t* dc = b.col(5)->data<int8_t>();
    const int8_t* tx = b.col(6)->data<int8_t>();
    for (size_t k = 0; k < sel->count; k++) {
      const uint32_t i = sel->idx[k];
      const int g = rf[i] * 2 + ls[i];
      const int64_t disc_price = ep[i] * (100 - dc[i]);
      sum_qty[g] += qty[i];
      sum_base[g] += ep[i];
      sum_disc_price[g] += disc_price;
      sum_charge[g] += disc_price * (100 + tx[i]);
      sum_disc[g] += dc[i];
      count[g]++;
    }
  }
  void Merge(const Q1Agg& p) {
    for (int g = 0; g < 8; g++) {
      sum_qty[g] += p.sum_qty[g];
      sum_base[g] += p.sum_base[g];
      sum_disc_price[g] += p.sum_disc_price[g];
      sum_charge[g] += p.sum_charge[g];
      sum_disc[g] += p.sum_disc[g];
      count[g] += p.count[g];
    }
  }
  void Finalize(QueryStats* s) const {
    for (int g = 0; g < 8; g++) {
      if (count[g] == 0) continue;
      s->result_rows++;
      Mix(&s->checksum, uint64_t(g));
      Mix(&s->checksum, uint64_t(sum_qty[g]));
      Mix(&s->checksum, uint64_t(sum_base[g]));
      Mix(&s->checksum, uint64_t(sum_disc_price[g]));
      Mix(&s->checksum, uint64_t(sum_charge[g]));
      Mix(&s->checksum, uint64_t(sum_disc[g]));
      Mix(&s->checksum, uint64_t(count[g]));
    }
  }

  int32_t cutoff = TpchDate(1998, 9, 2);
  int64_t sum_qty[8] = {0}, sum_base[8] = {0}, sum_disc_price[8] = {0},
          sum_charge[8] = {0}, sum_disc[8] = {0}, count[8] = {0};
};

struct alignas(64) Q6Agg {
  static std::vector<std::string> Columns() {
    return {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"};
  }
  /// The shipdate range runs inside the scan: selection straight off the
  /// packed codes, min/max-disqualified groups never decoded, the other
  /// columns decoded group-sparse.
  template <typename Scan>
  static void Pushdown(Scan* scan) {
    scan->SetPushdownBetween("l_shipdate", TpchDate(1994, 1, 1),
                             TpchDate(1995, 1, 1) - 1);
  }

  // The refinements only touch selected indices, so the batch contract
  // under pushdown (data valid at selected indices) is respected.
  void Fold(const Batch& b, SelVec* sel) {
    RefineIf(b.col(1)->data<int8_t>(), sel,
             [](int8_t d) { return d >= 5 && d <= 7; });
    RefineIf(b.col(2)->data<int8_t>(), sel,
             [](int8_t q) { return q < 24; });
    const int64_t* ep = b.col(3)->data<int64_t>();
    const int8_t* dc = b.col(1)->data<int8_t>();
    int64_t sum = 0;
    for (size_t k = 0; k < sel->count; k++) {
      const uint32_t i = sel->idx[k];
      sum += ep[i] * dc[i];
    }
    revenue += sum;
  }
  void Merge(const Q6Agg& p) { revenue += p.revenue; }
  void Finalize(QueryStats* s) const {
    s->result_rows = 1;
    Mix(&s->checksum, uint64_t(revenue));
  }

  int64_t revenue = 0;
};

template <typename Agg>
QueryStats SerialScanPlan(const TpchDatabase& db, BufferManager* bm,
                          TableScanOp::Mode mode) {
  TableScanOp scan(&db.lineitem, bm, Agg::Columns(), mode);
  Agg::Pushdown(&scan);
  Agg agg;
  Batch b;
  while (scan.Next(&b)) agg.Fold(b, scan.mutable_selection());
  QueryStats s;
  agg.Finalize(&s);
  s.decompress_seconds = scan.decompress_seconds();
  return s;
}

/// Each slot folds into its own partial; the partials merge before the
/// one finalization.
template <typename Agg>
Result<QueryStats> ParallelScanPlan(const TpchDatabase& db, BufferManager* bm,
                                    unsigned threads) {
  ParallelScan::Options opt;
  opt.threads = threads;
  ParallelScan scan(&db.lineitem, bm, Agg::Columns(), opt);
  Agg::Pushdown(&scan);
  std::vector<Agg> partials(scan.slot_count());
  SCC_RETURN_NOT_OK(scan.Run([&](const Batch& b, size_t, size_t slot) {
    partials[slot].Fold(b, scan.mutable_selection(slot));
  }));
  Agg agg;
  for (const Agg& p : partials) agg.Merge(p);
  QueryStats s;
  agg.Finalize(&s);
  s.decompress_seconds = scan.decompress_seconds();
  return s;
}

// ---------------------------------------------------------------------------
// Q3: shipping priority
// ---------------------------------------------------------------------------

QueryStats Q3(const TpchDatabase& db, BufferManager* bm,
              TableScanOp::Mode mode) {
  QueryStats s;
  const int32_t kDate = TpchDate(1995, 3, 15);

  // Customers in the BUILDING segment -> bitmap over dense custkeys.
  std::vector<uint8_t> building(db.customer.rows() + 1, 0);
  {
    TableScanOp scan(&db.customer, bm, {"c_custkey", "c_mktsegment"}, mode);
    Batch b;
    while (size_t n = scan.Next(&b)) {
      const int32_t* ck = b.col(0)->data<int32_t>();
      const int8_t* seg = b.col(1)->data<int8_t>();
      for (size_t i = 0; i < n; i++) {
        building[ck[i]] = (seg[i] == kSegmentBuilding);
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }

  // Qualifying orders -> hash okey -> (odate, shippriority).
  JoinTable orders_ht(db.orders.rows() / 2);
  std::vector<int32_t> odate_of;
  std::vector<int8_t> oprio_of;
  {
    TableScanOp scan(&db.orders, bm,
                     {"o_orderkey", "o_custkey", "o_orderdate",
                      "o_shippriority"},
                     mode);
    Batch b;
    SelVec sel;
    while (size_t n = scan.Next(&b)) {
      SelectLT(b.col(2)->data<int32_t>(), n, kDate, &sel);
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int32_t* ck = b.col(1)->data<int32_t>();
      const int32_t* od = b.col(2)->data<int32_t>();
      const int8_t* sp = b.col(3)->data<int8_t>();
      for (size_t k = 0; k < sel.count; k++) {
        const uint32_t i = sel.idx[k];
        if (!building[ck[i]]) continue;
        orders_ht.Insert(uint64_t(ok[i]), uint32_t(odate_of.size()));
        odate_of.push_back(od[i]);
        oprio_of.push_back(sp[i]);
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }

  // Lineitem probe + revenue aggregation by order.
  GroupTable groups(4096);
  std::vector<int64_t> revenue;
  std::vector<uint32_t> order_row;
  {
    TableScanOp scan(&db.lineitem, bm,
                     {"l_orderkey", "l_shipdate", "l_extendedprice",
                      "l_discount"},
                     mode);
    Batch b;
    SelVec sel;
    while (size_t n = scan.Next(&b)) {
      SelectGT(b.col(1)->data<int32_t>(), n, kDate, &sel);
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int64_t* ep = b.col(2)->data<int64_t>();
      const int8_t* dc = b.col(3)->data<int8_t>();
      for (size_t k = 0; k < sel.count; k++) {
        const uint32_t i = sel.idx[k];
        uint32_t row = orders_ht.Lookup(uint64_t(ok[i]));
        if (row == JoinTable::kNotFound) continue;
        uint32_t g = groups.GroupId(uint64_t(ok[i]));
        if (g >= revenue.size()) {
          revenue.push_back(0);
          order_row.push_back(row);
        }
        revenue[g] += ep[i] * (100 - dc[i]);
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }

  // Top 10 by revenue desc, orderdate asc.
  std::vector<uint32_t> idx(revenue.size());
  for (uint32_t i = 0; i < idx.size(); i++) idx[i] = i;
  size_t topn = std::min<size_t>(10, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + topn, idx.end(),
                    [&](uint32_t a, uint32_t b2) {
                      if (revenue[a] != revenue[b2]) {
                        return revenue[a] > revenue[b2];
                      }
                      return odate_of[order_row[a]] < odate_of[order_row[b2]];
                    });
  for (size_t k = 0; k < topn; k++) {
    uint32_t g = idx[k];
    s.result_rows++;
    Mix(&s.checksum, groups.keys()[g]);
    Mix(&s.checksum, uint64_t(revenue[g]));
    Mix(&s.checksum, uint64_t(odate_of[order_row[g]]));
    Mix(&s.checksum, uint64_t(oprio_of[order_row[g]]));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Q4: order priority checking
// ---------------------------------------------------------------------------

QueryStats Q4(const TpchDatabase& db, BufferManager* bm,
              TableScanOp::Mode mode) {
  QueryStats s;
  // Orderkeys having a late lineitem (commitdate < receiptdate).
  JoinTable late(db.orders.rows());
  {
    TableScanOp scan(&db.lineitem, bm,
                     {"l_orderkey", "l_commitdate", "l_receiptdate"}, mode);
    Batch b;
    while (size_t n = scan.Next(&b)) {
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int32_t* cd = b.col(1)->data<int32_t>();
      const int32_t* rd = b.col(2)->data<int32_t>();
      for (size_t i = 0; i < n; i++) {
        if (cd[i] < rd[i]) late.Insert(uint64_t(ok[i]), 1);  // dup ok
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }
  const int32_t lo = TpchDate(1993, 7, 1);
  const int32_t hi = TpchDate(1993, 10, 1);
  int64_t count[5] = {0};
  {
    TableScanOp scan(&db.orders, bm,
                     {"o_orderkey", "o_orderdate", "o_orderpriority"}, mode);
    Batch b;
    SelVec sel;
    while (size_t n = scan.Next(&b)) {
      SelectBetween(b.col(1)->data<int32_t>(), n, lo, hi - 1, &sel);
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int8_t* op = b.col(2)->data<int8_t>();
      for (size_t k = 0; k < sel.count; k++) {
        const uint32_t i = sel.idx[k];
        if (late.Lookup(uint64_t(ok[i])) != JoinTable::kNotFound) {
          count[op[i]]++;
        }
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }
  for (int p = 0; p < 5; p++) {
    s.result_rows++;
    Mix(&s.checksum, uint64_t(p));
    Mix(&s.checksum, uint64_t(count[p]));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Q5: local supplier volume
// ---------------------------------------------------------------------------

QueryStats Q5(const TpchDatabase& db, BufferManager* bm,
              TableScanOp::Mode mode) {
  QueryStats s;
  auto cust_nation =
      LoadColumn(db.customer, bm, "c_nationkey", mode, &s.decompress_seconds);
  auto supp_nation =
      LoadColumn(db.supplier, bm, "s_nationkey", mode, &s.decompress_seconds);

  const int32_t lo = TpchDate(1994, 1, 1);
  const int32_t hi = TpchDate(1995, 1, 1);
  JoinTable orders_ht(db.orders.rows() / 4);
  std::vector<int32_t> order_cust;
  {
    TableScanOp scan(&db.orders, bm, {"o_orderkey", "o_custkey", "o_orderdate"},
                     mode);
    Batch b;
    SelVec sel;
    while (size_t n = scan.Next(&b)) {
      SelectBetween(b.col(2)->data<int32_t>(), n, lo, hi - 1, &sel);
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int32_t* ck = b.col(1)->data<int32_t>();
      for (size_t k = 0; k < sel.count; k++) {
        const uint32_t i = sel.idx[k];
        orders_ht.Insert(uint64_t(ok[i]), uint32_t(order_cust.size()));
        order_cust.push_back(ck[i]);
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }

  int64_t revenue_by_nation[TpchData::kNations] = {0};
  {
    TableScanOp scan(&db.lineitem, bm,
                     {"l_orderkey", "l_suppkey", "l_extendedprice",
                      "l_discount"},
                     mode);
    Batch b;
    while (size_t n = scan.Next(&b)) {
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int32_t* sk = b.col(1)->data<int32_t>();
      const int64_t* ep = b.col(2)->data<int64_t>();
      const int8_t* dc = b.col(3)->data<int8_t>();
      for (size_t i = 0; i < n; i++) {
        uint32_t row = orders_ht.Lookup(uint64_t(ok[i]));
        if (row == JoinTable::kNotFound) continue;
        int cn = int(cust_nation[size_t(order_cust[row]) - 1]);
        int sn = int(supp_nation[size_t(sk[i]) - 1]);
        if (cn == sn && TpchData::NationRegion(cn) == kRegionAsia) {
          revenue_by_nation[cn] += ep[i] * (100 - dc[i]);
        }
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }
  for (int nk = 0; nk < TpchData::kNations; nk++) {
    if (revenue_by_nation[nk] == 0) continue;
    s.result_rows++;
    Mix(&s.checksum, uint64_t(nk));
    Mix(&s.checksum, uint64_t(revenue_by_nation[nk]));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Q7: volume shipping
// ---------------------------------------------------------------------------

QueryStats Q7(const TpchDatabase& db, BufferManager* bm,
              TableScanOp::Mode mode) {
  QueryStats s;
  auto cust_nation =
      LoadColumn(db.customer, bm, "c_nationkey", mode, &s.decompress_seconds);
  auto supp_nation =
      LoadColumn(db.supplier, bm, "s_nationkey", mode, &s.decompress_seconds);

  // okey -> custkey for every order (no order-side filter in Q7).
  JoinTable orders_ht(db.orders.rows());
  std::vector<int32_t> order_cust;
  order_cust.reserve(db.orders.rows());
  {
    TableScanOp scan(&db.orders, bm, {"o_orderkey", "o_custkey"}, mode);
    Batch b;
    while (size_t n = scan.Next(&b)) {
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int32_t* ck = b.col(1)->data<int32_t>();
      for (size_t i = 0; i < n; i++) {
        orders_ht.Insert(uint64_t(ok[i]), uint32_t(order_cust.size()));
        order_cust.push_back(ck[i]);
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }

  const int32_t lo = TpchDate(1995, 1, 1);
  const int32_t hi = TpchDate(1996, 12, 31);
  // volume[direction][year-1995]; direction 0 = FR->DE, 1 = DE->FR.
  int64_t volume[2][2] = {{0, 0}, {0, 0}};
  {
    TableScanOp scan(&db.lineitem, bm,
                     {"l_orderkey", "l_suppkey", "l_shipdate",
                      "l_extendedprice", "l_discount"},
                     mode);
    Batch b;
    SelVec sel;
    while (size_t n = scan.Next(&b)) {
      SelectBetween(b.col(2)->data<int32_t>(), n, lo, hi, &sel);
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int32_t* sk = b.col(1)->data<int32_t>();
      const int32_t* sd = b.col(2)->data<int32_t>();
      const int64_t* ep = b.col(3)->data<int64_t>();
      const int8_t* dc = b.col(4)->data<int8_t>();
      for (size_t k = 0; k < sel.count; k++) {
        const uint32_t i = sel.idx[k];
        int sn = int(supp_nation[size_t(sk[i]) - 1]);
        if (sn != kNationFrance && sn != kNationGermany) continue;
        uint32_t row = orders_ht.Lookup(uint64_t(ok[i]));
        if (row == JoinTable::kNotFound) continue;
        int cn = int(cust_nation[size_t(order_cust[row]) - 1]);
        bool fr_de = (sn == kNationFrance && cn == kNationGermany);
        bool de_fr = (sn == kNationGermany && cn == kNationFrance);
        if (!fr_de && !de_fr) continue;
        volume[de_fr ? 1 : 0][YearOf(sd[i]) - 1995] += ep[i] * (100 - dc[i]);
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }
  for (int d = 0; d < 2; d++) {
    for (int y = 0; y < 2; y++) {
      s.result_rows++;
      Mix(&s.checksum, uint64_t(d * 10 + y));
      Mix(&s.checksum, uint64_t(volume[d][y]));
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Q11: important stock identification
// ---------------------------------------------------------------------------

QueryStats Q11(const TpchDatabase& db, BufferManager* bm,
               TableScanOp::Mode mode) {
  QueryStats s;
  auto supp_nation =
      LoadColumn(db.supplier, bm, "s_nationkey", mode, &s.decompress_seconds);
  std::vector<int64_t> value(db.part.rows() + 1, 0);
  int64_t total = 0;
  {
    TableScanOp scan(&db.partsupp, bm,
                     {"ps_partkey", "ps_suppkey", "ps_availqty",
                      "ps_supplycost"},
                     mode);
    Batch b;
    while (size_t n = scan.Next(&b)) {
      const int32_t* pk = b.col(0)->data<int32_t>();
      const int32_t* sk = b.col(1)->data<int32_t>();
      const int32_t* aq = b.col(2)->data<int32_t>();
      const int64_t* sc = b.col(3)->data<int64_t>();
      for (size_t i = 0; i < n; i++) {
        if (supp_nation[size_t(sk[i]) - 1] != kNationGermany) continue;
        int64_t v = sc[i] * aq[i];
        value[pk[i]] += v;
        total += v;
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }
  // fraction = 0.0001 / SF; SF derived from the part cardinality.
  const double sf = double(db.part.rows()) / 200000.0;
  const double threshold = double(total) * 0.0001 / std::max(sf, 1e-9);
  for (size_t pk = 1; pk < value.size(); pk++) {
    if (value[pk] > 0 && double(value[pk]) > threshold) {
      s.result_rows++;
      Mix(&s.checksum, uint64_t(pk));
      Mix(&s.checksum, uint64_t(value[pk]));
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Q14: promotion effect
// ---------------------------------------------------------------------------

QueryStats Q14(const TpchDatabase& db, BufferManager* bm,
               TableScanOp::Mode mode) {
  QueryStats s;
  auto typecode =
      LoadColumn(db.part, bm, "p_type", mode, &s.decompress_seconds);
  const int32_t lo = TpchDate(1995, 9, 1);
  const int32_t hi = TpchDate(1995, 10, 1);
  int64_t promo = 0, total = 0;
  TableScanOp scan(&db.lineitem, bm,
                   {"l_shipdate", "l_partkey", "l_extendedprice",
                    "l_discount"},
                   mode);
  Batch b;
  SelVec sel;
  while (size_t n = scan.Next(&b)) {
    SelectBetween(b.col(0)->data<int32_t>(), n, lo, hi - 1, &sel);
    const int32_t* pk = b.col(1)->data<int32_t>();
    const int64_t* ep = b.col(2)->data<int64_t>();
    const int8_t* dc = b.col(3)->data<int8_t>();
    for (size_t k = 0; k < sel.count; k++) {
      const uint32_t i = sel.idx[k];
      int64_t rev = ep[i] * (100 - dc[i]);
      total += rev;
      // "PROMO%" types: 1 of the 5 type prefixes -> codes 0..29 of 150.
      if (typecode[size_t(pk[i]) - 1] < 30) promo += rev;
    }
  }
  s.decompress_seconds += scan.decompress_seconds();
  s.result_rows = 1;
  Mix(&s.checksum, uint64_t(promo));
  Mix(&s.checksum, uint64_t(total));
  return s;
}

// ---------------------------------------------------------------------------
// Q15: top supplier
// ---------------------------------------------------------------------------

QueryStats Q15(const TpchDatabase& db, BufferManager* bm,
               TableScanOp::Mode mode) {
  QueryStats s;
  const int32_t lo = TpchDate(1996, 1, 1);
  const int32_t hi = TpchDate(1996, 4, 1);
  std::vector<int64_t> revenue(db.supplier.rows() + 1, 0);
  TableScanOp scan(&db.lineitem, bm,
                   {"l_shipdate", "l_suppkey", "l_extendedprice",
                    "l_discount"},
                   mode);
  Batch b;
  SelVec sel;
  while (size_t n = scan.Next(&b)) {
    SelectBetween(b.col(0)->data<int32_t>(), n, lo, hi - 1, &sel);
    const int32_t* sk = b.col(1)->data<int32_t>();
    const int64_t* ep = b.col(2)->data<int64_t>();
    const int8_t* dc = b.col(3)->data<int8_t>();
    for (size_t k = 0; k < sel.count; k++) {
      const uint32_t i = sel.idx[k];
      revenue[sk[i]] += ep[i] * (100 - dc[i]);
    }
  }
  s.decompress_seconds += scan.decompress_seconds();
  int64_t best = 0;
  for (int64_t r : revenue) best = std::max(best, r);
  for (size_t sk = 1; sk < revenue.size(); sk++) {
    if (revenue[sk] == best && best > 0) {
      s.result_rows++;
      Mix(&s.checksum, uint64_t(sk));
      Mix(&s.checksum, uint64_t(best));
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Q18: large volume customer
// ---------------------------------------------------------------------------

QueryStats Q18(const TpchDatabase& db, BufferManager* bm,
               TableScanOp::Mode mode) {
  QueryStats s;
  // sum(l_quantity) per order, keeping only sums > 300.
  GroupTable groups(db.orders.rows());
  std::vector<int32_t> qty_sum;
  qty_sum.reserve(db.orders.rows());
  {
    TableScanOp scan(&db.lineitem, bm, {"l_orderkey", "l_quantity"}, mode);
    Batch b;
    while (size_t n = scan.Next(&b)) {
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int8_t* q = b.col(1)->data<int8_t>();
      for (size_t i = 0; i < n; i++) {
        uint32_t g = groups.GroupId(uint64_t(ok[i]));
        if (g >= qty_sum.size()) qty_sum.push_back(0);
        qty_sum[g] += q[i];
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }
  JoinTable big(1024);
  std::vector<int32_t> big_qty;
  for (uint32_t g = 0; g < qty_sum.size(); g++) {
    if (qty_sum[g] > 300) {
      big.Insert(groups.keys()[g], uint32_t(big_qty.size()));
      big_qty.push_back(qty_sum[g]);
    }
  }
  // Orders join + top 100 by (totalprice desc, orderdate asc).
  struct Row {
    int64_t okey;
    int32_t custkey;
    int32_t odate;
    int64_t totalprice;
    int32_t qty;
  };
  std::vector<Row> rows;
  {
    TableScanOp scan(&db.orders, bm,
                     {"o_orderkey", "o_custkey", "o_orderdate",
                      "o_totalprice"},
                     mode);
    Batch b;
    while (size_t n = scan.Next(&b)) {
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int32_t* ck = b.col(1)->data<int32_t>();
      const int32_t* od = b.col(2)->data<int32_t>();
      const int64_t* tp = b.col(3)->data<int64_t>();
      for (size_t i = 0; i < n; i++) {
        uint32_t row = big.Lookup(uint64_t(ok[i]));
        if (row == JoinTable::kNotFound) continue;
        rows.push_back(Row{ok[i], ck[i], od[i], tp[i], big_qty[row]});
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }
  size_t topn = std::min<size_t>(100, rows.size());
  std::partial_sort(rows.begin(), rows.begin() + topn, rows.end(),
                    [](const Row& a, const Row& b2) {
                      if (a.totalprice != b2.totalprice) {
                        return a.totalprice > b2.totalprice;
                      }
                      return a.odate < b2.odate;
                    });
  for (size_t k = 0; k < topn; k++) {
    s.result_rows++;
    Mix(&s.checksum, uint64_t(rows[k].okey));
    Mix(&s.checksum, uint64_t(rows[k].custkey));
    Mix(&s.checksum, uint64_t(rows[k].totalprice));
    Mix(&s.checksum, uint64_t(rows[k].qty));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Q21: suppliers who kept orders waiting
// ---------------------------------------------------------------------------

QueryStats Q21(const TpchDatabase& db, BufferManager* bm,
               TableScanOp::Mode mode) {
  QueryStats s;
  constexpr int kNationSaudi = 20;
  auto supp_nation =
      LoadColumn(db.supplier, bm, "s_nationkey", mode, &s.decompress_seconds);

  // okey -> orderstatus (0=O 1=F 2=P); Q21 wants status F.
  JoinTable status_ht(db.orders.rows());
  std::vector<int8_t> order_status;
  order_status.reserve(db.orders.rows());
  {
    TableScanOp scan(&db.orders, bm, {"o_orderkey", "o_orderstatus"}, mode);
    Batch b;
    while (size_t n = scan.Next(&b)) {
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int8_t* st = b.col(1)->data<int8_t>();
      for (size_t i = 0; i < n; i++) {
        status_ht.Insert(uint64_t(ok[i]), uint32_t(order_status.size()));
        order_status.push_back(st[i]);
      }
    }
    s.decompress_seconds += scan.decompress_seconds();
  }

  // Stream lineitem, which is clustered by orderkey: buffer one order's
  // lines, then resolve the EXISTS / NOT EXISTS pair per order.
  std::vector<int64_t> numwait(db.supplier.rows() + 1, 0);
  struct Line {
    int32_t suppkey;
    bool late;
  };
  std::vector<Line> order_lines;
  int64_t cur_order = -1;

  auto flush_order = [&]() {
    if (order_lines.empty()) return;
    uint32_t row = status_ht.Lookup(uint64_t(cur_order));
    if (row == JoinTable::kNotFound || order_status[row] != 1) {
      order_lines.clear();
      return;  // order not fully shipped ('F')
    }
    // Distinct suppliers / distinct late suppliers in the order.
    int32_t first_supp = order_lines[0].suppkey;
    bool multi_supplier = false;
    int32_t late_supp = -1;
    bool multi_late = false;
    for (const Line& l : order_lines) {
      if (l.suppkey != first_supp) multi_supplier = true;
      if (l.late) {
        if (late_supp < 0) {
          late_supp = l.suppkey;
        } else if (late_supp != l.suppkey) {
          multi_late = true;
        }
      }
    }
    if (multi_supplier && late_supp >= 0 && !multi_late &&
        supp_nation[size_t(late_supp) - 1] == kNationSaudi) {
      // Every late l1 row of this supplier qualifies.
      for (const Line& l : order_lines) {
        if (l.late) numwait[late_supp]++;
      }
    }
    order_lines.clear();
  };

  {
    TableScanOp scan(&db.lineitem, bm,
                     {"l_orderkey", "l_suppkey", "l_commitdate",
                      "l_receiptdate"},
                     mode);
    Batch b;
    while (size_t n = scan.Next(&b)) {
      const int64_t* ok = b.col(0)->data<int64_t>();
      const int32_t* sk = b.col(1)->data<int32_t>();
      const int32_t* cd = b.col(2)->data<int32_t>();
      const int32_t* rd = b.col(3)->data<int32_t>();
      for (size_t i = 0; i < n; i++) {
        if (ok[i] != cur_order) {
          flush_order();
          cur_order = ok[i];
        }
        order_lines.push_back(Line{sk[i], rd[i] > cd[i]});
      }
    }
    flush_order();
    s.decompress_seconds += scan.decompress_seconds();
  }

  // Top 100 by (numwait desc, suppkey asc).
  std::vector<uint32_t> supps;
  for (uint32_t sk = 1; sk < numwait.size(); sk++) {
    if (numwait[sk] > 0) supps.push_back(sk);
  }
  size_t topn = std::min<size_t>(100, supps.size());
  std::partial_sort(supps.begin(), supps.begin() + topn, supps.end(),
                    [&](uint32_t a, uint32_t b2) {
                      if (numwait[a] != numwait[b2]) {
                        return numwait[a] > numwait[b2];
                      }
                      return a < b2;
                    });
  for (size_t k = 0; k < topn; k++) {
    s.result_rows++;
    Mix(&s.checksum, uint64_t(supps[k]));
    Mix(&s.checksum, uint64_t(numwait[supps[k]]));
  }
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------

TpchDatabase TpchDatabase::Build(const TpchData& d, ColumnCompression mode,
                                 size_t chunk_values) {
  TpchDatabase db{Table(chunk_values), Table(chunk_values),
                  Table(chunk_values), Table(chunk_values),
                  Table(chunk_values), Table(chunk_values)};
  auto add = [](Status st) { SCC_CHECK(st.ok(), st.ToString().c_str()); };

  const auto& li = d.lineitem;
  add(db.lineitem.AddColumn<int64_t>("l_orderkey", li.orderkey, mode));
  add(db.lineitem.AddColumn<int32_t>("l_partkey", li.partkey, mode));
  add(db.lineitem.AddColumn<int32_t>("l_suppkey", li.suppkey, mode));
  add(db.lineitem.AddColumn<int8_t>("l_linenumber", li.linenumber, mode));
  add(db.lineitem.AddColumn<int8_t>("l_quantity", li.quantity, mode));
  add(db.lineitem.AddColumn<int64_t>("l_extendedprice", li.extendedprice,
                                     mode));
  add(db.lineitem.AddColumn<int8_t>("l_discount", li.discount, mode));
  add(db.lineitem.AddColumn<int8_t>("l_tax", li.tax, mode));
  add(db.lineitem.AddColumn<int8_t>("l_returnflag", li.returnflag, mode));
  add(db.lineitem.AddColumn<int8_t>("l_linestatus", li.linestatus, mode));
  add(db.lineitem.AddColumn<int32_t>("l_shipdate", li.shipdate, mode));
  add(db.lineitem.AddColumn<int32_t>("l_commitdate", li.commitdate, mode));
  add(db.lineitem.AddColumn<int32_t>("l_receiptdate", li.receiptdate, mode));
  add(db.lineitem.AddColumn<int8_t>("l_shipinstruct", li.shipinstruct, mode));
  add(db.lineitem.AddColumn<int8_t>("l_shipmode", li.shipmode, mode));
  for (int c = 0; c < 4; c++) {
    // Comment padding never compresses (paper Section 4).
    add(db.lineitem.AddColumn<int64_t>("l_comment" + std::to_string(c),
                                       li.comment[c],
                                       ColumnCompression::kNone));
  }

  const auto& od = d.orders;
  add(db.orders.AddColumn<int64_t>("o_orderkey", od.orderkey, mode));
  add(db.orders.AddColumn<int32_t>("o_custkey", od.custkey, mode));
  add(db.orders.AddColumn<int8_t>("o_orderstatus", od.orderstatus, mode));
  add(db.orders.AddColumn<int64_t>("o_totalprice", od.totalprice, mode));
  add(db.orders.AddColumn<int32_t>("o_orderdate", od.orderdate, mode));
  add(db.orders.AddColumn<int8_t>("o_orderpriority", od.orderpriority, mode));
  add(db.orders.AddColumn<int8_t>("o_shippriority", od.shippriority, mode));
  for (int c = 0; c < 6; c++) {
    add(db.orders.AddColumn<int64_t>("o_comment" + std::to_string(c),
                                     od.comment[c],
                                     ColumnCompression::kNone));
  }

  const auto& cu = d.customer;
  add(db.customer.AddColumn<int32_t>("c_custkey", cu.custkey, mode));
  add(db.customer.AddColumn<int8_t>("c_nationkey", cu.nationkey, mode));
  add(db.customer.AddColumn<int64_t>("c_acctbal", cu.acctbal, mode));
  add(db.customer.AddColumn<int8_t>("c_mktsegment", cu.mktsegment, mode));

  const auto& su = d.supplier;
  add(db.supplier.AddColumn<int32_t>("s_suppkey", su.suppkey, mode));
  add(db.supplier.AddColumn<int8_t>("s_nationkey", su.nationkey, mode));
  add(db.supplier.AddColumn<int64_t>("s_acctbal", su.acctbal, mode));

  const auto& pa = d.part;
  add(db.part.AddColumn<int32_t>("p_partkey", pa.partkey, mode));
  add(db.part.AddColumn<int64_t>("p_retailprice", pa.retailprice, mode));
  add(db.part.AddColumn<int8_t>("p_brand", pa.brand, mode));
  add(db.part.AddColumn<int8_t>("p_container", pa.container, mode));
  add(db.part.AddColumn<int8_t>("p_type", pa.typecode, mode));
  add(db.part.AddColumn<int8_t>("p_size", pa.size, mode));

  const auto& ps = d.partsupp;
  add(db.partsupp.AddColumn<int32_t>("ps_partkey", ps.partkey, mode));
  add(db.partsupp.AddColumn<int32_t>("ps_suppkey", ps.suppkey, mode));
  add(db.partsupp.AddColumn<int32_t>("ps_availqty", ps.availqty, mode));
  add(db.partsupp.AddColumn<int64_t>("ps_supplycost", ps.supplycost, mode));

  return db;
}

const std::vector<int>& TpchQuerySet() {
  static const std::vector<int> kSet = {1, 3, 4, 5, 6, 7, 11, 14, 15, 18, 21};
  return kSet;
}

std::vector<std::pair<std::string, std::string>> QueryColumns(int query) {
  using P = std::pair<std::string, std::string>;
  switch (query) {
    case 1:
      return {P{"lineitem", "l_shipdate"}, P{"lineitem", "l_returnflag"},
              P{"lineitem", "l_linestatus"}, P{"lineitem", "l_quantity"},
              P{"lineitem", "l_extendedprice"}, P{"lineitem", "l_discount"},
              P{"lineitem", "l_tax"}};
    case 3:
      return {P{"customer", "c_custkey"}, P{"customer", "c_mktsegment"},
              P{"orders", "o_orderkey"}, P{"orders", "o_custkey"},
              P{"orders", "o_orderdate"}, P{"orders", "o_shippriority"},
              P{"lineitem", "l_orderkey"}, P{"lineitem", "l_shipdate"},
              P{"lineitem", "l_extendedprice"}, P{"lineitem", "l_discount"}};
    case 4:
      return {P{"lineitem", "l_orderkey"}, P{"lineitem", "l_commitdate"},
              P{"lineitem", "l_receiptdate"}, P{"orders", "o_orderkey"},
              P{"orders", "o_orderdate"}, P{"orders", "o_orderpriority"}};
    case 5:
      return {P{"customer", "c_nationkey"}, P{"supplier", "s_nationkey"},
              P{"orders", "o_orderkey"}, P{"orders", "o_custkey"},
              P{"orders", "o_orderdate"}, P{"lineitem", "l_orderkey"},
              P{"lineitem", "l_suppkey"}, P{"lineitem", "l_extendedprice"},
              P{"lineitem", "l_discount"}};
    case 6:
      return {P{"lineitem", "l_shipdate"}, P{"lineitem", "l_discount"},
              P{"lineitem", "l_quantity"}, P{"lineitem", "l_extendedprice"}};
    case 7:
      return {P{"customer", "c_nationkey"}, P{"supplier", "s_nationkey"},
              P{"orders", "o_orderkey"}, P{"orders", "o_custkey"},
              P{"lineitem", "l_orderkey"}, P{"lineitem", "l_suppkey"},
              P{"lineitem", "l_shipdate"}, P{"lineitem", "l_extendedprice"},
              P{"lineitem", "l_discount"}};
    case 11:
      return {P{"supplier", "s_nationkey"}, P{"partsupp", "ps_partkey"},
              P{"partsupp", "ps_suppkey"}, P{"partsupp", "ps_availqty"},
              P{"partsupp", "ps_supplycost"}};
    case 14:
      return {P{"part", "p_type"}, P{"lineitem", "l_shipdate"},
              P{"lineitem", "l_partkey"}, P{"lineitem", "l_extendedprice"},
              P{"lineitem", "l_discount"}};
    case 15:
      return {P{"lineitem", "l_shipdate"}, P{"lineitem", "l_suppkey"},
              P{"lineitem", "l_extendedprice"}, P{"lineitem", "l_discount"}};
    case 18:
      return {P{"lineitem", "l_orderkey"}, P{"lineitem", "l_quantity"},
              P{"orders", "o_orderkey"}, P{"orders", "o_custkey"},
              P{"orders", "o_orderdate"}, P{"orders", "o_totalprice"}};
    case 21:
      return {P{"supplier", "s_nationkey"}, P{"orders", "o_orderkey"},
              P{"orders", "o_orderstatus"}, P{"lineitem", "l_orderkey"},
              P{"lineitem", "l_suppkey"}, P{"lineitem", "l_commitdate"},
              P{"lineitem", "l_receiptdate"}};
    default:
      return {};
  }
}

bool TpchQueryHasParallelPlan(int q) { return q == 1 || q == 6; }

QueryStats RunTpchQuery(int q, const TpchDatabase& db, BufferManager* bm,
                        TableScanOp::Mode mode, unsigned threads) {
  // The morsel scan decodes vector-at-a-time by construction, so a
  // page-wise comparison run keeps the serial plan.
  if (threads != 1 && TpchQueryHasParallelPlan(q) &&
      mode == TableScanOp::Mode::kVectorWise) {
    const char* span = q == 1 ? "tpch.q1.parallel" : "tpch.q6.parallel";
    return Measure(q, span, bm, [&] {
      Result<QueryStats> r = q == 1 ? ParallelScanPlan<Q1Agg>(db, bm, threads)
                                    : ParallelScanPlan<Q6Agg>(db, bm, threads);
      // RunTpchQuery has no error channel, so an unreadable page aborts
      // here, at the plan boundary, as it does in the serial plan's
      // TableScanOp.
      return r.MoveValueOrDie();
    });
  }
  return Measure(q, QuerySpanName(q), bm, [&]() -> QueryStats {
    switch (q) {
      case 1: return SerialScanPlan<Q1Agg>(db, bm, mode);
      case 3: return Q3(db, bm, mode);
      case 4: return Q4(db, bm, mode);
      case 5: return Q5(db, bm, mode);
      case 6: return SerialScanPlan<Q6Agg>(db, bm, mode);
      case 7: return Q7(db, bm, mode);
      case 11: return Q11(db, bm, mode);
      case 14: return Q14(db, bm, mode);
      case 15: return Q15(db, bm, mode);
      case 18: return Q18(db, bm, mode);
      case 21: return Q21(db, bm, mode);
    }
    SCC_CHECK(false, "unimplemented TPC-H query");
    return {};
  });
}

}  // namespace scc
