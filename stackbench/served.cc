// The served workloads: an in-process server::Server over QueryService on
// loopback, driven by benchmark clients (see README.md for why each
// workload exists).
//
//   point_lookup    4 closed-loop connections, 100% point reads
//   scan_aggregate  2 closed-loop connections, 50% filtered aggregates and
//                   50% limit-100 range scans
//   tiered_mixed    4 connections pipelined at depth 8, one thread each,
//                   over a DRAM tier of 25% of the compressed bytes plus an
//                   SSD tier; 80% points, 15% narrow scans, 5% aggregates
//
// The table has scc_serve's synthetic shapes: sequential `id`, zipf `code`,
// `price` with 1% outliers and increasing `ts`. Every reply is recorded and
// checked after the timed phase: `id` answers against closed forms, the
// rest against the uncompressed source vectors, generated again from the
// seed (they are not kept through the timed phase, so the process's memory
// there is the program's own).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "ladder.h"
#include "server/client.h"
#include "server/server.h"
#include "server/service.h"
#include "storage/buffer_manager.h"
#include "storage/bulk_load.h"
#include "storage/sim_disk.h"
#include "tpch/dbgen.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workloads.h"

namespace stackbench {
namespace {

using scc::BufferManager;
using scc::Rng;
using scc::StatusCode;
using scc::server::AggOp;
using scc::server::Client;
using scc::server::PipelinedClient;
using scc::server::QueryService;
using scc::server::Request;
using scc::server::RequestType;
using scc::server::Response;
using scc::server::Server;

constexpr size_t kChunk = size_t(1) << 14;  // scc_serve's default chunk
constexpr int kCols = 4;
enum Col { kId = 0, kCode = 1, kPrice = 2, kTs = 3 };
const char* const kColName[kCols] = {"id", "code", "price", "ts"};
constexpr int kCodes = 1000;
constexpr uint64_t kScanLimit = 100;
/// Hot-tier capacity: with zipf(0.9) rows it holds the hottest groups, so
/// roughly half to three quarters of point reads hit it.
constexpr size_t kHotBytes = size_t(32) << 20;
constexpr double kRowTheta = 0.9;
constexpr size_t kPredsPerClass = 32;
constexpr size_t kScanPreds = 256;
constexpr size_t kScanStrata = 8;  // scan pool slices by match count

struct Config {
  const char* name;
  unsigned connections;
  unsigned depth;  // 0: closed loop; one thread per connection either way
  int point_pct;
  int scan_pct;  // the rest are aggregates
  double dram_fraction;
  bool ssd;
  uint64_t scan_min, scan_max;  // matches per scan, log-uniform
  std::vector<double> agg_selectivity;
};

const std::vector<Config>& Configs() {
  static const std::vector<Config> configs = {
      {"point_lookup", 4, 0, 100, 0, 1.0, false, 0, 0, {}},
      {"scan_aggregate", 2, 0, 0, 50, 1.0, false, 100, 100000,
       {1e-4, 1e-2, 0.25}},
      {"tiered_mixed", 4, 8, 80, 15, 0.25, true, 100, 1000, {1e-4, 1e-2}},
  };
  return configs;
}

// --- data and predicates ---------------------------------------------------

/// The uncompressed source the table is built from; `id` is implicit.
struct Source {
  size_t rows = 0;
  std::vector<int64_t> col[kCols];
  uint64_t code_count[kCodes] = {};

  int64_t At(int c, size_t row) const {
    return c == kId ? int64_t(row) : col[c][row];
  }
};

Source Generate(size_t rows, uint64_t seed) {
  Source s;
  s.rows = rows;
  Rng rng(seed);
  scc::ZipfGenerator zipf(kCodes, 1.1, seed + 1);
  for (int c = kCode; c < kCols; c++) s.col[c].resize(rows);
  int64_t t = 1700000000;
  for (size_t i = 0; i < rows; i++) {
    const int64_t code = int64_t(zipf.Next());
    s.col[kCode][i] = code;
    s.code_count[code]++;
    int64_t price = int64_t(100 + rng.Uniform(900));
    if (rng.Bernoulli(0.01)) price = int64_t(rng.Uniform(1u << 30));
    s.col[kPrice][i] = price;
    t += int64_t(rng.Uniform(30));
    s.col[kTs][i] = t;
  }
  return s;
}

/// FNV-style digest of a value sequence (scan responses).
uint64_t HashValues(const int64_t* v, size_t n) {
  uint64_t h = 0xcbf29ce484222325ull ^ n;
  for (size_t i = 0; i < n; i++) {
    h = (h ^ uint64_t(v[i])) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  return h;
}

/// BETWEEN predicate: values of `value_col` where filter_col in [lo, hi].
struct Pred {
  int value_col = kPrice;
  int filter_col = kId;
  int64_t lo = 0;
  int64_t hi = 0;
};

/// The exact answer to one predicate.
struct Expect {
  uint64_t count = 0;
  uint64_t sum = 0;  // wrapping, like the service
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
  uint64_t hash = 0;  // first kScanLimit values
  uint32_t nvalues = 0;

  void Fold(int64_t v) {
    count++;
    sum += uint64_t(v);
    min = std::min(min, v);
    max = std::max(max, v);
  }
};

/// A predicate over rows [a, a + m) of the sorted `id` or `ts` column.
Pred RangePred(const Source& s, Rng& rng, int value_col, int filter_col,
               uint64_t m) {
  m = std::clamp<uint64_t>(m, 1, s.rows);
  const size_t a = size_t(rng.Uniform(s.rows - m + 1));
  Pred p;
  p.value_col = value_col;
  p.filter_col = filter_col;
  p.lo = s.At(filter_col, a);
  p.hi = s.At(filter_col, a + m - 1);
  return p;
}

/// A code range holding about `target` rows (never empty).
Pred CodePred(const Source& s, Rng& rng, uint64_t target) {
  target = std::max<uint64_t>(target, 1);
  for (int attempt = 0;; attempt++) {
    int lo = attempt < 256 ? int(rng.Uniform(kCodes)) : 0;
    int hi = lo;
    uint64_t n = s.code_count[lo];
    while (n < target && hi + 1 < kCodes) n += s.code_count[++hi];
    if (n == 0) continue;
    if (attempt >= 256 || (n >= target / 2 && n <= target * 2)) {
      return Pred{kPrice, kCode, lo, hi};
    }
  }
}

/// Aggregate predicates are laid out [selectivity][i][filter: ts, code,
/// id]; scan predicates in ascending order of match count.
struct Pools {
  std::vector<Pred> aggs;
  std::vector<Pred> scans;
};

Pools MakePools(const Config& cfg, const Source& s, uint64_t seed) {
  Pools pools;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  for (double sel : cfg.agg_selectivity) {
    const uint64_t m = std::max<uint64_t>(1, uint64_t(sel * double(s.rows)));
    for (size_t i = 0; i < kPredsPerClass; i++) {
      pools.aggs.push_back(RangePred(s, rng, kPrice, kTs, m));
      pools.aggs.push_back(CodePred(s, rng, m));
      pools.aggs.push_back(RangePred(s, rng, kPrice, kId, m));
    }
  }
  if (cfg.scan_max > 0) {
    const double l0 = std::log(double(cfg.scan_min));
    const double l1 = std::log(double(cfg.scan_max));
    for (size_t i = 0; i < kScanPreds; i++) {
      const double u = (double(i) + rng.NextDouble()) / double(kScanPreds);
      const uint64_t m = uint64_t(std::exp(l0 + (l1 - l0) * u));
      const int value_col = int(rng.Uniform(kCols));
      const int filter_col = rng.Uniform(2) == 0 ? kId : kTs;
      pools.scans.push_back(RangePred(s, rng, value_col, filter_col, m));
    }
  }
  return pools;
}

/// Exact answers, from the source vectors (and closed forms for `id`).
class Oracle {
 public:
  explicit Oracle(const Source& s) : s_(s) {
    // Per-code aggregates of `price` answer code-filtered aggregates.
    for (size_t r = 0; r < s.rows; r++) {
      by_code_[s.col[kCode][r]].Fold(s.col[kPrice][r]);
    }
  }

  Expect Answer(const Pred& p) const {
    Expect e;
    if (p.filter_col == kCode) {
      for (int64_t c = std::max<int64_t>(p.lo, 0);
           c <= std::min<int64_t>(p.hi, kCodes - 1); c++) {
        const Expect& b = by_code_[c];
        e.count += b.count;
        e.sum += b.sum;
        e.min = std::min(e.min, b.min);
        e.max = std::max(e.max, b.max);
      }
      return e;
    }
    size_t a = 0, b = 0;
    if (p.filter_col == kId) {
      a = size_t(std::max<int64_t>(p.lo, 0));
      b = size_t(std::min<int64_t>(p.hi + 1, int64_t(s_.rows)));
    } else {
      const std::vector<int64_t>& ts = s_.col[kTs];
      a = size_t(std::lower_bound(ts.begin(), ts.end(), p.lo) - ts.begin());
      b = size_t(std::upper_bound(ts.begin(), ts.end(), p.hi) - ts.begin());
    }
    int64_t first[kScanLimit];
    for (size_t r = a; r < b; r++) {
      const int64_t v = s_.At(p.value_col, r);
      if (e.nvalues < kScanLimit) first[e.nvalues++] = v;
      e.Fold(v);
    }
    e.hash = HashValues(first, e.nvalues);
    return e;
  }

 private:
  const Source& s_;
  Expect by_code_[kCodes];
};

/// Zipf(theta) over row ranks. Ranks map to rows one 128-value group at a
/// time through an affine permutation of groups, so hot rows share groups
/// (the hot tier caches groups) while hot groups spread over the table.
class ZipfRows {
 public:
  ZipfRows(size_t rows, double theta, uint64_t seed)
      : n_(double(rows)), rows_(rows), groups_(rows / 128), theta_(theta) {
    a_ = std::pow(n_, 1 - theta) - 1;
    Rng rng(seed);
    mul_ = (rng.Next() % groups_) | 1;
    while (std::gcd(mul_, uint64_t(groups_)) != 1) mul_ += 2;
    add_ = rng.Uniform(groups_);
  }
  uint64_t Next(Rng& rng) const {
    const double x = std::pow(a_ * rng.NextDouble() + 1, 1 / (1 - theta_));
    const uint64_t r = std::min<uint64_t>(uint64_t(x) - 1, rows_ - 1);
    const uint64_t g = r / 128;
    if (g >= groups_) return r;
    return ((g * mul_ + add_) % groups_) * 128 + r % 128;
  }

 private:
  double n_;
  uint64_t rows_;
  uint64_t groups_;
  double theta_;
  double a_ = 0;
  uint64_t mul_ = 1;
  uint64_t add_ = 0;
};

// --- the served stack --------------------------------------------------------

struct Stack {
  const Config* cfg = nullptr;
  Pools pools;
  std::unique_ptr<ZipfRows> point_rows;
  scc::Table table{kChunk};
  scc::SimDisk disk{scc::SimDisk::MidRangeRaid()};
  std::unique_ptr<BufferManager> bm;
  std::unique_ptr<QueryService> svc;
  std::unique_ptr<Server> srv;
  size_t raw_bytes = 0;
  size_t dram_bytes = 0;
  size_t ssd_bytes = 0;
  double warmup_ops_s = 0;  // sizes the timed phase's reply records

  ~Stack() {
    if (srv) srv->Stop();
  }
};

/// One request the client has sent, as needed to verify its reply.
struct Pending {
  uint8_t kind = 0;  // 0 point, 1 scan, 2 aggregate
  uint8_t col = 0;
  uint8_t op = 0;  // AggOp for aggregates
  uint32_t pred = 0;
  uint64_t row = 0;
  uint64_t sent_ns = 0;
};

const char* const kKindSpan[3] = {"client.point", "client.scan",
                                  "client.aggregate"};

/// A stratified request stream: the kinds follow the mix exactly in every
/// 100 requests, aggregates cycle through (selectivity, filter column,
/// op) and scans through slices of the pool by match count; only the
/// predicate within a stratum, the point column and the row are drawn at
/// random. Every run then carries the same share of heavy requests, which
/// would otherwise swing goodput and tail latency from run to run.
class RequestGen {
 public:
  RequestGen(const Stack& st, uint64_t seed) : st_(st), rng_(seed) {
    const Config& cfg = *st.cfg;
    const int pct[3] = {cfg.point_pct, cfg.scan_pct,
                        100 - cfg.point_pct - cfg.scan_pct};
    int count[3] = {0, 0, 0};
    for (int s = 0; s < 100; s++) {  // largest remainder first
      int best = 0;
      double best_deficit = -1e9;
      for (int k = 0; k < 3; k++) {
        const double deficit = pct[k] * (s + 1) / 100.0 - count[k];
        if (pct[k] > 0 && deficit > best_deficit) {
          best = k;
          best_deficit = deficit;
        }
      }
      kinds_[s] = uint8_t(best);
      count[best]++;
    }
    n_ = rng_.Uniform(100);
  }

  Request Next(Pending* p) {
    Request req;
    *p = Pending{};
    const uint8_t kind = kinds_[n_++ % 100];
    if (kind == 0) {
      p->kind = 0;
      p->col = uint8_t(rng_.Uniform(kCols));
      p->row = st_.point_rows->Next(rng_);
      req.type = RequestType::kPoint;
      req.column = kColName[p->col];
      req.row = p->row;
    } else if (kind == 1) {
      p->kind = 1;
      const size_t slice = st_.pools.scans.size() / kScanStrata;
      p->pred = uint32_t((scans_++ % kScanStrata) * slice + rng_.Uniform(slice));
      const Pred& pr = st_.pools.scans[p->pred];
      req.type = RequestType::kScan;
      req.column = kColName[pr.value_col];
      req.filter_column = kColName[pr.filter_col];
      req.lo = pr.lo;
      req.hi = pr.hi;
      req.limit = kScanLimit;
    } else {
      p->kind = 2;
      const uint64_t nsel = st_.cfg->agg_selectivity.size();
      const uint64_t a = aggs_++;
      const uint64_t sel = a % nsel;
      const uint64_t filter = a / nsel % 3;
      p->op = uint8_t(1 + a / (nsel * 3) % 4);  // kSum..kMax
      p->pred = uint32_t((sel * kPredsPerClass + rng_.Uniform(kPredsPerClass)) *
                             3 + filter);
      const Pred& pr = st_.pools.aggs[p->pred];
      req.type = RequestType::kAggregate;
      req.agg_op = AggOp(p->op);
      req.column = kColName[pr.value_col];
      req.filter_column = kColName[pr.filter_col];
      req.lo = pr.lo;
      req.hi = pr.hi;
    }
    return req;
  }

 private:
  const Stack& st_;
  Rng rng_;
  uint8_t kinds_[100] = {};
  uint64_t n_ = 0;
  uint64_t scans_ = 0;
  uint64_t aggs_ = 0;
};

struct PointRec {
  uint64_t row;
  int64_t value;
  uint8_t col;
};
struct QueryRec {
  uint32_t pred;
  uint8_t kind;
  uint8_t op;
  int64_t value;
  uint64_t total;
  uint64_t hash;
  uint32_t n;
};

/// One client thread's tallies; merged after the timed phase.
struct ClientStats {
  Samples lat[3];  // by kind
  Timeline timeline;  // all kinds
  uint64_t attempted = 0, ok = 0, shed = 0, deadline = 0, failed = 0;
  std::vector<PointRec> points;
  std::vector<QueryRec> queries;
  SpanLog::Buffer* spans = nullptr;

  /// Reserves room for `n` replies, so the records grow without copying
  /// while the phase is timed (pages are only touched as replies arrive).
  void Reserve(size_t n) {
    for (Samples& s : lat) s.ns.reserve(n);
    timeline.Reserve(n);
    points.reserve(n);
    queries.reserve(n);
  }

  void Account(const Pending& p, const scc::Result<Response>& r,
               uint64_t done_ns) {
    attempted++;
    if (!r.ok()) {
      failed++;
      return;
    }
    const Response& resp = r.ValueOrDie();
    if (resp.code == StatusCode::kUnavailable) {
      shed++;
      return;
    }
    if (resp.code == StatusCode::kDeadlineExceeded) {
      deadline++;
      return;
    }
    if (resp.code != StatusCode::kOk) {
      failed++;
      return;
    }
    ok++;
    const uint64_t ns = done_ns - p.sent_ns;
    lat[p.kind].Add(ns);
    timeline.Add(done_ns, ns);
    if (p.kind == 0) {
      points.push_back(PointRec{p.row, resp.value, p.col});
    } else {
      queries.push_back(QueryRec{
          p.pred, p.kind, p.op, resp.value, resp.total_matches,
          HashValues(resp.values.data(), resp.values.size()),
          uint32_t(resp.values.size())});
    }
  }
  void Merge(const ClientStats& o) {
    for (int k = 0; k < 3; k++) lat[k].Append(o.lat[k]);
    timeline.Append(o.timeline);
    attempted += o.attempted;
    ok += o.ok;
    shed += o.shed;
    deadline += o.deadline;
    failed += o.failed;
    points.insert(points.end(), o.points.begin(), o.points.end());
    queries.insert(queries.end(), o.queries.begin(), o.queries.end());
  }
};

void RecordSpan(SpanLog* log, SpanLog::Buffer* buf, const char* name,
                uint64_t req, uint64_t start, uint64_t end) {
  if (buf == nullptr) return;
  buf->spans.push_back(Span{log->NextId(), 0, req, name, start, end});
}

/// Closed loop: one request outstanding on one connection until `end_ns`
/// (or `max_requests`, for warm-up).
void ClosedClient(const Stack& st, uint64_t seed, uint64_t end_ns,
                  uint64_t max_requests, SpanLog* log, ClientStats* out) {
  scc::Result<Client> conn = Client::Connect("127.0.0.1", st.srv->port());
  if (!conn.ok()) {
    out->attempted++;
    out->failed++;
    return;
  }
  Client c = conn.MoveValueOrDie();
  RequestGen gen(st, seed);
  uint64_t id = 0;
  for (uint64_t n = 0; n < max_requests && NowNs() < end_ns; n++) {
    Pending p;
    Request req = gen.Next(&p);
    req.request_id = ++id;
    p.sent_ns = NowNs();
    scc::Result<Response> r = c.Call(req);
    const uint64_t done = NowNs();
    RecordSpan(log, out->spans, kKindSpan[p.kind], id, p.sent_ns, done);
    out->Account(p, r, done);
    if (!c.connected()) break;
  }
}

/// Pipelined: keeps `depth` requests in flight on one connection until
/// `end_ns` (or `max_requests`), then drains the replies. Each connection
/// has its own thread, so a reply is read as soon as it arrives.
void PipelinedClientLoop(const Stack& st, uint64_t seed, uint64_t end_ns,
                         uint64_t max_requests, SpanLog* log,
                         ClientStats* out) {
  scc::Result<PipelinedClient> conn =
      PipelinedClient::Connect("127.0.0.1", st.srv->port());
  if (!conn.ok()) {
    out->attempted++;
    out->failed++;
    return;
  }
  PipelinedClient c = conn.MoveValueOrDie();
  std::unordered_map<uint64_t, Pending> pend;
  RequestGen gen(st, seed);
  uint64_t sent = 0;
  for (;;) {
    while (c.connected() && pend.size() < st.cfg->depth &&
           sent < max_requests && NowNs() < end_ns) {
      Pending p;
      Request req = gen.Next(&p);
      p.sent_ns = NowNs();
      scc::Result<uint64_t> id = c.Send(std::move(req));
      if (!id.ok()) {
        out->Account(p, id.status(), NowNs());
        break;
      }
      pend.emplace(id.ValueOrDie(), p);
      sent++;
    }
    if (pend.empty()) break;
    scc::Result<Response> r = c.Next();
    const uint64_t done = NowNs();
    if (!r.ok()) {  // the connection is gone: its requests all failed
      for (const auto& [id, p] : pend) out->Account(p, r, done);
      break;
    }
    auto it = pend.find(r.ValueOrDie().request_id);
    if (it == pend.end()) {
      out->attempted++;
      out->failed++;
      continue;
    }
    const Pending p = it->second;
    pend.erase(it);
    RecordSpan(log, out->spans, kKindSpan[p.kind], r.ValueOrDie().request_id,
               p.sent_ns, done);
    out->Account(p, r, done);
  }
}

/// Runs one client thread per connection until `end_ns` (or `per_client`
/// requests each) and merges their tallies. `reserve` is the replies each
/// thread makes room for up front.
ClientStats Drive(const Stack& st, uint64_t seed, uint64_t end_ns,
                  uint64_t per_client, size_t reserve, SpanLog* log) {
  const Config& cfg = *st.cfg;
  std::vector<ClientStats> per(cfg.connections);
  for (ClientStats& s : per) {
    s.Reserve(reserve);
    s.spans = log != nullptr ? log->NewBuffer() : nullptr;
  }
  std::vector<std::thread> ts;
  for (unsigned i = 0; i < cfg.connections; i++) {
    const uint64_t s = seed * 1000003 + i;
    ts.emplace_back([&, i, s] {
      if (cfg.depth == 0) {
        ClosedClient(st, s, end_ns, per_client, log, &per[i]);
      } else {
        PipelinedClientLoop(st, s, end_ns, per_client, log, &per[i]);
      }
    });
  }
  for (std::thread& t : ts) t.join();
  ClientStats all;
  for (const ClientStats& s : per) all.Merge(s);
  return all;
}

std::unique_ptr<Stack> Setup(const Config& cfg, const Options& opt) {
  auto st = std::make_unique<Stack>();
  st->cfg = &cfg;
  const Source src = Generate(opt.rows, opt.seed);
  for (int c = 0; c < kCols; c++) {
    std::vector<int64_t> ids;
    std::span<const int64_t> values;
    if (c == kId) {
      ids.resize(opt.rows);
      std::iota(ids.begin(), ids.end(), int64_t(0));
      values = ids;
    } else {
      values = src.col[c];
    }
    scc::Status s = scc::BulkLoadColumn<int64_t>(&st->table, kColName[c], values);
    if (!s.ok()) {
      std::fprintf(stderr, "bulk load failed: %s\n", s.ToString().c_str());
      return nullptr;
    }
  }
  st->pools = MakePools(cfg, src, opt.seed);
  st->point_rows = std::make_unique<ZipfRows>(opt.rows, kRowTheta, opt.seed + 3);
  st->raw_bytes = opt.rows * kCols * sizeof(int64_t);
  const size_t stored = st->table.ByteSize();
  st->dram_bytes = cfg.dram_fraction >= 1
                       ? stored + 1
                       : size_t(double(stored) * cfg.dram_fraction);
  BufferManager::TierConfig tiers;
  tiers.hot_capacity_bytes = kHotBytes;
  st->ssd_bytes = cfg.ssd ? stored + 1 : 0;
  tiers.ssd_capacity_bytes = st->ssd_bytes;
  st->bm = std::make_unique<BufferManager>(&st->disk, st->dram_bytes,
                                           scc::Layout::kDSM, tiers);
  st->svc = std::make_unique<QueryService>(&st->table, st->bm.get());
  st->srv = std::make_unique<Server>(st->svc.get());
  if (scc::Status s = st->srv->Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return nullptr;
  }
  // Warm-up: fault every page through the tiers, fill the hot tier with
  // the point stream, then a fixed number of requests over loopback.
  for (size_t c = 0; c < st->table.column_count(); c++) {
    const scc::StoredColumn* col = st->table.column(c);
    for (size_t k = 0; k < col->chunk_count(); k++) {
      (void)st->bm->Prefetch(&st->table, col, k);
    }
  }
  if (cfg.point_pct > 0) {
    Rng rng(opt.seed + 99);
    for (size_t i = 0; i < opt.rows / 64; i++) {
      const scc::StoredColumn* col = st->table.column(size_t(rng.Uniform(kCols)));
      (void)st->bm->ReadValue<int64_t>(&st->table, col, st->point_rows->Next(rng));
    }
  }
  const uint64_t per_client = cfg.point_pct == 100 ? 2000 : 40;
  const uint64_t t0 = NowNs();
  const ClientStats warm =
      Drive(*st, opt.seed + 7, UINT64_MAX, per_client, per_client, nullptr);
  st->warmup_ops_s = double(warm.attempted) * 1e9 / double(NowNs() - t0);
  return st;
}

/// Checks every recorded reply against `src`, the table's source
/// generated again from the seed; returns the number of wrong answers.
uint64_t Verify(const Stack& st, const Source& src, const ClientStats& cs,
                bool corrupt) {
  const Oracle oracle(src);
  std::vector<Expect> aggs, scans;
  for (const Pred& p : st.pools.aggs) aggs.push_back(oracle.Answer(p));
  for (const Pred& p : st.pools.scans) scans.push_back(oracle.Answer(p));
  uint64_t wrong = 0;
  auto report = [&](const char* what, long long got, long long want) {
    if (wrong++ < 5) {
      std::fprintf(stderr, "wrong %s answer: got %lld, want %lld\n", what, got,
                   want);
    }
  };
  bool first = true;
  for (const PointRec& r : cs.points) {
    int64_t want = src.At(r.col, r.row);
    if (corrupt && first) want++;
    first = false;
    if (r.value != want) report("point", r.value, want);
  }
  for (const QueryRec& q : cs.queries) {
    if (q.kind == 1) {
      Expect e = scans[q.pred];
      if (corrupt && first) e.count++;
      first = false;
      if (q.total != e.count || q.n != e.nvalues || q.hash != e.hash) {
        report("scan", (long long)q.total, (long long)e.count);
      }
      continue;
    }
    const Expect& e = aggs[q.pred];
    int64_t want = 0;
    switch (AggOp(q.op)) {
      case AggOp::kSum: want = int64_t(e.sum); break;
      case AggOp::kCount: want = int64_t(e.count); break;
      case AggOp::kMin: want = e.min; break;
      default: want = e.max; break;
    }
    if (corrupt && first) want++;
    first = false;
    if (q.value != want) report("aggregate", q.value, want);
  }
  return wrong;
}

void PrintClasses(const char* label, ClientStats& cs, double secs) {
  std::printf("%s: %llu attempted, %llu ok, %llu shed, %llu deadline, "
              "%llu failed in %.2f s\n",
              label, (unsigned long long)cs.attempted,
              (unsigned long long)cs.ok, (unsigned long long)cs.shed,
              (unsigned long long)cs.deadline, (unsigned long long)cs.failed,
              secs);
  const char* names[3] = {"point", "scan", "aggregate"};
  for (int k = 0; k < 3; k++) {
    Samples& s = cs.lat[k];
    if (s.size() == 0) continue;
    std::printf("  %-10s n=%-8zu p50 %10.1f  p90 %10.1f  p95 %10.1f  "
                "p99 %10.1f us\n",
                names[k], s.size(), s.Quantile(0.5) / 1e3, s.Quantile(0.9) / 1e3,
                s.Quantile(0.95) / 1e3, s.Quantile(0.99) / 1e3);
  }
}

struct Phase {
  ClientStats cs;
  double seconds = 0;
  Timeline::Figures fig;
  double sim_io_seconds = 0;  // virtual device time, cold + SSD
  double device_bytes = 0;    // read from both devices + SSD writebacks
  scc::MetricsSnapshot delta;
};

double DeviceBytes(const Stack& st) {
  const scc::SimDisk* ssd = st.bm->ssd_disk();
  return double(st.disk.bytes_read() + ssd->bytes_read() + ssd->bytes_written());
}

Phase TimedPhase(Stack& st, const Options& opt, uint64_t seed, SpanLog* log) {
  Phase ph;
  scc::MetricsRegistry& reg = scc::MetricsRegistry::Instance();
  const scc::MetricsSnapshot before = reg.Snapshot();
  const double io0 = st.disk.io_seconds() + st.bm->ssd_disk()->io_seconds();
  const double bytes0 = DeviceBytes(st);
  // Room for three times the warm-up rate, so no record vector reallocates
  // inside the phase.
  const size_t reserve = size_t(3 * st.warmup_ops_s * opt.seconds /
                                st.cfg->connections) + 1024;
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + uint64_t(opt.seconds * 1e9);
  ph.cs = Drive(st, seed, end, UINT64_MAX, reserve, log);
  ph.seconds = double(NowNs() - t0) / 1e9;
  ph.fig = ph.cs.timeline.Summarize(t0, end);
  ph.sim_io_seconds =
      st.disk.io_seconds() + st.bm->ssd_disk()->io_seconds() - io0;
  ph.device_bytes = DeviceBytes(st) - bytes0;
  ph.delta = reg.Snapshot().DeltaSince(before);
  return ph;
}

}  // namespace

bool IsServedWorkload(const std::string& name) {
  for (const Config& c : Configs()) {
    if (name == c.name) return true;
  }
  return false;
}

int RunServed(const Options& opt, const HostInfo& host, RunResult* res) {
  const Config* cfg = nullptr;
  for (const Config& c : Configs()) {
    if (opt.workload == c.name) cfg = &c;
  }
  if (cfg == nullptr || opt.rows < 1024 || opt.rows % 128 != 0) {
    std::fprintf(stderr, "bad workload or --rows (a multiple of 128)\n");
    return 2;
  }

  // Set up several times; keep the last stack. setup_s is the median.
  std::vector<double> setups;
  std::unique_ptr<Stack> st;
  const int n_setups = opt.trace ? 1 : kSetups;
  for (int i = 0; i < n_setups; i++) {
    st.reset();
    const uint64_t t0 = NowNs();
    st = Setup(*cfg, opt);
    if (st == nullptr) return 1;
    setups.push_back(double(NowNs() - t0) / 1e9);
  }

  std::printf(
      "config: {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"kernel_isa\": \"%s\", \"crc32c\": \"%s\", \"rows\": %zu, "
      "\"columns\": %d, \"chunk_values\": %zu, \"raw_bytes\": %zu, "
      "\"compressed_bytes\": %zu, \"hot_bytes\": %zu, \"dram_bytes\": %zu, "
      "\"ssd_bytes\": %zu, \"connections\": %u, \"client_threads\": %u, "
      "\"depth\": %u, \"max_inflight\": %zu, \"mix_pct\": [%d, %d, %d], "
      "\"seconds\": %g, \"setups\": %d}\n",
      cfg->name, (unsigned long long)opt.seed, host.nproc, host.isa.c_str(),
      host.crc32c.c_str(), opt.rows, kCols, kChunk, st->raw_bytes,
      st->table.ByteSize(), kHotBytes, st->dram_bytes, st->ssd_bytes,
      cfg->connections, cfg->connections, cfg->depth == 0 ? 1u : cfg->depth,
      st->svc->options().max_inflight, cfg->point_pct, cfg->scan_pct, 100 - cfg->point_pct - cfg->scan_pct,
      opt.seconds, n_setups);

  if (!ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak RSS mark through "
                         "/proc/self/clear_refs\n");
    return 1;
  }
  const double rss0 = StatusMb("VmRSS");
  Phase ph = TimedPhase(*st, opt, opt.seed, nullptr);
  const double peak = StatusMb("VmHWM");
  PrintClasses("untraced", ph.cs, ph.seconds);
  std::printf("  memory: %.1f MB resident at the start, %.1f MB peak\n", rss0,
              peak);

  std::printf("  figures: medians over %zu windows\n", ph.fig.windows);
  const double goodput = ph.fig.rate;
  const double p50 = ph.fig.p50_ns / 1e3;
  res->attempted = ph.cs.attempted;
  res->failed = ph.cs.attempted - ph.cs.ok;
  res->e2e.Set("setup_s", MedianOf(setups), "s");
  res->e2e.Set("goodput_ops_s", goodput, "1/s");
  res->e2e.Set("p50_us", p50, "us");
  res->e2e.Set("p95_us", ph.fig.p95_ns / 1e3, "us");
  res->e2e.Set("compression_ratio",
               double(st->raw_bytes) / double(st->table.ByteSize()), "ratio");
  res->e2e.Set("peak_rss_mb", peak, "MB");

  if (opt.trace) {
    SpanLog log;
    Phase tr = TimedPhase(*st, opt, opt.seed + 1, &log);
    PrintClasses("traced", tr.cs, tr.seconds);
    res->attempted += tr.cs.attempted;
    res->failed += tr.cs.attempted - tr.cs.ok;
    MetricSet& m = res->layer;
    const double tp50 = tr.fig.p50_ns / 1e3;
    m.Set("trace.p50_us", tp50, "us");
    m.Set("trace.goodput_ops_s", tr.fig.rate, "1/s");
    m.Set("trace.overhead_pct", p50 > 0 ? (tp50 / p50 - 1) * 100 : 0, "%");
    m.Set("server.error_ratio",
          tr.cs.attempted == 0
              ? 0
              : double(tr.cs.attempted - tr.cs.ok) / double(tr.cs.attempted),
          "ratio");
    m.Set("rss_growth_mb", peak - rss0, "MB");
    std::printf("  devices: %.1f MB moved, %.1f ms simulated device time\n",
                tr.device_bytes / 1048576.0, tr.sim_io_seconds * 1e3);
    AddRegistryMetrics(tr.delta, double(tr.cs.ok), tr.device_bytes, &m);

    // Engine probes need a TPC-H database; served workloads use a small
    // fixed one, since their own table has no lineitem.
    scc::TpchData data = scc::GenerateTpch(0.05, opt.seed);
    const scc::TpchDatabase db =
        scc::TpchDatabase::Build(data, scc::ColumnCompression::kAuto);
    LadderInput in;
    in.table = &st->table;
    in.scan_columns = {"id", "code", "price", "ts"};
    in.point_column = "price";
    in.filter_column = "id";
    in.narrow_row = size_t(Rng(opt.seed + 5).Uniform(opt.rows - 1000));
    in.tpch = &db;
    in.seed = opt.seed;
    RunLadder(in, &log, &m);
    log.PrintSelfTimes();
    if (!opt.spans_dir.empty()) {
      const std::string path = opt.spans_dir + "/" + cfg->name + "-seed" +
                               std::to_string(opt.seed) + ".csv";
      if (log.WriteCsv(path)) std::printf("spans: %s\n", path.c_str());
    }
    ph.cs.Merge(tr.cs);  // verified with the untraced replies
  }
  const uint64_t wrong =
      Verify(*st, Generate(opt.rows, opt.seed), ph.cs, opt.corrupt_expected);
  res->correct = wrong == 0;
  if (wrong > 0) {
    std::fprintf(stderr, "verification failed: %llu wrong answers\n",
                 (unsigned long long)wrong);
  }
  return 0;
}

}  // namespace stackbench
