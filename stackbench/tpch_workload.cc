// tpch_q1_q6: the paper's own experiment (Table 2), in process with no
// server. One thread alternates TPC-H Q1 and Q6 through RunTpchQuery on
// the serial, vector-wise plans over compressed DSM lineitem, with the
// DRAM tier holding lineitem. Goodput counts queries; latency is timed
// per round of one Q1 and one Q6, which has one mode where the two queries
// pooled would have two. The per-query split is printed beside it.
// Every query's checksum is checked against the same query on an
// uncompressed copy of lineitem, run before the timed phase; the copy is
// dropped before it, so the process's memory there is the program's own.

#include <memory>
#include <vector>

#include "common.h"
#include "ladder.h"
#include "storage/buffer_manager.h"
#include "storage/sim_disk.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "workloads.h"

namespace stackbench {
namespace {

using scc::BufferManager;
using scc::ColumnCompression;
using scc::QueryStats;
using scc::TableScanOp;
using scc::TpchDatabase;

struct TpchStack {
  TpchDatabase db;
  /// Uncompressed copy of the lineitem columns Q1 and Q6 read; dropped
  /// once Expect() has taken the checksums from it.
  TpchDatabase reference;
  uint64_t want_q1 = 0, want_q6 = 0;
  scc::SimDisk disk{scc::SimDisk::MidRangeRaid()};
  std::unique_ptr<BufferManager> bm;
  size_t lineitem_raw_bytes = 0;
};

std::unique_ptr<TpchStack> Setup(const Options& opt) {
  auto st = std::make_unique<TpchStack>();
  {
    scc::TpchData data = scc::GenerateTpch(opt.sf, opt.seed);
    st->db = TpchDatabase::Build(data, ColumnCompression::kAuto);
    const scc::LineitemData& li = data.lineitem;
    scc::Table& ref = st->reference.lineitem;
    const ColumnCompression none = ColumnCompression::kNone;
    scc::Status s = ref.AddColumn<int32_t>("l_shipdate", li.shipdate, none);
    if (s.ok()) s = ref.AddColumn<int8_t>("l_returnflag", li.returnflag, none);
    if (s.ok()) s = ref.AddColumn<int8_t>("l_linestatus", li.linestatus, none);
    if (s.ok()) s = ref.AddColumn<int8_t>("l_quantity", li.quantity, none);
    if (s.ok()) {
      s = ref.AddColumn<int64_t>("l_extendedprice", li.extendedprice, none);
    }
    if (s.ok()) s = ref.AddColumn<int8_t>("l_discount", li.discount, none);
    if (s.ok()) s = ref.AddColumn<int8_t>("l_tax", li.tax, none);
    if (!s.ok()) {
      std::fprintf(stderr, "reference build failed: %s\n",
                   s.ToString().c_str());
      return nullptr;
    }
  }
  const scc::Table& li = st->db.lineitem;
  for (size_t c = 0; c < li.column_count(); c++) {
    const scc::StoredColumn* col = li.column(c);
    st->lineitem_raw_bytes += col->rows * scc::TypeSize(col->type);
  }
  st->bm = std::make_unique<BufferManager>(&st->disk, li.ByteSize() + 1,
                                           scc::Layout::kDSM);
  // Warm-up: one round faults lineitem's pages into the DRAM tier.
  for (int q : {1, 6}) {
    (void)scc::RunTpchQuery(q, st->db, st->bm.get(),
                            TableScanOp::Mode::kVectorWise);
  }
  return st;
}

struct Round {
  uint64_t ns = 0;
  uint64_t q1_ns = 0, q6_ns = 0;
  uint64_t q1_sum = 0, q6_sum = 0;
};

struct Phase {
  std::vector<Round> rounds;
  Timeline timeline;
  Timeline::Figures fig;
  double seconds = 0;
  scc::MetricsSnapshot delta;
};

Phase TimedPhase(TpchStack& st, const Options& opt, SpanLog* log) {
  Phase ph;
  SpanLog::Buffer* buf = log != nullptr ? log->NewBuffer() : nullptr;
  scc::MetricsRegistry& reg = scc::MetricsRegistry::Instance();
  const scc::MetricsSnapshot before = reg.Snapshot();
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + uint64_t(opt.seconds * 1e9);
  uint64_t req = 0;
  while (NowNs() < end) {
    Round r;
    const uint64_t a = NowNs();
    {
      ScopedSpan round(log, buf, "tpch.round", 0, ++req);
      {
        ScopedSpan q(log, buf, "tpch.q1", round.id(), req);
        r.q1_sum = scc::RunTpchQuery(1, st.db, st.bm.get(),
                                     TableScanOp::Mode::kVectorWise)
                       .checksum;
      }
      const uint64_t b = NowNs();
      r.q1_ns = b - a;
      {
        ScopedSpan q(log, buf, "tpch.q6", round.id(), req);
        r.q6_sum = scc::RunTpchQuery(6, st.db, st.bm.get(),
                                     TableScanOp::Mode::kVectorWise)
                       .checksum;
      }
      r.q6_ns = NowNs() - b;
    }
    const uint64_t done = NowNs();
    r.ns = done - a;
    ph.timeline.Add(done, r.ns);
    ph.rounds.push_back(r);
  }
  ph.seconds = double(NowNs() - t0) / 1e9;
  ph.fig = ph.timeline.Summarize(t0, end);
  ph.delta = reg.Snapshot().DeltaSince(before);
  return ph;
}

/// Runs Q1 and Q6 on the uncompressed copy for the expected checksums,
/// then drops the copy.
void Expect(TpchStack& st) {
  scc::SimDisk disk{scc::SimDisk::MidRangeRaid()};
  BufferManager bm(&disk, st.reference.lineitem.ByteSize() + 1,
                   scc::Layout::kDSM);
  st.want_q1 = scc::RunTpchQuery(1, st.reference, &bm,
                                 TableScanOp::Mode::kVectorWise)
                   .checksum;
  st.want_q6 = scc::RunTpchQuery(6, st.reference, &bm,
                                 TableScanOp::Mode::kVectorWise)
                   .checksum;
  st.reference = TpchDatabase{};
}

/// Checks every round's checksums against the uncompressed run; returns
/// the number of wrong answers.
uint64_t Verify(const TpchStack& st, const Phase& ph, bool corrupt) {
  const uint64_t want1 = st.want_q1 + uint64_t(corrupt);
  const uint64_t want6 = st.want_q6;
  uint64_t wrong = 0;
  for (const Round& r : ph.rounds) {
    wrong += uint64_t(r.q1_sum != want1) + uint64_t(r.q6_sum != want6);
  }
  if (wrong > 0) {
    std::fprintf(stderr, "wrong TPC-H checksums: %llu (want q1 %llx q6 %llx)\n",
                 (unsigned long long)wrong, (unsigned long long)want1,
                 (unsigned long long)want6);
  }
  return wrong;
}

void PrintPhase(const char* label, const Phase& ph) {
  Samples q1, q6;
  for (const Round& r : ph.rounds) {
    q1.Add(r.q1_ns);
    q6.Add(r.q6_ns);
  }
  std::printf("%s: %zu rounds in %.2f s\n", label, ph.rounds.size(),
              ph.seconds);
  std::printf("  q1 p50 %8.2f ms  p95 %8.2f ms\n", q1.Quantile(0.5) / 1e6,
              q1.Quantile(0.95) / 1e6);
  std::printf("  q6 p50 %8.2f ms  p95 %8.2f ms\n", q6.Quantile(0.5) / 1e6,
              q6.Quantile(0.95) / 1e6);
}

}  // namespace

int RunTpch(const Options& opt, const HostInfo& host, RunResult* res) {
  std::vector<double> setups;
  std::unique_ptr<TpchStack> st;
  const int n_setups = opt.trace ? 1 : kSetups;
  for (int i = 0; i < n_setups; i++) {
    st.reset();
    const uint64_t t0 = NowNs();
    st = Setup(opt);
    if (st == nullptr) return 1;
    setups.push_back(double(NowNs() - t0) / 1e9);
  }
  const scc::Table& li = st->db.lineitem;
  std::printf(
      "config: {\"workload\": \"tpch_q1_q6\", \"seed\": %llu, \"nproc\": %u, "
      "\"kernel_isa\": \"%s\", \"crc32c\": \"%s\", \"scale_factor\": %g, "
      "\"lineitem_rows\": %zu, \"lineitem_raw_bytes\": %zu, "
      "\"lineitem_compressed_bytes\": %zu, \"database_compressed_bytes\": "
      "%zu, \"dram_bytes\": %zu, \"hot_bytes\": 0, \"ssd_bytes\": 0, "
      "\"client_threads\": 1, \"depth\": 1, \"seconds\": %g, \"setups\": %d}\n",
      (unsigned long long)opt.seed, host.nproc, host.isa.c_str(),
      host.crc32c.c_str(), opt.sf, li.rows(), st->lineitem_raw_bytes,
      li.ByteSize(), st->db.ByteSize(), st->bm->capacity_bytes(), opt.seconds,
      n_setups);

  Expect(*st);
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak RSS mark through "
                         "/proc/self/clear_refs\n");
    return 1;
  }
  const double rss0 = StatusMb("VmRSS");
  Phase ph = TimedPhase(*st, opt, nullptr);
  const double peak = StatusMb("VmHWM");
  PrintPhase("untraced", ph);
  std::printf("  memory: %.1f MB resident at the start, %.1f MB peak\n", rss0,
              peak);
  std::printf("  figures: medians over %zu windows\n", ph.fig.windows);
  uint64_t wrong = Verify(*st, ph, opt.corrupt_expected);

  const double p50 = ph.fig.p50_ns / 1e3;
  res->attempted = 2 * ph.rounds.size();
  res->failed = 0;
  res->e2e.Set("setup_s", MedianOf(setups), "s");
  res->e2e.Set("goodput_ops_s", 2 * ph.fig.rate, "1/s");
  res->e2e.Set("p50_us", p50, "us");
  res->e2e.Set("p95_us", ph.fig.p95_ns / 1e3, "us");
  res->e2e.Set("compression_ratio",
               double(st->lineitem_raw_bytes) / double(li.ByteSize()), "ratio");
  res->e2e.Set("peak_rss_mb", peak, "MB");

  if (opt.trace) {
    SpanLog log;
    Phase tr = TimedPhase(*st, opt, &log);
    PrintPhase("traced", tr);
    wrong += Verify(*st, tr, false);
    res->attempted += 2 * tr.rounds.size();
    MetricSet& m = res->layer;
    const double tp50 = tr.fig.p50_ns / 1e3;
    m.Set("trace.p50_us", tp50, "us");
    m.Set("trace.goodput_ops_s", 2 * tr.fig.rate, "1/s");
    m.Set("trace.overhead_pct", p50 > 0 ? (tp50 / p50 - 1) * 100 : 0, "%");
    m.Set("server.error_ratio", 0, "ratio");
    m.Set("rss_growth_mb", peak - rss0, "MB");
    AddRegistryMetrics(tr.delta, 2 * double(tr.rounds.size()), 0, &m);

    LadderInput in;
    in.table = &li;
    in.scan_columns = {"l_shipdate", "l_returnflag", "l_linestatus",
                       "l_quantity", "l_extendedprice", "l_discount", "l_tax"};
    in.point_column = "l_extendedprice";
    in.filter_column = "l_orderkey";
    in.narrow_row = li.rows() / 2;  // lineitem is clustered by l_orderkey
    in.tpch = &st->db;
    in.seed = opt.seed;
    RunLadder(in, &log, &m);
    log.PrintSelfTimes();
    if (!opt.spans_dir.empty()) {
      const std::string path = opt.spans_dir + "/tpch_q1_q6-seed" +
                               std::to_string(opt.seed) + ".csv";
      if (log.WriteCsv(path)) std::printf("spans: %s\n", path.c_str());
    }
  }
  res->correct = wrong == 0;
  return 0;
}

}  // namespace stackbench
