// Per-layer probes of the traced run. Each probe times calls into one
// module's public functions on the workload's own table and records them
// as spans: one span per call for calls of a microsecond or more, one per
// timed batch for sub-microsecond calls (a span per call would cost as
// much as the call). Probes use their own buffer managers, in a fixed
// state (whole table resident in DRAM), so a layer's cost does not depend
// on what the workload left in the caches.

#include "ladder.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <type_traits>

#include "bitpack/bitpack.h"
#include "core/segment.h"
#include "core/segment_reader.h"
#include "exec/parallel_scan.h"
#include "exec/thread_pool.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/service.h"
#include "storage/buffer_manager.h"
#include "storage/bulk_load.h"
#include "storage/scan.h"
#include "storage/sim_disk.h"
#include "util/rng.h"

namespace stackbench {

using scc::BufferManager;
using scc::Rng;
using scc::StoredColumn;
using scc::Table;

namespace {

/// Value of counter `name` in a registry delta (0 when absent).
double CounterDelta(const scc::MetricsSnapshot& delta, const char* name) {
  const scc::MetricEntry* e = delta.Find(name);
  return e == nullptr ? 0 : double(e->value);
}

}  // namespace

void AddRegistryMetrics(const scc::MetricsSnapshot& d, double ops,
                        double device_bytes, MetricSet* out) {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  const double kops = ops / 1000;
  const double hot_hits = CounterDelta(d, "storage.tier.hot.hits");
  const double hot_misses = CounterDelta(d, "storage.tier.hot.misses");
  const double dram_hits = CounterDelta(d, "storage.tier.dram.hits");
  const double dram_misses = CounterDelta(d, "storage.tier.dram.misses");
  out->Set("storage.hot_hit_ratio", ratio(hot_hits, hot_hits + hot_misses),
           "ratio");
  out->Set("storage.dram_hit_ratio",
           ratio(dram_hits, dram_hits + dram_misses), "ratio");
  out->Set("storage.evictions_per_kop",
           ratio(CounterDelta(d, "storage.tier.dram.evictions"), kops),
           "count");
  out->Set("storage.ssd_writebacks_per_kop",
           ratio(CounterDelta(d, "storage.tier.dram.writebacks"), kops),
           "count");
  out->Set("storage.coalesced_per_kop",
           ratio(CounterDelta(d, "storage.bm.coalesced_misses"), kops),
           "count");
  out->Set("storage.device_mb_per_kop", ratio(device_bytes / 1048576.0, kops),
           "MB");
  const double skipped = CounterDelta(d, "codec.pushdown.groups_skipped");
  const double groups = skipped +
                        CounterDelta(d, "codec.pushdown.groups_full") +
                        CounterDelta(d, "codec.pushdown.groups_kernel") +
                        CounterDelta(d, "codec.pushdown.groups_decoded");
  out->Set("core.groups_skipped_ratio", ratio(skipped, groups), "ratio");
  out->Set("exec.scan_morsels_per_op",
           ratio(CounterDelta(d, "exec.scan.morsels"), ops), "count");
}

namespace {

constexpr size_t kProbeHotBytes = size_t(12) << 20;
constexpr size_t kNarrowRows = 1000;

/// Calls f(T{}) for the column's integer type T (no-op for floats).
template <typename F>
void WithIntType(scc::TypeId t, F&& f) {
  scc::DispatchType(t, [&](auto tag) {
    using T = decltype(tag);
    if constexpr (std::is_integral_v<T>) f(tag);
    return 0;
  });
}

/// Keeps a probe's results observable so the timed calls are not elided.
volatile int64_t g_sink = 0;

struct Probe {
  const LadderInput& in;
  SpanLog* log;
  SpanLog::Buffer* buf;
  MetricSet* out;
  Rng rng;
  const StoredColumn* point_col = nullptr;
  const StoredColumn* filter_col = nullptr;
  int64_t narrow_lo = 0;
  int64_t narrow_hi = 0;
  // Ladder rungs in microseconds, for the gap report.
  double rtt_tableinfo = 0, rtt_point = 0, exec_point = 0, read_hot = 0,
         group_decode = 0;
  double exec_scan = 0, narrow_scan = 0, open = 0, select_chunk = 0,
         decode_chunk = 0, narrow_morsels = 0;

  Probe(const LadderInput& i, SpanLog* l, MetricSet* o)
      : in(i), log(l), buf(l->NewBuffer()), out(o), rng(i.seed + 31) {}

  /// Runs `n` calls of fn, one span per call; returns the median ns.
  template <typename F>
  double PerCall(const char* name, uint64_t parent, size_t n, F&& fn) {
    Samples s;
    for (size_t i = 0; i < n; i++) {
      const uint64_t t0 = NowNs();
      {
        ScopedSpan span(log, buf, name, parent);
        fn(i);
      }
      s.Add(NowNs() - t0);
    }
    return s.Median();
  }

  /// Runs `reps` batches of `n` calls, one span per batch; returns the
  /// median over batches of the per-call ns.
  template <typename F>
  double PerBatch(const char* name, uint64_t parent, size_t reps, size_t n,
                  F&& fn) {
    std::vector<double> per;
    for (size_t r = 0; r < reps; r++) {
      const uint64_t t0 = NowNs();
      {
        ScopedSpan span(log, buf, name, parent);
        for (size_t i = 0; i < n; i++) fn(i);
      }
      per.push_back(double(NowNs() - t0) / double(n));
    }
    return MedianOf(per);
  }
};

template <typename T>
int64_t ValueAt(const StoredColumn* col, size_t row) {
  const scc::AlignedBuffer& seg = col->chunks[row / col->chunk_values];
  auto r = scc::SegmentReader<T>::Open(seg.data(), seg.size());
  if (!r.ok()) return 0;
  return int64_t(r.ValueOrDie().Get(row % col->chunk_values));
}

// --- bitpack -----------------------------------------------------------------

void BitpackProbe(Probe& p) {
  ScopedSpan root(p.log, p.buf, "ladder.bitpack");
  // Widths weighted by the values the table's segments pack at each.
  std::map<int, double> weight;
  for (size_t c = 0; c < p.in.table->column_count(); c++) {
    for (const scc::AlignedBuffer& seg : p.in.table->column(c)->chunks) {
      scc::SegmentHeader hdr;
      if (seg.size() < sizeof(hdr)) continue;
      std::memcpy(&hdr, seg.data(), sizeof(hdr));
      if (hdr.GetScheme() == scc::Scheme::kUncompressed || hdr.bit_width == 0) {
        continue;
      }
      weight[hdr.bit_width] += hdr.count;
    }
  }
  if (weight.empty()) weight[8] = 1;
  constexpr size_t kN = size_t(1) << 15;
  std::vector<uint32_t> codes(kN), unpacked(kN + 32), sel(kN);
  double unpack = 0, select = 0, total = 0;
  for (const auto& [b, w] : weight) {
    const uint32_t mask = b >= 32 ? ~0u : (1u << b) - 1;
    for (uint32_t& c : codes) c = uint32_t(p.rng.Next()) & mask;
    std::vector<uint32_t> packed(scc::PackedByteSize(kN, b) / 4 + 1);
    scc::BitPack(codes.data(), kN, b, packed.data());
    const int width = b;
    const double u = p.PerBatch("bitpack.unpack", root.id(), 9, 1, [&](size_t) {
      scc::BitUnpack(packed.data(), kN, width, unpacked.data());
      g_sink = g_sink + unpacked[kN / 2];
    });
    const uint32_t lo = mask / 4, hi = mask - mask / 4;
    const double s = p.PerBatch("bitpack.select", root.id(), 9, 1, [&](size_t) {
      g_sink = g_sink + int64_t(scc::BitSelectBetween(packed.data(), kN, width,
                                                      lo, hi, 0, sel.data()));
    });
    unpack += w * u / double(kN);
    select += w * s / double(kN);
    total += w;
  }
  p.out->Set("bitpack.unpack_ns_per_value", unpack / total, "ns");
  p.out->Set("bitpack.select_ns_per_value", select / total, "ns");
}

// --- core --------------------------------------------------------------------

template <typename T>
void CoreProbeT(Probe& p, const StoredColumn* col) {
  using Reader = scc::SegmentReader<T>;
  ScopedSpan root(p.log, p.buf, "ladder.core");
  const size_t nchunks = col->chunk_count();
  std::vector<Reader> readers;
  for (const scc::AlignedBuffer& seg : col->chunks) {
    auto r = Reader::Open(seg.data(), seg.size());
    if (!r.ok()) return;
    readers.push_back(r.ValueOrDie());
  }
  const double open_ns = p.PerBatch("core.open", root.id(), 9, nchunks,
                                    [&](size_t k) {
    const scc::AlignedBuffer& seg = col->chunks[k];
    g_sink = g_sink + Reader::Open(seg.data(), seg.size()).ok();
  });
  std::vector<T> buf(col->chunk_values + scc::kEntryGroup);
  const double dec_ns = p.PerCall("core.decompress_chunk", root.id(), nchunks,
                                  [&](size_t k) {
    readers[k].DecompressAll(buf.data());
    g_sink = g_sink + int64_t(buf[0]);
  });
  const double group_ns = p.PerBatch("core.group_decode", root.id(), 9, 4096,
                                     [&](size_t) {
    const size_t k = size_t(p.rng.Uniform(nchunks));
    const size_t groups =
        (readers[k].count() + scc::kEntryGroup - 1) / scc::kEntryGroup;
    const size_t g = size_t(p.rng.Uniform(groups));
    const size_t len =
        std::min(scc::kEntryGroup, readers[k].count() - g * scc::kEntryGroup);
    readers[k].DecompressRange(g * scc::kEntryGroup, len, buf.data());
    g_sink = g_sink + int64_t(buf[0]);
  });
  // A BETWEEN covering about a tenth of the first chunk's values.
  readers[0].DecompressAll(buf.data());
  std::vector<T> sorted(buf.begin(), buf.begin() + readers[0].count());
  std::sort(sorted.begin(), sorted.end());
  const T lo = sorted[sorted.size() * 45 / 100];
  const T hi = sorted[sorted.size() * 55 / 100];
  std::vector<uint32_t> sel(col->chunk_values);
  const double sel_ns = p.PerCall("core.select_chunk", root.id(), nchunks,
                                  [&](size_t k) {
    g_sink = g_sink + int64_t(readers[k].SelectBetween(0, readers[k].count(),
                                                       lo, hi, sel.data()));
  });
  const double per_chunk = double(col->rows) / double(nchunks);
  p.out->Set("core.open_ns", open_ns, "ns");
  p.out->Set("core.group_decode_ns", group_ns, "ns");
  p.out->Set("core.decompress_ns_per_value", dec_ns / per_chunk, "ns");
  p.out->Set("core.select_ns_per_value", sel_ns / per_chunk, "ns");
  p.open = open_ns / 1e3;
  p.group_decode = group_ns / 1e3;
  p.decode_chunk = dec_ns / 1e3;
  p.select_chunk = sel_ns / 1e3;

  // Bulk-load throughput on the column's own values (up to 2M of them).
  const size_t load_chunks =
      std::max<size_t>(1, std::min(nchunks, (size_t(2) << 20) / col->chunk_values));
  std::vector<T> values(load_chunks * col->chunk_values + scc::kEntryGroup);
  size_t nvalues = 0;
  for (size_t k = 0; k < load_chunks; k++) {
    readers[k].DecompressAll(values.data() + nvalues);
    nvalues += readers[k].count();
  }
  values.resize(nvalues);
  std::vector<double> mbs;
  for (int rep = 0; rep < 3; rep++) {
    Table scratch(col->chunk_values);
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(p.log, p.buf, "core.bulk_load", root.id());
      (void)scc::BulkLoadColumn<T>(&scratch, "load", values);
    }
    const double secs = double(NowNs() - t0) / 1e9;
    mbs.push_back(double(values.size() * sizeof(T)) / 1048576.0 / secs);
  }
  p.out->Set("core.load_mb_s", MedianOf(mbs), "MB/s");
}

// --- storage -----------------------------------------------------------------

void Prefetch(BufferManager* bm, const Table* t) {
  for (size_t c = 0; c < t->column_count(); c++) {
    const StoredColumn* col = t->column(c);
    for (size_t k = 0; k < col->chunk_count(); k++) {
      (void)bm->Prefetch(t, col, k);
    }
  }
}

template <typename T>
void StorageProbeT(Probe& p, BufferManager* hot_bm, BufferManager* cold_bm) {
  ScopedSpan root(p.log, p.buf, "ladder.storage");
  const Table* t = p.in.table;
  const StoredColumn* col = p.point_col;
  std::vector<size_t> rows(1024);
  for (size_t& r : rows) r = size_t(p.rng.Uniform(col->rows));
  auto read = [&](BufferManager* bm, size_t row) {
    scc::Result<T> v = bm->ReadValue<T>(t, col, row);
    g_sink = g_sink + (v.ok() ? int64_t(v.ValueOrDie()) : 0);
  };
  for (size_t r : rows) read(hot_bm, r);  // admit the groups
  p.read_hot = p.PerBatch("storage.read_value_hot", root.id(), 9, rows.size(),
                          [&](size_t i) { read(hot_bm, rows[i]); }) /
               1e3;
  // Hot tier off: every read pins the page and decodes one group.
  const double miss = p.PerBatch("storage.read_value_miss", root.id(), 9, 1000,
                                 [&](size_t) {
    read(cold_bm, size_t(p.rng.Uniform(col->rows)));
  });
  const double pin_hit = p.PerBatch("storage.fetch_pinned_hit", root.id(), 9,
                                    1000, [&](size_t) {
    auto g = cold_bm->FetchPinned(t, col,
                                  size_t(p.rng.Uniform(col->chunk_count())));
    g_sink = g_sink + g.ok();
  });
  // A DRAM tier of two pages: every fetch of the next chunk misses and
  // evicts.
  size_t max_page = 0;
  for (const scc::AlignedBuffer& seg : col->chunks) {
    max_page = std::max(max_page, seg.size());
  }
  scc::SimDisk disk{scc::SimDisk::MidRangeRaid()};
  BufferManager tiny(&disk, 2 * max_page + 1, scc::Layout::kDSM);
  size_t next = 0;
  const double pin_miss = p.PerBatch("storage.fetch_pinned_miss", root.id(), 9,
                                     256, [&](size_t) {
    auto g = tiny.FetchPinned(t, col, next++ % col->chunk_count());
    g_sink = g_sink + g.ok();
  });
  p.out->Set("storage.read_value_hot_ns", p.read_hot * 1e3, "ns");
  p.out->Set("storage.read_value_miss_ns", miss, "ns");
  p.out->Set("storage.fetch_pinned_hit_ns", pin_hit, "ns");
  p.out->Set("storage.fetch_pinned_miss_ns", pin_miss, "ns");

  // TableScanOp over the scan columns: one child span per Next().
  std::vector<double> per_value;
  for (int rep = 0; rep < 3; rep++) {
    scc::TableScanOp scan(t, cold_bm, p.in.scan_columns);
    scc::Batch b;
    size_t values = 0;
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(p.log, p.buf, "storage.table_scan", root.id());
      for (;;) {
        size_t n;
        {
          ScopedSpan next_span(p.log, p.buf, "storage.table_scan.next",
                               span.id());
          n = scan.Next(&b);
        }
        if (n == 0) break;
        values += n * p.in.scan_columns.size();
      }
    }
    per_value.push_back(double(NowNs() - t0) /
                        double(std::max<size_t>(values, 1)));
  }
  p.out->Set("storage.table_scan_ns_per_value", MedianOf(per_value), "ns");
}

// --- exec --------------------------------------------------------------------

void ExecProbe(Probe& p, BufferManager* bm) {
  ScopedSpan root(p.log, p.buf, "ladder.exec");
  scc::ThreadPool& pool = scc::ThreadPool::Instance();
  const double hop = p.PerCall("exec.pool_hop", root.id(), 2000, [&](size_t) {
    scc::TaskGroup g(pool);
    g.Run([] {});
    g.Wait();
  });
  p.out->Set("exec.pool_hop_us", hop / 1e3, "us");

  // Full scan of the point column, one child span per visitor call.
  std::vector<double> ms;
  for (int rep = 0; rep < 5; rep++) {
    scc::ParallelScan scan(p.in.table, bm, {p.in.point_column});
    std::vector<SpanLog::Buffer*> slot_bufs(scan.slot_count());
    for (auto& b : slot_bufs) b = p.log->NewBuffer();
    std::vector<int64_t> rows(scan.slot_count());
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(p.log, p.buf, "exec.parallel_scan", root.id());
      const uint64_t parent = span.id();
      (void)scan.Run([&](const scc::Batch& b, size_t, size_t slot) {
        ScopedSpan v(p.log, slot_bufs[slot], "exec.parallel_scan.visitor",
                     parent);
        rows[slot] += int64_t(b.rows);
      });
    }
    ms.push_back(double(NowNs() - t0) / 1e6);
    for (int64_t r : rows) g_sink = g_sink + r;
  }
  p.out->Set("exec.parallel_scan_ms", MedianOf(ms), "ms");

  // Narrow pushdown scan: how many claimed morsels held a match.
  std::vector<double> us, seen_n, useful_n;
  std::vector<std::string> cols{p.in.point_column};
  if (p.in.filter_column != p.in.point_column) {
    cols.push_back(p.in.filter_column);
  }
  for (int rep = 0; rep < 9; rep++) {
    scc::ParallelScan scan(p.in.table, bm, cols);
    scan.SetPushdownBetween(p.in.filter_column, p.narrow_lo, p.narrow_hi);
    std::vector<std::set<size_t>> seen(scan.slot_count()),
        useful(scan.slot_count());
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(p.log, p.buf, "exec.parallel_scan_narrow", root.id());
      (void)scan.Run([&](const scc::Batch&, size_t morsel, size_t slot) {
        seen[slot].insert(morsel);
        if (scan.selection(slot).count > 0) useful[slot].insert(morsel);
      });
    }
    us.push_back(double(NowNs() - t0) / 1e3);
    std::set<size_t> s, u;
    for (size_t i = 0; i < seen.size(); i++) {
      s.insert(seen[i].begin(), seen[i].end());
      u.insert(useful[i].begin(), useful[i].end());
    }
    seen_n.push_back(double(s.size()));
    useful_n.push_back(double(u.size()));
  }
  p.narrow_scan = MedianOf(us);
  p.narrow_morsels = MedianOf(seen_n);
  p.out->Set("exec.morsels_per_query", p.narrow_morsels, "count");
  p.out->Set("exec.useful_morsel_ratio",
             p.narrow_morsels > 0 ? MedianOf(useful_n) / p.narrow_morsels : 0,
             "ratio");
}

// --- server ------------------------------------------------------------------

void ServerProbe(Probe& p, BufferManager* bm) {
  using scc::server::Request;
  using scc::server::RequestType;
  using scc::server::Response;
  ScopedSpan root(p.log, p.buf, "ladder.server");
  scc::server::QueryService svc(p.in.table, bm);
  scc::server::Server srv(&svc);
  if (!srv.Start().ok()) return;
  auto conn = scc::server::Client::Connect("127.0.0.1", srv.port());
  if (!conn.ok()) return;
  scc::server::Client& c = conn.ValueOrDie();
  std::vector<uint64_t> rows(256);
  for (uint64_t& r : rows) r = p.rng.Uniform(p.point_col->rows);
  for (uint64_t r : rows) (void)c.Point(p.in.point_column, r);  // warm
  for (int i = 0; i < 200; i++) (void)c.TableInfo();
  p.rtt_tableinfo = p.PerCall("server.rtt_tableinfo", root.id(), 2000,
                              [&](size_t) { (void)c.TableInfo(); }) /
                    1e3;
  p.rtt_point = p.PerCall("server.rtt_point", root.id(), 2000, [&](size_t i) {
    (void)c.Point(p.in.point_column, rows[i % rows.size()]);
  }) / 1e3;
  Request point;
  point.type = RequestType::kPoint;
  point.column = p.in.point_column;
  p.exec_point = p.PerCall("server.execute_point", root.id(), 2000,
                           [&](size_t i) {
    point.row = rows[i % rows.size()];
    g_sink = g_sink + svc.Execute(point).value;
  }) / 1e3;
  Request scan;
  scan.type = RequestType::kScan;
  scan.column = p.in.point_column;
  scan.filter_column = p.in.filter_column;
  scan.lo = p.narrow_lo;
  scan.hi = p.narrow_hi;
  scan.limit = 100;
  p.exec_scan = p.PerCall("server.execute_scan", root.id(), 50, [&](size_t) {
    g_sink = g_sink + int64_t(svc.Execute(scan).total_matches);
  }) / 1e3;
  Request agg = scan;
  agg.type = RequestType::kAggregate;
  agg.agg_op = scc::server::AggOp::kSum;
  const double exec_agg = p.PerCall("server.execute_agg", root.id(), 50,
                                    [&](size_t) {
    g_sink = g_sink + svc.Execute(agg).value;
  });
  // Encode and decode of a limit-100 scan response.
  Response resp;
  resp.type = RequestType::kScan;
  resp.total_matches = 100000;
  for (int i = 0; i < 100; i++) {
    resp.values.push_back(int64_t(p.rng.Next() >> 8));
  }
  const double codec = p.PerBatch("server.codec_scan", root.id(), 9, 1000,
                                  [&](size_t) {
    std::vector<uint8_t> frame = scc::server::EncodeResponseFramed(resp);
    auto back = scc::server::DecodeResponse(frame.data() + 4, frame.size() - 4);
    g_sink = g_sink + (back.ok() ? int64_t(back.ValueOrDie().values.size()) : 0);
  });
  c.Close();
  srv.Stop();
  p.out->Set("server.rtt_tableinfo_us", p.rtt_tableinfo, "us");
  p.out->Set("server.rtt_point_us", p.rtt_point, "us");
  p.out->Set("server.execute_point_us", p.exec_point, "us");
  p.out->Set("server.execute_scan_us", p.exec_scan, "us");
  p.out->Set("server.execute_agg_us", exec_agg / 1e3, "us");
  p.out->Set("server.frontend_point_us", p.rtt_point - p.exec_point, "us");
  p.out->Set("server.codec_scan_us", codec / 1e3, "us");
}

// --- engine / tpch -----------------------------------------------------------

void TpchProbe(Probe& p) {
  ScopedSpan root(p.log, p.buf, "ladder.tpch");
  const scc::TpchDatabase& db = *p.in.tpch;
  scc::SimDisk disk{scc::SimDisk::MidRangeRaid()};
  BufferManager bm(&disk, db.lineitem.ByteSize() + 1, scc::Layout::kDSM);
  std::vector<double> q1_frac, q6_frac, q1_proc;
  for (int rep = 0; rep < 4; rep++) {
    for (int q : {1, 6}) {
      scc::QueryStats s;
      {
        ScopedSpan span(p.log, p.buf, q == 1 ? "tpch.q1" : "tpch.q6",
                        root.id());
        s = scc::RunTpchQuery(q, db, &bm, scc::TableScanOp::Mode::kVectorWise);
      }
      if (rep == 0) continue;  // the first round faults the pages in
      const double frac =
          s.cpu_seconds > 0 ? s.decompress_seconds / s.cpu_seconds : 0;
      (q == 1 ? q1_frac : q6_frac).push_back(frac);
      if (q == 1) q1_proc.push_back(s.ProcessingSeconds() * 1e3);
    }
  }
  p.out->Set("tpch.q1_decompress_frac", MedianOf(q1_frac), "ratio");
  p.out->Set("tpch.q6_decompress_frac", MedianOf(q6_frac), "ratio");
  p.out->Set("engine.q1_processing_ms", MedianOf(q1_proc), "ms");
}

void PrintLadder(const Probe& p) {
  struct Rung {
    const char* name;
    double us;
  };
  auto print = [](const char* title, const std::vector<Rung>& rungs) {
    std::printf("%s\n", title);
    for (size_t i = 0; i < rungs.size(); i++) {
      std::printf("  %-42s %12.3f us", rungs[i].name, rungs[i].us);
      if (i + 1 < rungs.size()) {
        std::printf("   gap to next %12.3f us (x%.1f)",
                    rungs[i].us - rungs[i + 1].us,
                    rungs[i + 1].us > 0 ? rungs[i].us / rungs[i + 1].us : 0);
      }
      std::printf("\n");
    }
  };
  print("ladder (points):",
        {{"server.rtt_tableinfo (reactor only)", p.rtt_tableinfo},
         {"server.rtt_point (loopback)", p.rtt_point},
         {"server.execute_point (in process)", p.exec_point},
         {"storage.read_value (hot tier hit)", p.read_hot},
         {"core.group_decode (one group)", p.group_decode}});
  print("ladder (scans):",
        {{"server.execute_scan (narrow, limit 100)", p.exec_scan},
         {"exec.parallel_scan (narrow pushdown)", p.narrow_scan},
         {"per morsel: core.select (one chunk)", p.select_chunk},
         {"per morsel: core.decompress (one chunk)", p.decode_chunk},
         {"per morsel: core.open (one page)", p.open}});
  std::printf("  the narrow scan claims %.0f morsels: %.0f x select = %.1f us "
              "of work spread over the scan's slots\n",
              p.narrow_morsels, p.narrow_morsels,
              p.narrow_morsels * p.select_chunk);
}

}  // namespace

void RunLadder(const LadderInput& in, SpanLog* log, MetricSet* out) {
  Probe p(in, log, out);
  p.point_col = in.table->column(in.point_column);
  p.filter_col = in.table->column(in.filter_column);
  if (p.point_col == nullptr || p.filter_col == nullptr) return;
  const size_t last =
      std::min(in.narrow_row + kNarrowRows, p.filter_col->rows) - 1;
  WithIntType(p.filter_col->type, [&](auto tag) {
    using T = decltype(tag);
    p.narrow_lo = ValueAt<T>(p.filter_col, in.narrow_row);
    p.narrow_hi = ValueAt<T>(p.filter_col, last);
  });

  BitpackProbe(p);
  WithIntType(p.point_col->type,
              [&](auto tag) { CoreProbeT<decltype(tag)>(p, p.point_col); });

  scc::SimDisk hot_disk{scc::SimDisk::MidRangeRaid()};
  scc::SimDisk cold_disk{scc::SimDisk::MidRangeRaid()};
  BufferManager::TierConfig hot_tiers;
  hot_tiers.hot_capacity_bytes = kProbeHotBytes;
  const size_t bytes = in.table->ByteSize() + 1;
  BufferManager hot_bm(&hot_disk, bytes, scc::Layout::kDSM, hot_tiers);
  BufferManager cold_bm(&cold_disk, bytes, scc::Layout::kDSM);
  Prefetch(&hot_bm, in.table);
  Prefetch(&cold_bm, in.table);
  WithIntType(p.point_col->type, [&](auto tag) {
    StorageProbeT<decltype(tag)>(p, &hot_bm, &cold_bm);
  });
  ExecProbe(p, &cold_bm);
  ServerProbe(p, &hot_bm);
  TpchProbe(p);
  PrintLadder(p);
}

}  // namespace stackbench
