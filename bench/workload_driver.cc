// workload_driver — client harness for scc_serve (docs/SERVICE.md). It
// measures the *service*: each client is a real TCP connection, so the
// numbers include framing, the admission gate, pool queueing, and the
// reply path.
//
// Mixes:
//   read_only    100% point lookups
//   mixed_80_20  80% point lookups / 20% BETWEEN range scans
//
// Request streams are deterministic per (--seed, client index): the same
// invocation replays byte-identical key and predicate sequences, so a
// latency diff between two runs is the server's doing, not the driver's.
//
// --verify exploits the synthetic table's sequential `id` column
// (scc_serve --rows builds it; closed forms need no reference copy):
//   point  value(id, row)              == row
//   scan   id WHERE id BETWEEN lo..hi  -> total_matches == hi-lo+1 and
//                                         values[i] == lo+i
//   agg    SUM/COUNT/MIN/MAX over the same predicate vs closed forms
// Any failed or incorrect response makes the driver exit 1 — the CI
// service smoke leg runs both mixes with --verify and trusts that. When a
// connection dies, every request of that client not yet answered counts
// as failed.
//
// Shed (Unavailable) and DeadlineExceeded responses are the service
// working as designed under overload; they are counted and reported but
// are not failures and not latency samples.
//
// Modes (--mode) run one loop: each connection keeps a window of
// requests in flight over one PipelinedClient, and replies are matched
// to their requests by request_id, so every reply is verified against
// the exact request that earned it.
//   closed      a window of 1: one outstanding request per connection
//   pipelined   a window of --depth; responses arrive in completion
//               order. Mix names gain a ".pipelined" suffix in the report.
//   both        closed then pipelined, one report per mode
//
// --tenants N assigns client i to tenant 1 + (i % N) (protocol v2) and
// reports per-tenant ok/shed tallies — point it at a server started with
// scc_serve --tenant-quotas to watch weighted admission do its thing.
//
//   workload_driver --port P [--host H] [--clients N] [--ops N]
//                   [--mix read_only|mixed_80_20|all]
//                   [--mode closed|pipelined|both] [--depth N]
//                   [--tenants N] [--seed S]
//                   [--deadline-us N] [--verify] [--json PATH]
//
// --json writes the benches' one report format (bench/bench_util.h).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "server/client.h"
#include "sys/timer.h"
#include "util/rng.h"

namespace scc {
namespace {

using server::AggOp;
using server::Client;
using server::PipelinedClient;
using server::Request;
using server::RequestType;
using server::Response;

struct Lats {
  std::vector<uint64_t> ns;  // sorted after the run
  uint64_t Exact(double q) const {
    if (ns.empty()) return 0;
    double r = q * double(ns.size() - 1);
    return ns[size_t(r + 0.5)];
  }
};

struct MixStats {
  std::string name;
  Lats point;
  Lats scan;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t failed = 0;     // transport/protocol errors, unexpected codes
  uint64_t incorrect = 0;  // --verify mismatches
  double wall_seconds = 0;
  // Indexed by tenant id; sized tenants+1 when --tenants is set, else
  // empty (tenant counters off).
  std::vector<uint64_t> tenant_ok;
  std::vector<uint64_t> tenant_shed;

  /// Goodput: OK replies per second. Shed and deadline replies are
  /// answered too, but they are not useful work.
  double OpsPerSec() const {
    return wall_seconds > 0 ? double(ok) / wall_seconds : 0;
  }
};

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  unsigned clients = 8;
  size_t ops = 4000;  // per mix, split across clients
  uint64_t seed = 2026;
  uint64_t deadline_micros = 0;
  std::string mix = "all";
  std::string mode = "closed";
  size_t depth = 16;     // pipelined requests in flight per connection
  unsigned tenants = 0;  // 0 = everything is tenant 0
  bool verify = false;
  const char* json_path = nullptr;

  uint32_t TenantFor(unsigned client) const {
    return tenants == 0 ? 0 : 1 + client % tenants;
  }
};

/// Per-client counters, merged into MixStats once per thread at the end
/// of its run — the hot loop never touches a shared lock, so the
/// driver's own synchronization can't throttle the throughput it is
/// supposed to measure.
struct LocalStats {
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t failed = 0;
  uint64_t incorrect = 0;
  std::vector<uint64_t> tenant_ok;
  std::vector<uint64_t> tenant_shed;

  explicit LocalStats(unsigned tenants) {
    if (tenants > 0) {
      tenant_ok.assign(tenants + 1, 0);
      tenant_shed.assign(tenants + 1, 0);
    }
  }
  void MergeInto(MixStats* s, std::mutex* mu) const {
    std::lock_guard<std::mutex> lock(*mu);
    s->ok += ok;
    s->shed += shed;
    s->deadline_exceeded += deadline_exceeded;
    s->failed += failed;
    s->incorrect += incorrect;
    for (size_t t = 0; t < tenant_ok.size(); t++) {
      s->tenant_ok[t] += tenant_ok[t];
      s->tenant_shed[t] += tenant_shed[t];
    }
  }
};

/// Counts one response into the client's local counters. Returns true
/// when it is OK (so the caller can verify the payload); only OK
/// responses become latency samples.
bool Classify(const Response& resp, LocalStats* s, uint32_t tenant) {
  switch (resp.code) {
    case StatusCode::kOk:
      s->ok++;
      if (tenant < s->tenant_ok.size()) s->tenant_ok[tenant]++;
      return true;
    case StatusCode::kUnavailable:
      s->shed++;
      if (tenant < s->tenant_shed.size()) s->tenant_shed[tenant]++;
      return false;
    case StatusCode::kDeadlineExceeded:
      s->deadline_exceeded++;
      return false;
    default:
      s->failed++;
      return false;
  }
}

/// Up-front aggregate sanity pass (verify mode): SUM/COUNT/MIN/MAX over
/// id BETWEEN lo..hi against closed forms. Runs on one connection before
/// the timed mixes so aggregate correctness is checked end-to-end
/// without muddying the point/scan latency series.
bool VerifyAggregates(Client* c, uint64_t rows, uint64_t seed) {
  Rng rng(seed + 0xa66);
  for (int i = 0; i < 16; i++) {
    const uint64_t lo = rng.Uniform(rows);
    const uint64_t hi = std::min(lo + rng.Uniform(4096), rows - 1);
    const uint64_t n = hi - lo + 1;
    struct Check {
      AggOp op;
      uint64_t want;
    } checks[] = {
        {AggOp::kSum, (lo + hi) * n / 2},
        {AggOp::kCount, n},
        {AggOp::kMin, lo},
        {AggOp::kMax, hi},
    };
    for (const Check& chk : checks) {
      Result<Response> r =
          c->Aggregate(chk.op, "id", "id", int64_t(lo), int64_t(hi));
      if (!r.ok() || r.ValueOrDie().code != StatusCode::kOk ||
          uint64_t(r.ValueOrDie().value) != chk.want) {
        fprintf(stderr,
                "verify: aggregate op=%d [%llu,%llu] wrong (want %llu, "
                "got %lld, %s)\n",
                int(chk.op), (unsigned long long)lo, (unsigned long long)hi,
                (unsigned long long)chk.want,
                r.ok() ? (long long)r.ValueOrDie().value : -1,
                r.ok() ? r.ValueOrDie().error.c_str()
                       : r.status().ToString().c_str());
        return false;
      }
    }
  }
  return true;
}

/// Runs one mix. Each client keeps `depth` requests in flight on one
/// PipelinedClient; depth 1 is the closed loop. Responses complete in any
/// order, so every send is remembered by request_id and verified against
/// its own parameters when its reply surfaces. Latency is send -> reply
/// for that id; at depth > 1 it includes queueing behind the other
/// in-flight requests, which is the price pipelining pays for its
/// throughput.
MixStats RunMix(const Options& opt, const std::string& name, int scan_pct,
                uint64_t rows, size_t depth) {
  MixStats stats;
  stats.name = name;
  if (opt.tenants > 0) {
    stats.tenant_ok.assign(opt.tenants + 1, 0);
    stats.tenant_shed.assign(opt.tenants + 1, 0);
  }
  std::mutex mu;
  std::vector<std::vector<uint64_t>> point_lat(opt.clients);
  std::vector<std::vector<uint64_t>> scan_lat(opt.clients);
  const size_t per = (opt.ops + opt.clients - 1) / opt.clients;

  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(opt.clients);
  for (unsigned client = 0; client < opt.clients; client++) {
    threads.emplace_back([&, client] {
      Result<PipelinedClient> conn =
          PipelinedClient::Connect(opt.host, opt.port);
      if (!conn.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        stats.failed += per;
        return;
      }
      PipelinedClient c = conn.MoveValueOrDie();
      const uint32_t tenant = opt.TenantFor(client);
      c.set_tenant_id(tenant);
      LocalStats local(opt.tenants);
      // Deterministic per (seed, client): replays identical request
      // streams across runs. The mix name keeps the two mixes' streams
      // distinct without coupling them to run order.
      Rng rng(opt.seed + 7919 * client + (scan_pct > 0 ? 104729 : 0));
      struct Pending {
        bool scan = false;
        uint64_t row = 0;  // point: expected value
        uint64_t lo = 0;   // scan: predicate + expected match count
        uint64_t want = 0;
        Timer sent;
      };
      std::unordered_map<uint64_t, Pending> pend;
      pend.reserve(depth * 2);
      size_t sent = 0;
      size_t done = 0;
      while (done < per) {
        while (sent < per && pend.size() < depth) {
          Pending p;
          Request req;
          p.scan = int(rng.Uniform(100)) < scan_pct;
          req.deadline_micros = opt.deadline_micros;
          if (p.scan) {
            p.lo = rng.Uniform(rows);
            const uint64_t hi =
                std::min(p.lo + 1 + rng.Uniform(512), rows - 1);
            p.want = hi - p.lo + 1;
            req.type = RequestType::kScan;
            req.column = "id";
            req.filter_column = "id";
            req.lo = int64_t(p.lo);
            req.hi = int64_t(hi);
            req.limit = p.want;
          } else {
            p.row = rng.Uniform(rows);
            req.type = RequestType::kPoint;
            req.column = "id";
            req.row = p.row;
          }
          Result<uint64_t> id = c.Send(std::move(req));
          if (!id.ok()) break;
          p.sent.Reset();
          pend.emplace(id.ValueOrDie(), std::move(p));
          sent++;
        }
        Result<Response> r = c.Next();
        if (!r.ok()) {
          // The connection is gone: every request of this client not yet
          // answered, sent or not, fails.
          local.failed += per - done;
          break;
        }
        done++;
        const Response& resp = r.ValueOrDie();
        const bool ok = Classify(resp, &local, tenant);
        auto it = pend.find(resp.request_id);
        if (it == pend.end()) {
          // A response for a request we never sent (or answered twice):
          // correlation is broken, which --verify treats as incorrect.
          local.incorrect++;
          continue;
        }
        Pending p = std::move(it->second);
        const uint64_t ns = uint64_t(p.sent.ElapsedNanos());
        pend.erase(it);
        if (!ok) continue;  // shed/deadline: no sample
        if (p.scan) {
          scan_lat[client].push_back(ns);
          bool good = resp.total_matches == p.want &&
                      resp.values.size() == size_t(p.want);
          for (size_t k = 0; good && k < resp.values.size(); k++) {
            good = resp.values[k] == int64_t(p.lo + k);
          }
          if (opt.verify && !good) local.incorrect++;
        } else {
          point_lat[client].push_back(ns);
          if (opt.verify && uint64_t(resp.value) != p.row) local.incorrect++;
        }
      }
      local.MergeInto(&stats, &mu);
    });
  }
  for (std::thread& t : threads) t.join();
  stats.wall_seconds = wall.ElapsedSeconds();

  for (auto& v : point_lat) {
    stats.point.ns.insert(stats.point.ns.end(), v.begin(), v.end());
  }
  for (auto& v : scan_lat) {
    stats.scan.ns.insert(stats.scan.ns.end(), v.begin(), v.end());
  }
  std::sort(stats.point.ns.begin(), stats.point.ns.end());
  std::sort(stats.scan.ns.begin(), stats.scan.ns.end());
  return stats;
}

void PrintAndCollect(const MixStats& s, bench::JsonReport* report) {
  struct Series {
    const char* label;
    const Lats* lats;
  } series[] = {{"point", &s.point}, {"scan", &s.scan}};
  for (const Series& ser : series) {
    if (ser.lats->ns.empty()) continue;
    printf("%-12s %-6s %10.1f %10.1f %10.1f %10.1f %10zu\n", s.name.c_str(),
           ser.label, ser.lats->Exact(0.50) / 1e3, ser.lats->Exact(0.95) / 1e3,
           ser.lats->Exact(0.99) / 1e3, ser.lats->Exact(0.999) / 1e3,
           ser.lats->ns.size());
    for (const auto& [q, label] :
         {std::pair<double, const char*>{0.50, "p50_ns"},
          {0.95, "p95_ns"},
          {0.99, "p99_ns"},
          {0.999, "p999_ns"}}) {
      report->Metric(s.name + "." + ser.label + "." + label,
                     double(ser.lats->Exact(q)));
    }
  }
  printf("%-12s %-6s ok %llu shed %llu deadline %llu failed %llu "
         "incorrect %llu  %.0f ops/s\n",
         s.name.c_str(), "total", (unsigned long long)s.ok,
         (unsigned long long)s.shed, (unsigned long long)s.deadline_exceeded,
         (unsigned long long)s.failed, (unsigned long long)s.incorrect,
         s.OpsPerSec());
  report->Metric(s.name + ".ops_per_sec", s.OpsPerSec());
  report->Metric(s.name + ".shed", double(s.shed));
  report->Metric(s.name + ".deadline_exceeded", double(s.deadline_exceeded));
  for (size_t t = 1; t < s.tenant_ok.size(); t++) {
    printf("%-12s tenant %zu: ok %llu shed %llu\n", s.name.c_str(), t,
           (unsigned long long)s.tenant_ok[t],
           (unsigned long long)s.tenant_shed[t]);
    const std::string tenant = s.name + ".tenant." + std::to_string(t);
    report->Metric(tenant + ".ok", double(s.tenant_ok[t]));
    report->Metric(tenant + ".shed", double(s.tenant_shed[t]));
  }
}

int Run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      if (const char* v = next()) opt.host = v;
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (const char* v = next()) opt.port = uint16_t(std::atoi(v));
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      if (const char* v = next()) opt.clients = unsigned(std::atoi(v));
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      if (const char* v = next()) opt.ops = size_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (const char* v = next()) opt.seed = uint64_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--deadline-us") == 0) {
      if (const char* v = next()) opt.deadline_micros = uint64_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--mix") == 0) {
      if (const char* v = next()) opt.mix = v;
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      if (const char* v = next()) opt.mode = v;
    } else if (std::strcmp(argv[i], "--depth") == 0) {
      if (const char* v = next()) opt.depth = size_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--tenants") == 0) {
      if (const char* v = next()) opt.tenants = unsigned(std::atoi(v));
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      opt.verify = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json_path = next();
    } else {
      fprintf(stderr,
              "usage: %s --port P [--host H] [--clients N] [--ops N]\n"
              "          [--mix read_only|mixed_80_20|all]\n"
              "          [--mode closed|pipelined|both] [--depth N]\n"
              "          [--tenants N] [--seed S]\n"
              "          [--deadline-us N] [--verify] [--json PATH]\n",
              argv[0]);
      return 2;
    }
  }
  if (opt.port == 0) {
    fprintf(stderr, "error: --port is required\n");
    return 2;
  }
  if (opt.clients == 0) opt.clients = 1;
  if (opt.mode != "closed" && opt.mode != "pipelined" && opt.mode != "both") {
    fprintf(stderr, "error: unknown --mode %s\n", opt.mode.c_str());
    return 2;
  }
  if (opt.mix != "read_only" && opt.mix != "mixed_80_20" && opt.mix != "all") {
    fprintf(stderr, "error: unknown --mix %s\n", opt.mix.c_str());
    return 2;
  }

  // Row count comes from the server — the driver never assumes the table
  // size, only the `id` column's shape when --verify is on.
  Result<Client> probe = Client::Connect(opt.host, opt.port);
  if (!probe.ok()) {
    fprintf(stderr, "error: %s\n", probe.status().ToString().c_str());
    return 1;
  }
  Client pc = probe.MoveValueOrDie();
  Result<Response> info = pc.TableInfo();
  if (!info.ok() || info.ValueOrDie().code != StatusCode::kOk) {
    fprintf(stderr, "error: table info failed: %s\n",
            info.ok() ? info.ValueOrDie().error.c_str()
                      : info.status().ToString().c_str());
    return 1;
  }
  const uint64_t rows = info.ValueOrDie().rows;
  if (rows == 0) {
    fprintf(stderr, "error: server table is empty\n");
    return 1;
  }
  printf("server %s:%u: %llu rows, %zu columns; %u clients, %zu ops/mix\n",
         opt.host.c_str(), opt.port, (unsigned long long)rows,
         info.ValueOrDie().columns.size(), opt.clients, opt.ops);

  if (opt.verify && !VerifyAggregates(&pc, rows, opt.seed)) return 1;
  pc.Close();

  struct Mix {
    const char* name;
    int scan_pct;
  };
  const Mix mixes[] = {{"read_only", 0}, {"mixed_80_20", 20}};

  printf("%-12s %-6s %10s %10s %10s %10s %10s\n", "mix", "type", "p50(us)",
         "p95(us)", "p99(us)", "p999(us)", "samples");
  bench::JsonReport report("workload_driver");
  report.Config("clients", opt.clients);
  report.Config("ops", double(opt.ops));
  report.Config("seed", double(opt.seed));
  report.Config("deadline_us", double(opt.deadline_micros));
  report.Config("mode", opt.mode);
  report.Config("depth", double(opt.depth));
  report.Config("tenants", opt.tenants);
  uint64_t failed = 0, incorrect = 0;
  auto run = [&](const std::string& name, int scan_pct, size_t depth) {
    MixStats s = RunMix(opt, name, scan_pct, rows, depth);
    PrintAndCollect(s, &report);
    failed += s.failed;
    incorrect += s.incorrect;
  };
  for (const Mix& mix : mixes) {
    if (opt.mix != "all" && opt.mix != mix.name) continue;
    if (opt.mode != "pipelined") run(mix.name, mix.scan_pct, 1);
    if (opt.mode != "closed") {
      run(std::string(mix.name) + ".pipelined", mix.scan_pct,
          std::max<size_t>(opt.depth, 1));
    }
  }

  if (opt.json_path != nullptr && !report.Save(opt.json_path)) return 1;

  if (failed > 0 || incorrect > 0) {
    fprintf(stderr, "FAIL: %llu failed, %llu incorrect responses\n",
            (unsigned long long)failed, (unsigned long long)incorrect);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace scc

int main(int argc, char** argv) { return scc::Run(argc, argv); }
