// scc_serve — the multi-tenant columnar query service (docs/SERVICE.md).
// Loads one compressed table (from a FileStore directory or a synthetic
// build), stands up the tiered BufferManager, and serves point lookups,
// BETWEEN range scans, and aggregates over TCP with admission control
// and per-query deadlines. Shut down with SIGTERM/SIGINT: the server
// drains in-flight queries, prints a summary, and exits 0.
//
//   scc_serve [--dir PATH | --rows N] [--port P] [--port-file PATH]
//             [--max-inflight N] [--tenant-quotas ID:W,ID:W,...]
//             [--deadline-us N] [--scan-threads N]
//             [--reactors N] [--write-queue-kb N] [--sndbuf-kb N]
//             [--chunk N] [--seed S] [--dram-mb N] [--hot-kb N]
//             [--ssd-mb N] [--telemetry]
//
// --tenant-quotas configures weighted admission shares (docs/SERVICE.md):
// "1:3,2:1" caps tenant 1 at 3/4 and tenant 2 at 1/4 of --max-inflight.
// --reactors sizes the epoll reactor pool (resident threads stay at this
// count no matter how many connections are open); --write-queue-kb caps
// each connection's un-flushed response bytes before a slow reader is
// disconnected.
//
// The synthetic table (--rows) is scc_load's (tools/synthetic_table.h):
// sequential `id` (closed-form verifiable — workload_driver --verify
// depends on it), zipf `code`, `price` with 1% outliers, and an
// increasing `ts`. Default capacities keep the whole table DRAM-resident
// (a serving tier, not a cold store); shrink --dram-mb to make the
// tiers earn their keep.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "server/service.h"
#include "storage/buffer_manager.h"
#include "storage/bulk_load.h"
#include "storage/file_store.h"
#include "storage/sim_disk.h"
#include "sys/telemetry.h"
#include "synthetic_table.h"

namespace scc {
namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void OnSignal(int) { g_shutdown = 1; }

int Run(int argc, char** argv) {
  const char* dir = nullptr;
  size_t rows = size_t(1) << 17;
  size_t chunk = size_t(1) << 14;
  uint64_t seed = 2026;
  uint16_t port = 0;
  const char* port_file = nullptr;
  server::ServiceOptions svc_opts;
  server::ServerOptions srv_opts;
  size_t dram_mb = 0;  // 0 = size to the table
  size_t hot_kb = 256;
  size_t ssd_mb = 0;
  bool telemetry = false;

  // "1:3,2:1" -> {tenant 1, weight 3}, {tenant 2, weight 1}.
  auto parse_quotas = [](const char* spec,
                         std::vector<server::TenantQuota>* out) {
    for (const char* p = spec; *p != '\0';) {
      char* end = nullptr;
      server::TenantQuota q;
      q.tenant_id = uint32_t(std::strtoul(p, &end, 10));
      if (end == p || *end != ':') return false;
      p = end + 1;
      q.weight = uint32_t(std::strtoul(p, &end, 10));
      if (end == p || q.weight == 0) return false;
      out->push_back(q);
      p = end;
      if (*p == ',') p++;
    }
    return !out->empty();
  };

  for (int i = 1; i < argc; i++) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--dir") == 0) {
      dir = next();
    } else if (std::strcmp(argv[i], "--rows") == 0) {
      if (const char* v = next()) rows = size_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--chunk") == 0) {
      if (const char* v = next()) chunk = size_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (const char* v = next()) seed = uint64_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (const char* v = next()) port = uint16_t(std::atoi(v));
    } else if (std::strcmp(argv[i], "--port-file") == 0) {
      port_file = next();
    } else if (std::strcmp(argv[i], "--max-inflight") == 0) {
      if (const char* v = next()) svc_opts.max_inflight = size_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--tenant-quotas") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_quotas(v, &svc_opts.tenant_quotas)) {
        std::fprintf(stderr,
                     "error: --tenant-quotas expects ID:WEIGHT[,ID:WEIGHT...]"
                     " with nonzero weights\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--reactors") == 0) {
      if (const char* v = next()) {
        srv_opts.reactor_threads = unsigned(std::atoi(v));
      }
    } else if (std::strcmp(argv[i], "--write-queue-kb") == 0) {
      if (const char* v = next()) {
        srv_opts.max_write_queue_bytes = size_t(std::atoll(v)) * 1024;
      }
    } else if (std::strcmp(argv[i], "--sndbuf-kb") == 0) {
      if (const char* v = next()) {
        srv_opts.sndbuf_bytes = size_t(std::atoll(v)) * 1024;
      }
    } else if (std::strcmp(argv[i], "--deadline-us") == 0) {
      if (const char* v = next()) {
        svc_opts.default_deadline_micros = uint64_t(std::atoll(v));
      }
    } else if (std::strcmp(argv[i], "--scan-threads") == 0) {
      if (const char* v = next()) svc_opts.scan_threads = unsigned(std::atoi(v));
    } else if (std::strcmp(argv[i], "--dram-mb") == 0) {
      if (const char* v = next()) dram_mb = size_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--hot-kb") == 0) {
      if (const char* v = next()) hot_kb = size_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--ssd-mb") == 0) {
      if (const char* v = next()) ssd_mb = size_t(std::atoll(v));
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry = true;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--dir PATH | --rows N] [--port P] [--port-file PATH]\n"
          "          [--max-inflight N] [--tenant-quotas ID:W,ID:W,...]\n"
          "          [--deadline-us N] [--scan-threads N]\n"
          "          [--reactors N] [--write-queue-kb N] [--sndbuf-kb N]\n"
          "          [--chunk N] [--seed S] [--dram-mb N] [--hot-kb N]\n"
          "          [--ssd-mb N] [--telemetry]\n",
          argv[0]);
      return 2;
    }
  }
  if (telemetry) SetTelemetryEnabled(true);

  Table table{chunk};
  if (dir != nullptr) {
    Result<Table> loaded = FileStore::Load(dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: cannot load %s: %s\n", dir,
                   loaded.status().ToString().c_str());
      return 1;
    }
    table = loaded.MoveValueOrDie();
  } else {
    for (const NamedColumn& c : SyntheticColumns(rows, seed)) {
      Status st = BulkLoadColumn<int64_t>(&table, c.name, c.values);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }

  SimDisk disk{SimDisk::MidRangeRaid()};
  BufferManager::TierConfig tiers;
  tiers.hot_capacity_bytes = hot_kb * 1024;
  tiers.ssd_capacity_bytes = ssd_mb * (size_t(1) << 20);
  const size_t dram_bytes = dram_mb != 0 ? dram_mb * (size_t(1) << 20)
                                         : table.ByteSize() + 1;
  BufferManager bm(&disk, dram_bytes, Layout::kDSM, tiers);

  server::QueryService service(&table, &bm, svc_opts);
  srv_opts.port = port;
  server::Server srv(&service, srv_opts);
  if (Status st = srv.Start(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);

  std::printf("table: %zu rows x %zu cols, %.2f MB compressed\n",
              table.rows(), table.column_count(),
              table.ByteSize() / 1048576.0);
  std::printf("tiers: hot %zu KB, dram %.2f MB, ssd %zu MB\n", hot_kb,
              dram_bytes / 1048576.0, ssd_mb);
  std::printf("admission: max_inflight %zu, default deadline %llu us\n",
              svc_opts.max_inflight,
              (unsigned long long)svc_opts.default_deadline_micros);
  for (const server::TenantQuota& q : svc_opts.tenant_quotas) {
    std::printf("  tenant %u: weight %u -> limit %zu\n", q.tenant_id,
                q.weight, service.tenant_limit(q.tenant_id));
  }
  std::printf("reactors: %u, write-queue cap %zu KB\n",
              srv_opts.reactor_threads,
              srv_opts.max_write_queue_bytes / 1024);
  std::printf("listening on 127.0.0.1:%u\n", unsigned(srv.port()));
  std::fflush(stdout);
  if (port_file != nullptr) {
    if (FILE* f = std::fopen(port_file, "w")) {
      std::fprintf(f, "%u\n", unsigned(srv.port()));
      std::fclose(f);
    }
  }

  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("shutting down: draining %zu connections\n",
              srv.connection_count());
  srv.Stop();
  std::printf("served: %llu accepted, %llu shed, %llu deadline-exceeded\n",
              (unsigned long long)service.accepted(),
              (unsigned long long)service.shed(),
              (unsigned long long)service.deadline_exceeded());
  if (telemetry) {
    std::printf("%s", MetricsRegistry::Instance().Snapshot().ToTable().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace scc

int main(int argc, char** argv) { return scc::Run(argc, argv); }
