// stack_bench — one process that sets up a seeded table, serves or queries
// it through the whole stack, verifies every answer, and prints its
// metrics. See README.md for the workloads, metrics and layer ladder.
//
//   stack_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--rows N] [--sf X] [--spans DIR]
//               [--corrupt-expected]
//
// The last stdout line is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. A wrong answer exits 1.

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

#include "bitpack/bitpack_dispatch.h"
#include "common.h"
#include "util/crc32c.h"
#include "workloads.h"

namespace stackbench {

bool ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double StatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;  // kB
    }
  }
  return -1;
}

HostInfo ReadHostInfo() {
  HostInfo h;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? unsigned(n) : std::thread::hardware_concurrency();
  h.isa = scc::KernelIsaName(scc::ActiveKernelIsa());
  h.crc32c = scc::Crc32cBackendName();
  return h;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  mkdir(path.substr(0, path.rfind('/')).c_str(), 0755);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "id,parent,req,name,start_ns,end_ns\n");
  for (const Span& s : All()) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%llu,%llu\n", (unsigned long long)s.id,
                 (unsigned long long)s.parent, (unsigned long long)s.req,
                 s.name, (unsigned long long)s.start_ns,
                 (unsigned long long)s.end_ns);
  }
  return std::fclose(f) == 0;
}

void SpanLog::PrintSelfTimes() const {
  const std::vector<Span> all = All();
  // Child time per parent: the children of one span never overlap except
  // for the parallel-scan visitor spans, whose sum can exceed the parent
  // (self time is then clamped at 0).
  std::map<uint64_t, uint64_t> child_ns;
  for (const Span& s : all) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::pair<Samples, Samples>> by_name;
  for (const Span& s : all) {
    const uint64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const uint64_t kids = it == child_ns.end() ? 0 : it->second;
    auto& [d, self] = by_name[s.name];
    d.Add(dur);
    self.Add(kids >= dur ? 0 : dur - kids);
  }
  std::printf("spans: %zu recorded\n", all.size());
  std::printf("  %-30s %10s %14s %14s\n", "span", "count", "p50 dur us",
              "p50 self us");
  for (auto& [name, v] : by_name) {
    std::printf("  %-30s %10zu %14.3f %14.3f\n", name.c_str(), v.first.size(),
                v.first.Median() / 1e3, v.second.Median() / 1e3);
  }
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: stack_bench --workload point_lookup|scan_aggregate|"
               "tiered_mixed|tpch_q1_q6 --seed N --seconds S --trace 0|1\n"
               "                   [--rows N] [--sf X] [--spans DIR] "
               "[--corrupt-expected]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--corrupt-expected") {
      opt.corrupt_expected = true;
      continue;
    }
    if (v == nullptr) return Usage();
    i++;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--rows") {
      opt.rows = size_t(std::strtoull(v, nullptr, 10));
    } else if (a == "--sf") {
      opt.sf = std::strtod(v, nullptr);
    } else if (a == "--spans") {
      opt.spans_dir = v;
    } else {
      return Usage();
    }
  }
  if (opt.seconds <= 0 || opt.sf <= 0) return Usage();

  const HostInfo host = ReadHostInfo();
  RunResult res;
  int rc;
  if (IsServedWorkload(opt.workload)) {
    rc = RunServed(opt, host, &res);
  } else if (opt.workload == "tpch_q1_q6") {
    rc = RunTpch(opt, host, &res);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;

  const MetricSet& m = opt.trace ? res.layer : res.e2e;
  m.Print(opt.trace ? "per-layer metrics:" : "end-to-end metrics:");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              res.correct ? "true" : "false",
              (unsigned long long)res.attempted,
              (unsigned long long)res.failed, m.Json().c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}

}  // namespace
}  // namespace stackbench

int main(int argc, char** argv) { return stackbench::Main(argc, argv); }
