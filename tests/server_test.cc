#include "server/service.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/bitpack_dispatch.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/buffer_manager.h"
#include "storage/fault_injector.h"
#include "storage/sim_disk.h"
#include "storage/table.h"
#include "sys/telemetry.h"
#include "util/rng.h"

// scc_serve subsystem tests (docs/SERVICE.md): wire protocol round-trips,
// service correctness differentials against library-level reference
// answers across thread counts and forced kernel ISAs, admission-control
// overload behavior, deadline/pin-leak interaction with the tiered
// buffer manager, and end-to-end TCP behavior under concurrent clients
// including malformed frames and graceful shutdown.

namespace scc {
namespace server {
namespace {

// Request builders (request_id is informational; handlers echo it back).
Request PointReq(const std::string& col, uint64_t row) {
  Request r;
  r.type = RequestType::kPoint;
  r.request_id = 1;
  r.column = col;
  r.row = row;
  return r;
}
Request ScanReq(const std::string& col, const std::string& fcol, int64_t lo,
                int64_t hi, uint64_t limit) {
  Request r;
  r.type = RequestType::kScan;
  r.request_id = 2;
  r.column = col;
  r.filter_column = fcol;
  r.lo = lo;
  r.hi = hi;
  r.limit = limit;
  return r;
}
Request AggReq(AggOp op, const std::string& col, const std::string& fcol,
               int64_t lo, int64_t hi) {
  Request r;
  r.type = RequestType::kAggregate;
  r.agg_op = op;
  r.request_id = 3;
  r.column = col;
  r.filter_column = fcol;
  r.lo = lo;
  r.hi = hi;
  return r;
}

/// Serial reference for a scan: values of `value` where fv in [lo, hi],
/// in row order, truncated to `limit`.
template <typename V, typename F>
std::pair<uint64_t, std::vector<int64_t>> RefScan(const std::vector<V>& value,
                                                  const std::vector<F>& filter,
                                                  int64_t lo, int64_t hi,
                                                  uint64_t limit) {
  uint64_t matches = 0;
  std::vector<int64_t> out;
  for (size_t i = 0; i < filter.size(); i++) {
    if (int64_t(filter[i]) >= lo && int64_t(filter[i]) <= hi) {
      matches++;
      if (out.size() < limit) out.push_back(int64_t(value[i]));
    }
  }
  return {matches, out};
}

struct Fixture {
  Table table{4096};
  SimDisk disk{SimDisk::MidRangeRaid()};
  std::unique_ptr<BufferManager> bm;
  std::vector<int64_t> id;   // sequential — closed-form reference
  std::vector<int64_t> val;  // clustered with outliers
  std::vector<int32_t> sml;  // tiny domain, 32-bit type coverage

  explicit Fixture(size_t rows = 40000, size_t dram_divisor = 1,
                   size_t hot_kb = 64, size_t ssd_kb = 0) {
    Rng rng(7);
    id.resize(rows);
    val.resize(rows);
    sml.resize(rows);
    for (size_t i = 0; i < rows; i++) {
      id[i] = int64_t(i);
      val[i] = 5000 + int64_t(rng.Uniform(1000));
      if (rng.Bernoulli(0.01)) val[i] = int64_t(rng.Uniform(1u << 24));
      sml[i] = int32_t(rng.Uniform(16));
    }
    SCC_CHECK(
        table.AddColumn<int64_t>("id", id, ColumnCompression::kAuto).ok(),
        "id");
    SCC_CHECK(
        table.AddColumn<int64_t>("val", val, ColumnCompression::kAuto).ok(),
        "val");
    SCC_CHECK(
        table.AddColumn<int32_t>("sml", sml, ColumnCompression::kAuto).ok(),
        "sml");
    BufferManager::TierConfig tiers;
    tiers.hot_capacity_bytes = hot_kb * 1024;
    tiers.ssd_capacity_bytes = ssd_kb * 1024;
    bm = std::make_unique<BufferManager>(
        &disk, table.ByteSize() / dram_divisor + 1, Layout::kDSM, tiers);
  }
};

/// Spins on `pred` until it holds or `timeout_ms` elapses. The reactor
/// tears connections down asynchronously, so tests observe lifecycle
/// transitions by polling, never by sleeping a fixed amount.
bool PollUntil(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Live OS threads in this process (entries under /proc/self/task).
size_t OsThreadCount() {
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return 0;
  size_t n = 0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] != '.') n++;
  }
  ::closedir(d);
  return n;
}

/// Blocking TCP connect for tests that drive the wire protocol by hand.
/// A nonzero `rcvbuf_bytes` shrinks SO_RCVBUF before connecting (must be
/// set pre-connect to affect the advertised window) — the slow-reader
/// tests use it to make the server's responses back up.
int RawConnect(uint16_t port, int rcvbuf_bytes = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w > 0) {
      p += w;
      n -= size_t(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool RecvExact(int fd, uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t r = ::recv(fd, p, n, 0);
    if (r > 0) {
      p += r;
      n -= size_t(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Reads one length-prefixed response frame off a raw socket.
Result<Response> RecvResponse(int fd) {
  uint8_t header[4];
  if (!RecvExact(fd, header, sizeof(header))) {
    return Status::IOError("connection lost reading frame header");
  }
  SCC_ASSIGN_OR_RETURN(const uint32_t n, ReadFrameHeader(header));
  std::vector<uint8_t> body(n);
  if (!RecvExact(fd, body.data(), n)) {
    return Status::IOError("connection lost mid-frame");
  }
  return DecodeResponse(body.data(), body.size());
}

/// Hand-encodes a protocol v1 point-lookup frame: no tenant_id field —
/// the bytes a pre-quota client put on the wire.
std::vector<uint8_t> EncodeV1PointFrame(uint64_t request_id,
                                        const std::string& column,
                                        uint64_t row) {
  std::vector<uint8_t> frame;
  AppendFrame(&frame, [&] {
    AppendU8(&frame, 1);  // version 1
    AppendU8(&frame, uint8_t(RequestType::kPoint));
    AppendU8(&frame, uint8_t(AggOp::kNone));
    AppendU8(&frame, 0);  // flags
    AppendU64(&frame, request_id);
    AppendU64(&frame, 0);  // deadline_micros
    AppendString(&frame, column);
    AppendU64(&frame, row);
  });
  return frame;
}

/// The payload of a frame whose length prefix must equal its size.
std::span<const uint8_t> PayloadOf(const std::vector<uint8_t>& frame) {
  if (frame.size() < 4) {
    ADD_FAILURE() << "frame shorter than its length prefix";
    return {};
  }
  Result<uint32_t> n = ReadFrameHeader(frame.data());
  EXPECT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(size_t(n.ok() ? n.ValueOrDie() : 0), frame.size() - 4)
      << "length prefix disagrees with the payload";
  return std::span<const uint8_t>(frame).subspan(4);
}

TEST(ProtocolTest, RequestRoundTripsEveryType) {
  for (const Request& req :
       {PointReq("id", 123), ScanReq("val", "id", -5, 999, 64),
        AggReq(AggOp::kSum, "val", "id", 0, 100)}) {
    std::vector<uint8_t> frame;
    EncodeRequestFramedInto(req, &frame);
    std::span<const uint8_t> wire = PayloadOf(frame);
    Result<Request> back = DecodeRequest(wire.data(), wire.size());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    const Request& r = back.ValueOrDie();
    EXPECT_EQ(int(r.type), int(req.type));
    EXPECT_EQ(int(r.agg_op), int(req.agg_op));
    EXPECT_EQ(r.request_id, req.request_id);
    EXPECT_EQ(r.column, req.column);
    EXPECT_EQ(r.row, req.row);
    EXPECT_EQ(r.filter_column, req.filter_column);
    EXPECT_EQ(r.lo, req.lo);
    EXPECT_EQ(r.hi, req.hi);
    EXPECT_EQ(r.limit, req.limit);
  }
}

TEST(ProtocolTest, ResponseRoundTripsPayloadAndError) {
  Response ok;
  ok.request_id = 9;
  ok.type = RequestType::kScan;
  ok.total_matches = 1000;
  ok.values = {1, -2, 3, std::numeric_limits<int64_t>::min()};
  std::vector<uint8_t> frame = EncodeResponseFramed(ok);
  std::span<const uint8_t> wire = PayloadOf(frame);
  Result<Response> back = DecodeResponse(wire.data(), wire.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.ValueOrDie().total_matches, 1000u);
  EXPECT_EQ(back.ValueOrDie().values, ok.values);

  Response err;
  err.request_id = 10;
  err.type = RequestType::kPoint;
  err.code = StatusCode::kDeadlineExceeded;
  err.error = "budget spent";
  frame = EncodeResponseFramed(err);
  wire = PayloadOf(frame);
  back = DecodeResponse(wire.data(), wire.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.ValueOrDie().code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(back.ValueOrDie().error, "budget spent");
}

TEST(ProtocolTest, DecodersRejectTruncatedAndHostileFrames) {
  Request req;
  req.type = RequestType::kScan;
  req.column = "id";
  req.filter_column = "id";
  std::vector<uint8_t> frame;
  EncodeRequestFramedInto(req, &frame);
  std::span<const uint8_t> wire = PayloadOf(frame);
  for (size_t cut = 0; cut < wire.size(); cut++) {
    Result<Request> r = DecodeRequest(wire.data(), cut);
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
  // Scan response whose count field promises more values than the frame
  // holds must fail cleanly, not over-read.
  Response resp;
  resp.type = RequestType::kScan;
  resp.values = {1, 2, 3};
  std::vector<uint8_t> w = EncodeResponseFramed(resp);
  std::span<const uint8_t> payload = PayloadOf(w);
  // count field: after the length prefix(4), then request_id(8) + code
  // + type + reserved(2) + total_matches(8) of the payload.
  w[4 + 20] = 0xff;
  Result<Response> r = DecodeResponse(payload.data(), payload.size());
  EXPECT_FALSE(r.ok());
  // Length prefixes outside (0, kMaxFrameBytes] are rejected.
  const uint8_t zero[4] = {0, 0, 0, 0};
  EXPECT_FALSE(ReadFrameHeader(zero).ok());
  std::vector<uint8_t> huge;
  AppendU32(&huge, kMaxFrameBytes + 1);
  EXPECT_FALSE(ReadFrameHeader(huge.data()).ok());
}

TEST(ServiceTest, PointMatchesSourceAcrossTypes) {
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Rng rng(99);
  for (int i = 0; i < 200; i++) {
    const uint64_t row = rng.Uniform(f.id.size());
    Response rid = svc.Execute(PointReq("id", row));
    ASSERT_EQ(rid.code, StatusCode::kOk) << rid.error;
    EXPECT_EQ(rid.value, f.id[row]);
    Response rval = svc.Execute(PointReq("val", row));
    ASSERT_EQ(rval.code, StatusCode::kOk) << rval.error;
    EXPECT_EQ(rval.value, f.val[row]);
    Response rsml = svc.Execute(PointReq("sml", row));
    ASSERT_EQ(rsml.code, StatusCode::kOk) << rsml.error;
    EXPECT_EQ(rsml.value, int64_t(f.sml[row]));
  }
}

TEST(ServiceTest, ScanMatchesReferenceAcrossThreadsAndIsas) {
  Fixture f;
  for (unsigned threads : {1u, 4u}) {
    for (KernelIsa isa : SupportedKernelIsas()) {
      ScopedKernelIsa forced(isa);
      ServiceOptions opts;
      opts.scan_threads = threads;
      QueryService svc(&f.table, f.bm.get(), opts);
      Rng rng(31 + threads);
      for (int i = 0; i < 20; i++) {
        const int64_t lo = int64_t(rng.Uniform(7000));
        const int64_t hi = lo + int64_t(rng.Uniform(600));
        const uint64_t limit = 1 + rng.Uniform(256);
        Response r = svc.Execute(ScanReq("id", "val", lo, hi, limit));
        ASSERT_EQ(r.code, StatusCode::kOk) << r.error;
        auto [want_matches, want_values] =
            RefScan(f.id, f.val, lo, hi, limit);
        EXPECT_EQ(r.total_matches, want_matches)
            << "threads=" << threads << " isa=" << int(isa);
        EXPECT_EQ(r.values, want_values);
        // Self-filter: value column == filter column.
        Response s = svc.Execute(ScanReq("val", "val", lo, hi, limit));
        ASSERT_EQ(s.code, StatusCode::kOk) << s.error;
        auto [wm2, wv2] = RefScan(f.val, f.val, lo, hi, limit);
        EXPECT_EQ(s.total_matches, wm2);
        EXPECT_EQ(s.values, wv2);
        // An int32 value column: the fold's per-batch type dispatch.
        Response n = svc.Execute(ScanReq("sml", "val", lo, hi, limit));
        ASSERT_EQ(n.code, StatusCode::kOk) << n.error;
        auto [wm3, wv3] = RefScan(f.sml, f.val, lo, hi, limit);
        EXPECT_EQ(n.total_matches, wm3);
        EXPECT_EQ(n.values, wv3);
      }
    }
  }
}

TEST(ServiceTest, AggregatesMatchSerialReference) {
  Fixture f;
  for (unsigned threads : {1u, 4u}) {
    ServiceOptions opts;
    opts.scan_threads = threads;
    QueryService svc(&f.table, f.bm.get(), opts);
    Rng rng(57);
    // The int64 `id` and the int32 `sml` value columns: the fold
    // dispatches the value type once per batch.
    const std::vector<int64_t> sml(f.sml.begin(), f.sml.end());
    const std::pair<const char*, const std::vector<int64_t>*> value_cols[] =
        {{"id", &f.id}, {"sml", &sml}};
    for (int i = 0; i < 10; i++) {
      const int64_t lo = int64_t(rng.Uniform(8000));
      const int64_t hi = lo + int64_t(rng.Uniform(2000));
      for (const auto& [name, values] : value_cols) {
        uint64_t sum = 0, count = 0;
        int64_t mn = std::numeric_limits<int64_t>::max();
        int64_t mx = std::numeric_limits<int64_t>::min();
        for (size_t k = 0; k < f.val.size(); k++) {
          if (f.val[k] >= lo && f.val[k] <= hi) {
            sum += uint64_t((*values)[k]);
            count++;
            mn = std::min(mn, (*values)[k]);
            mx = std::max(mx, (*values)[k]);
          }
        }
        Response rs = svc.Execute(AggReq(AggOp::kSum, name, "val", lo, hi));
        ASSERT_EQ(rs.code, StatusCode::kOk) << rs.error;
        EXPECT_EQ(uint64_t(rs.value), sum) << name;
        Response rc =
            svc.Execute(AggReq(AggOp::kCount, name, "val", lo, hi));
        ASSERT_EQ(rc.code, StatusCode::kOk) << rc.error;
        EXPECT_EQ(uint64_t(rc.value), count) << name;
        if (count > 0) {
          Response rmin =
              svc.Execute(AggReq(AggOp::kMin, name, "val", lo, hi));
          Response rmax =
              svc.Execute(AggReq(AggOp::kMax, name, "val", lo, hi));
          ASSERT_EQ(rmin.code, StatusCode::kOk) << rmin.error;
          ASSERT_EQ(rmax.code, StatusCode::kOk) << rmax.error;
          EXPECT_EQ(rmin.value, mn) << name;
          EXPECT_EQ(rmax.value, mx) << name;
        }
      }
    }
    // Unfiltered: COUNT is schema math, SUM walks every row.
    Response rc = svc.Execute(AggReq(AggOp::kCount, "id", "", 0, 0));
    ASSERT_EQ(rc.code, StatusCode::kOk);
    EXPECT_EQ(uint64_t(rc.value), f.id.size());
    uint64_t want_sum = 0;
    for (int64_t v : f.val) want_sum += uint64_t(v);
    Response rsum = svc.Execute(AggReq(AggOp::kSum, "val", "", 0, 0));
    ASSERT_EQ(rsum.code, StatusCode::kOk);
    EXPECT_EQ(uint64_t(rsum.value), want_sum);
    uint64_t want_sml = 0;
    for (int32_t v : f.sml) want_sml += uint64_t(int64_t(v));
    Response rsml = svc.Execute(AggReq(AggOp::kSum, "sml", "", 0, 0));
    ASSERT_EQ(rsml.code, StatusCode::kOk);
    EXPECT_EQ(uint64_t(rsml.value), want_sml);
  }
}

TEST(ServiceTest, ErrorsAreTypedAndPrecise) {
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  EXPECT_EQ(svc.Execute(PointReq("nope", 0)).code,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.Execute(PointReq("id", f.id.size())).code,
            StatusCode::kOutOfRange);
  EXPECT_EQ(svc.Execute(ScanReq("id", "", 0, 1, 10)).code,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.Execute(ScanReq("id", "val", 10, 0, 10)).code,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.Execute(AggReq(AggOp::kNone, "id", "", 0, 0)).code,
            StatusCode::kInvalidArgument);
  // MIN over an empty selection has no identity to return.
  EXPECT_EQ(svc.Execute(AggReq(AggOp::kMin, "id", "val", -10, -5)).code,
            StatusCode::kOutOfRange);
  // COUNT/SUM over the same empty selection are well-defined zeros.
  Response rc = svc.Execute(AggReq(AggOp::kCount, "id", "val", -10, -5));
  ASSERT_EQ(rc.code, StatusCode::kOk);
  EXPECT_EQ(rc.value, 0);
}

TEST(ServiceTest, ShedBeyondLimitCostsNoDecodeWork) {
  Fixture f;
  ServiceOptions opts;
  opts.max_inflight = 0;  // everything sheds
  QueryService svc(&f.table, f.bm.get(), opts);
  const size_t hits_before = f.bm->hits();
  const size_t misses_before = f.bm->misses();
  for (int i = 0; i < 64; i++) {
    Response r = svc.Execute(ScanReq("id", "val", 0, 10000, 100));
    EXPECT_EQ(r.code, StatusCode::kUnavailable);
    EXPECT_FALSE(r.error.empty());
  }
  // A shed request never reaches the buffer manager: zero decode work.
  EXPECT_EQ(f.bm->hits(), hits_before);
  EXPECT_EQ(f.bm->misses(), misses_before);
  EXPECT_EQ(svc.shed(), 64u);
  EXPECT_EQ(svc.accepted(), 0u);
  EXPECT_EQ(svc.peak_inflight(), 0u);
}

TEST(ServiceTest, InflightNeverExceedsAdmissionLimit) {
  Fixture f;
  ServiceOptions opts;
  opts.max_inflight = 4;
  QueryService svc(&f.table, f.bm.get(), opts);
  constexpr int kThreads = 16;
  constexpr int kPerThread = 24;
  std::atomic<uint64_t> ok{0}, shed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      (void)t;
      for (int i = 0; i < kPerThread; i++) {
        Response r = svc.Execute(ScanReq("id", "val", 0, 9000, 10));
        if (r.code == StatusCode::kOk) {
          ok.fetch_add(1);
        } else {
          ASSERT_EQ(r.code, StatusCode::kUnavailable) << r.error;
          shed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load() + shed.load(), uint64_t(kThreads) * kPerThread);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_LE(svc.peak_inflight(), 4u);
  EXPECT_EQ(svc.inflight(), 0u);
  EXPECT_EQ(svc.accepted(), ok.load());
  EXPECT_EQ(svc.shed(), shed.load());
}

TEST(ServiceTest, ExpiredInQueueAnswersWithoutTouchingTable) {
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Request req = ScanReq("id", "val", 0, 10000, 100);
  req.deadline_micros = 1;
  const size_t hits_before = f.bm->hits();
  const size_t misses_before = f.bm->misses();
  ASSERT_TRUE(svc.TryAdmit());
  // Let the 1 µs budget expire between admission and execution — the
  // shape of a query that sat in the pool queue past its deadline.
  const double admit_us = TraceNowMicros();
  while (TraceNowMicros() <= admit_us + 2.0) {
  }
  Response r = svc.ExecuteAdmitted(req, admit_us);
  EXPECT_EQ(r.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(f.bm->hits(), hits_before);
  EXPECT_EQ(f.bm->misses(), misses_before);
  EXPECT_EQ(svc.deadline_exceeded(), 1u);
}

TEST(ServiceTest, DeadlineStormLeaksNoPinsAndNeverPoisonsTiers) {
  // Satellite 3: a storm of queries whose deadlines expire before or
  // mid-scan must release every page pin and keep the tier accounting
  // balanced; afterwards the service still answers correctly.
  Fixture f(40000, /*dram_divisor=*/4, /*hot_kb=*/64, /*ssd_kb=*/128);
  ServiceOptions opts;
  opts.max_inflight = 8;
  QueryService svc(&f.table, f.bm.get(), opts);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::atomic<uint64_t> expired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Rng rng(uint64_t(100 + t));
      for (int i = 0; i < kPerThread; i++) {
        Request req = ScanReq("id", "val", 0, 10000, 100);
        // Budgets straddle the scan's runtime: some expire in the
        // pre-execution gate, some at a morsel boundary, some finish.
        const uint64_t budgets[] = {1, 20, 100, 1000, 50000};
        req.deadline_micros = budgets[rng.Uniform(5)];
        Response r = svc.Execute(req);
        if (r.code == StatusCode::kDeadlineExceeded) expired.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(expired.load(), 0u);  // the 1 µs budget cannot survive
  EXPECT_EQ(f.bm->pinned_pages(), 0u);
  for (BufferManager::CacheTier tier :
       {BufferManager::CacheTier::kHot, BufferManager::CacheTier::kDram,
        BufferManager::CacheTier::kSsd}) {
    BufferManager::TierStats ts = f.bm->tier_stats(tier);
    EXPECT_EQ(ts.promotions - ts.evictions, ts.resident_entries)
        << "tier " << int(tier) << " accounting unbalanced after storm";
  }
  // Not poisoned: a fresh undeadlined query still answers exactly.
  Response clean = svc.Execute(ScanReq("id", "val", 5000, 5400, 50));
  ASSERT_EQ(clean.code, StatusCode::kOk) << clean.error;
  auto [want_matches, want_values] =
      RefScan(f.id, f.val, 5000, 5400, 50);
  EXPECT_EQ(clean.total_matches, want_matches);
  EXPECT_EQ(clean.values, want_values);
}

TEST(ServiceTest, CorruptSegmentHeaderAnswersCorruption) {
  // One chunk of column "bad" carries a segment header that fails Open.
  // Checksum verification stays off (scc_serve's default), so the page
  // reaches the scan's decode step unverified. Every scan and aggregate
  // touching it replies kCorruption, no pin leaks, and the service keeps
  // answering requests over the clean column.
  constexpr size_t kChunk = 4096;
  constexpr size_t kRows = 40000;
  Table table(kChunk);
  std::vector<int64_t> id(kRows);
  for (size_t i = 0; i < kRows; i++) id[i] = int64_t(i);
  ASSERT_TRUE(
      table.AddColumn<int64_t>("id", id, ColumnCompression::kAuto).ok());
  auto bad = std::make_unique<StoredColumn>();
  bad->name = "bad";
  bad->rows = kRows;
  bad->chunk_values = kChunk;
  bad->compressed = true;
  for (size_t lo = 0; lo < kRows; lo += kChunk) {
    const size_t n = std::min(kChunk, kRows - lo);
    Result<AlignedBuffer> seg = BuildColumnChunk<int64_t>(
        std::span<const int64_t>(id).subspan(lo, n), ColumnCompression::kAuto);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    bad->chunks.push_back(seg.MoveValueOrDie());
  }
  bad->chunks[5].data()[0] ^= 0xFF;  // segment magic
  ASSERT_TRUE(table.AdoptColumn(std::move(bad)).ok());
  SimDisk disk(SimDisk::MidRangeRaid());
  BufferManager bm(&disk, table.ByteSize() + 1, Layout::kDSM);
  ASSERT_FALSE(bm.verify_checksums());

  for (unsigned threads : {1u, 4u}) {
    ServiceOptions opts;
    opts.scan_threads = threads;
    QueryService svc(&table, &bm, opts);
    for (const Request& req :
         {ScanReq("id", "bad", 0, int64_t(kRows), 10),
          ScanReq("bad", "id", 0, int64_t(kRows), 10),
          AggReq(AggOp::kSum, "bad", "", 0, 0),
          AggReq(AggOp::kCount, "id", "bad", 100, 30000)}) {
      Response r = svc.Execute(req);
      EXPECT_EQ(r.code, StatusCode::kCorruption)
          << "threads=" << threads << " " << r.error;
      EXPECT_NE(r.error.find("column 'bad' chunk 5"), std::string::npos)
          << r.error;
      EXPECT_EQ(bm.pinned_pages(), 0u) << "threads=" << threads;
    }
    Response scan = svc.Execute(ScanReq("id", "id", 100, 199, 1000));
    ASSERT_EQ(scan.code, StatusCode::kOk) << scan.error;
    EXPECT_EQ(scan.total_matches, 100u);
    ASSERT_EQ(scan.values.size(), 100u);
    EXPECT_EQ(scan.values.front(), 100);
    EXPECT_EQ(scan.values.back(), 199);
    Response sum = svc.Execute(AggReq(AggOp::kSum, "id", "", 0, 0));
    ASSERT_EQ(sum.code, StatusCode::kOk) << sum.error;
    EXPECT_EQ(uint64_t(sum.value), uint64_t(kRows) * (kRows - 1) / 2);
  }
}

TEST(ServiceTest, ColdDeviceIOErrorAnswersIOError) {
  // Every read of the cold device fails. Scans and aggregates over cold
  // pages reply kIOError once the buffer manager's retries are spent,
  // and the same requests succeed once the device reads again.
  Fixture f;
  FaultInjector::Config cfg;
  cfg.io_error_prob = 1.0;
  FaultInjector faults(cfg);
  const Request scan_req = ScanReq("id", "val", 5000, 5400, 50);
  const Request agg_req = AggReq(AggOp::kSum, "id", "val", 5000, 5400);
  auto [want_matches, want_values] = RefScan(f.id, f.val, 5000, 5400, 50);
  uint64_t want_sum = 0;
  for (size_t i = 0; i < f.val.size(); i++) {
    if (f.val[i] >= 5000 && f.val[i] <= 5400) want_sum += uint64_t(f.id[i]);
  }
  for (unsigned threads : {1u, 4u}) {
    ServiceOptions opts;
    opts.scan_threads = threads;
    QueryService svc(&f.table, f.bm.get(), opts);
    f.bm->Clear();  // every page cold
    f.disk.AttachFaults(&faults);
    for (const Request& req : {scan_req, agg_req}) {
      Response r = svc.Execute(req);
      EXPECT_EQ(r.code, StatusCode::kIOError)
          << "threads=" << threads << " " << r.error;
      EXPECT_EQ(f.bm->pinned_pages(), 0u) << "threads=" << threads;
    }
    f.disk.AttachFaults(nullptr);
    Response scan = svc.Execute(scan_req);
    ASSERT_EQ(scan.code, StatusCode::kOk) << scan.error;
    EXPECT_EQ(scan.total_matches, want_matches);
    EXPECT_EQ(scan.values, want_values);
    Response agg = svc.Execute(agg_req);
    ASSERT_EQ(agg.code, StatusCode::kOk) << agg.error;
    EXPECT_EQ(uint64_t(agg.value), want_sum);
  }
}

TEST(ServerTest, ConcurrentClientsGetExactAnswers) {
  Fixture f;
  for (unsigned threads : {1u, 4u}) {
    ServiceOptions opts;
    opts.scan_threads = threads;
    QueryService svc(&f.table, f.bm.get(), opts);
    Server srv(&svc, ServerOptions{});
    ASSERT_TRUE(srv.Start().ok());
    constexpr int kClients = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; c++) {
      clients.emplace_back([&, c] {
        Result<Client> conn = Client::Connect("127.0.0.1", srv.port());
        if (!conn.ok()) {
          failures.fetch_add(1);
          return;
        }
        Client cl = conn.MoveValueOrDie();
        Rng rng(uint64_t(500 + c));
        for (int i = 0; i < 30; i++) {
          const uint64_t row = rng.Uniform(f.id.size());
          Result<Response> p = cl.Point("id", row);
          if (!p.ok() || p.ValueOrDie().code != StatusCode::kOk ||
              p.ValueOrDie().value != f.id[row]) {
            failures.fetch_add(1);
            return;
          }
          const int64_t lo = int64_t(rng.Uniform(7000));
          const int64_t hi = lo + int64_t(rng.Uniform(300));
          Result<Response> s = cl.Scan("id", "val", lo, hi, 64);
          auto [wm, wv] = RefScan(f.id, f.val, lo, hi, 64);
          if (!s.ok() || s.ValueOrDie().code != StatusCode::kOk ||
              s.ValueOrDie().total_matches != wm ||
              s.ValueOrDie().values != wv) {
            failures.fetch_add(1);
            return;
          }
          Result<Response> a = cl.Aggregate(AggOp::kCount, "id", "val", lo, hi);
          if (!a.ok() || a.ValueOrDie().code != StatusCode::kOk ||
              uint64_t(a.ValueOrDie().value) != wm) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0) << "scan_threads=" << threads;
    srv.Stop();
    EXPECT_EQ(svc.inflight(), 0u);
  }
}

TEST(ServerTest, TableInfoBypassesAdmission) {
  Fixture f;
  ServiceOptions opts;
  opts.max_inflight = 0;  // every data query sheds
  QueryService svc(&f.table, f.bm.get(), opts);
  Server srv(&svc, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  Result<Client> conn = Client::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(conn.ok());
  Client cl = conn.MoveValueOrDie();
  Result<Response> p = cl.Point("id", 0);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.ValueOrDie().code, StatusCode::kUnavailable);
  // Schema introspection still answers — shedding it would blind clients
  // exactly when the server is busiest.
  Result<Response> info = cl.TableInfo();
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info.ValueOrDie().code, StatusCode::kOk);
  EXPECT_EQ(info.ValueOrDie().rows, f.id.size());
  ASSERT_EQ(info.ValueOrDie().columns.size(), 3u);
  EXPECT_EQ(info.ValueOrDie().columns[0].name, "id");
  srv.Stop();
}

TEST(ServerTest, MalformedPayloadAnswersErrorAndKeepsFraming) {
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Server srv(&svc, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  int fd = RawConnect(srv.port());
  ASSERT_GE(fd, 0);

  // Well-framed payloads that do not decode: a protocol v1 frame and a
  // frame with version 0x7f. Each is answered InvalidArgument with
  // request_id 0 (it never decoded), and the stream stays in sync.
  std::vector<uint8_t> v7f;
  EncodeRequestFramedInto(PointReq("id", 5), &v7f);
  v7f[4] = 0x7f;  // the version byte leads the payload
  for (const std::vector<uint8_t>& bad :
       {EncodeV1PointFrame(77, "id", 123), v7f}) {
    ASSERT_TRUE(SendAll(fd, bad.data(), bad.size()));
    Result<Response> resp = RecvResponse(fd);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().code, StatusCode::kInvalidArgument);
    EXPECT_EQ(resp.ValueOrDie().request_id, 0u);
    EXPECT_NE(resp.ValueOrDie().error.find("unsupported protocol version"),
              std::string::npos)
        << resp.ValueOrDie().error;
  }

  // A valid frame on the same socket afterwards gets the right value.
  Request good = PointReq("id", 42);
  good.request_id = 9;
  std::vector<uint8_t> frame;
  EncodeRequestFramedInto(good, &frame);
  ASSERT_TRUE(SendAll(fd, frame.data(), frame.size()));
  Result<Response> resp = RecvResponse(fd);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.ValueOrDie().code, StatusCode::kOk) << resp.ValueOrDie().error;
  EXPECT_EQ(resp.ValueOrDie().request_id, 9u);
  EXPECT_EQ(resp.ValueOrDie().value, f.id[42]);
  ::close(fd);
  srv.Stop();
}

TEST(ServerTest, StopDrainsAndSubsequentCallsFailCleanly) {
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Server srv(&svc, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  Result<Client> conn = Client::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(conn.ok());
  Client cl = conn.MoveValueOrDie();
  Result<Response> r = cl.Point("id", 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().value, 7);
  srv.Stop();
  // The connection was shut down server-side; a further call must fail
  // with a transport error, never hang.
  Result<Response> after = cl.Point("id", 8);
  EXPECT_FALSE(after.ok());
  // Stop is idempotent.
  srv.Stop();
  EXPECT_EQ(srv.connection_count(), 0u);
}

// --- per-tenant weighted admission ---------------------------------------

TEST(ServiceTest, TenantQuotaWeightedLimitsAreEnforced) {
  Fixture f;
  ServiceOptions opts;
  opts.max_inflight = 8;
  opts.tenant_quotas = {{1, 3}, {2, 1}};  // shares: 6/8 and 2/8
  QueryService svc(&f.table, f.bm.get(), opts);
  EXPECT_EQ(svc.tenant_limit(1), 6u);
  EXPECT_EQ(svc.tenant_limit(2), 2u);
  EXPECT_EQ(svc.tenant_limit(3), SIZE_MAX);  // unconfigured: global only

  for (int i = 0; i < 6; i++) EXPECT_TRUE(svc.TryAdmit(1)) << i;
  EXPECT_FALSE(svc.TryAdmit(1));  // at quota, global still has room
  EXPECT_EQ(svc.tenant_inflight(1), 6u);
  EXPECT_EQ(svc.tenant_shed(1), 1u);
  EXPECT_TRUE(svc.TryAdmit(2));  // sibling tenant is not starved
  EXPECT_EQ(svc.tenant_inflight(2), 1u);

  // Releasing via execution frees both the tenant and the global slot.
  Request rel = PointReq("id", 0);
  rel.tenant_id = 1;
  for (int i = 0; i < 6; i++) {
    Response r = svc.ExecuteAdmitted(rel, TraceNowMicros());
    EXPECT_EQ(r.code, StatusCode::kOk) << r.error;
  }
  rel.tenant_id = 2;
  svc.ExecuteAdmitted(rel, TraceNowMicros());
  EXPECT_EQ(svc.tenant_inflight(1), 0u);
  EXPECT_EQ(svc.tenant_inflight(2), 0u);
  EXPECT_EQ(svc.inflight(), 0u);
  EXPECT_EQ(svc.tenant_admitted(1), 6u);
  EXPECT_TRUE(svc.TryAdmit(1));  // quota is reusable after release
}

TEST(ServiceTest, TenantAdmissionRollsBackWhenGlobalCapHit) {
  Fixture f;
  ServiceOptions opts;
  opts.max_inflight = 2;
  opts.tenant_quotas = {{1, 1}};  // tenant limit 2 == global cap
  QueryService svc(&f.table, f.bm.get(), opts);
  ASSERT_TRUE(svc.TryAdmit());  // tenant 0 takes a global slot
  ASSERT_TRUE(svc.TryAdmit());  // global now full
  EXPECT_FALSE(svc.TryAdmit(1));
  // The tenant-side reservation must be rolled back, not leaked.
  EXPECT_EQ(svc.tenant_inflight(1), 0u);
  EXPECT_EQ(svc.tenant_shed(1), 1u);
}

TEST(ServiceTest, TenantQuotaStormIsolatesTenants) {
  Fixture f;
  ServiceOptions opts;
  opts.max_inflight = 4;
  opts.tenant_quotas = {{1, 3}, {2, 1}};  // limits 3 and 1
  QueryService svc(&f.table, f.bm.get(), opts);
  constexpr int kThreadsPerTenant = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (uint32_t tenant : {1u, 2u}) {
    for (int t = 0; t < kThreadsPerTenant; t++) {
      threads.emplace_back([&, tenant] {
        for (int i = 0; i < kPerThread; i++) {
          Request req = ScanReq("id", "val", 0, 9000, 10);
          req.tenant_id = tenant;
          svc.Execute(req);
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();
  // Neither tenant ever exceeded its share, both made progress, and the
  // greedy tenant's overflow shed onto itself.
  EXPECT_LE(svc.tenant_peak_inflight(1), 3u);
  EXPECT_LE(svc.tenant_peak_inflight(2), 1u);
  EXPECT_LE(svc.peak_inflight(), 4u);
  EXPECT_GT(svc.tenant_admitted(1), 0u);
  EXPECT_GT(svc.tenant_admitted(2), 0u);
  EXPECT_GT(svc.tenant_shed(2), 0u);  // 4 threads racing into 1 slot
  EXPECT_EQ(svc.tenant_inflight(1), 0u);
  EXPECT_EQ(svc.tenant_inflight(2), 0u);
  EXPECT_EQ(svc.inflight(), 0u);
}

TEST(ServiceTest, RegistryCountsMatchAccessorsUnderShedStorm) {
  // Each admission outcome is counted once, by one call, into both the
  // service's accessor and its server.* registry counter: over a storm
  // of tenant sheds and expired deadlines on one service, every registry
  // counter moves exactly as far as the matching accessor.
#if !SCC_TELEMETRY
  GTEST_SKIP() << "metrics compiled out (-DSCC_TELEMETRY=0)";
#else
  SetTelemetryEnabled(true);
  Fixture f;
  ServiceOptions opts;
  opts.max_inflight = 4;
  opts.tenant_quotas = {{1, 3}, {2, 1}};  // limits 3 and 1
  QueryService svc(&f.table, f.bm.get(), opts);
  const std::string names[] = {
      "server.accepted",          "server.shed",
      "server.deadline_exceeded", "server.tenant.1.admitted",
      "server.tenant.1.shed",     "server.tenant.2.admitted",
      "server.tenant.2.shed"};
  MetricsRegistry& reg = MetricsRegistry::Instance();
  std::vector<uint64_t> before;
  for (const std::string& n : names) {
    before.push_back(reg.GetCounter(n).Value());
  }

  std::vector<std::thread> threads;
  for (uint32_t tenant : {1u, 2u}) {
    for (int t = 0; t < 4; t++) {
      threads.emplace_back([&, tenant] {
        for (int i = 0; i < 50; i++) {
          Request req = ScanReq("id", "val", 0, 9000, 10);
          req.tenant_id = tenant;
          if (i % 2 == 1) req.deadline_micros = 1;  // expires mid-scan
          svc.Execute(req);
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();

  const uint64_t own[] = {svc.accepted(),          svc.shed(),
                          svc.deadline_exceeded(), svc.tenant_admitted(1),
                          svc.tenant_shed(1),      svc.tenant_admitted(2),
                          svc.tenant_shed(2)};
  for (size_t i = 0; i < std::size(names); i++) {
    EXPECT_EQ(reg.GetCounter(names[i]).Value() - before[i], own[i])
        << names[i];
  }
  EXPECT_GT(svc.tenant_shed(2), 0u);  // 4 threads racing into 1 slot
  EXPECT_GT(svc.deadline_exceeded(), 0u);
  EXPECT_EQ(svc.accepted() + svc.shed(), 400u);
#endif
}

// --- reactor connection lifecycle ----------------------------------------

TEST(ReactorTest, SequentialChurnReapsConnectionsAndThreads) {
  // The bug this PR removes: the old thread-per-connection frontend kept
  // one OS thread per accepted socket alive until Stop. N sequential
  // connect/query/close cycles must leave the process thread count and
  // the connection gauge exactly where they started.
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Server srv(&svc, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  {
    // Warm up lazily-started shared infrastructure (pool workers).
    Result<Client> warm = Client::Connect("127.0.0.1", srv.port());
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm.ValueOrDie().Point("id", 0).ok());
  }
  ASSERT_TRUE(PollUntil([&] { return srv.connection_count() == 0; }));
  const size_t threads_before = OsThreadCount();
  ASSERT_GT(threads_before, 0u);
  for (int i = 0; i < 64; i++) {
    Result<Client> conn = Client::Connect("127.0.0.1", srv.port());
    ASSERT_TRUE(conn.ok()) << "cycle " << i;
    Client cl = conn.MoveValueOrDie();
    Result<Response> r = cl.Point("id", uint64_t(i));
    ASSERT_TRUE(r.ok()) << "cycle " << i;
    EXPECT_EQ(r.ValueOrDie().value, int64_t(i));
  }
  EXPECT_TRUE(PollUntil([&] { return srv.connection_count() == 0; }))
      << srv.connection_count() << " connections never reaped";
  EXPECT_TRUE(PollUntil([&] { return OsThreadCount() <= threads_before; }))
      << "thread count grew from " << threads_before << " to "
      << OsThreadCount() << " across 64 connection cycles";
  srv.Stop();
}

TEST(ReactorTest, ManyIdleConnectionsHoldReactorPoolThreads) {
  // Resident threads scale with the reactor pool, not the socket count.
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Server srv(&svc, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  {
    Result<Client> warm = Client::Connect("127.0.0.1", srv.port());
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm.ValueOrDie().Point("id", 0).ok());
  }
  ASSERT_TRUE(PollUntil([&] { return srv.connection_count() == 0; }));
  const size_t threads_before = OsThreadCount();
  constexpr size_t kConns = 200;
  std::vector<int> fds;
  for (size_t i = 0; i < kConns; i++) {
    int fd = RawConnect(srv.port());
    ASSERT_GE(fd, 0) << "connect " << i;
    fds.push_back(fd);
  }
  ASSERT_TRUE(PollUntil([&] { return srv.connection_count() == kConns; }))
      << "accepted " << srv.connection_count() << " of " << kConns;
  EXPECT_EQ(OsThreadCount(), threads_before)
      << kConns << " idle connections must not grow the thread count";
  // One of the idle crowd still gets served promptly.
  std::vector<uint8_t> frame;
  EncodeRequestFramedInto(PointReq("id", 42), &frame);
  ASSERT_TRUE(SendAll(fds[kConns / 2], frame.data(), frame.size()));
  Result<Response> resp = RecvResponse(fds[kConns / 2]);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.ValueOrDie().value, 42);
  for (int fd : fds) ::close(fd);
  EXPECT_TRUE(PollUntil([&] { return srv.connection_count() == 0; }))
      << srv.connection_count() << " connections never reaped";
  srv.Stop();
}

TEST(ReactorTest, ConcurrentChurnStorm) {
  // Accept, query, and teardown race across reactors and the pool; run
  // under TSan in CI. Half the cycles abandon the connection with a
  // request still in flight.
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Server srv(&svc, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  constexpr int kThreads = 8;
  constexpr int kCycles = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Rng rng(uint64_t(900 + t));
      for (int i = 0; i < kCycles; i++) {
        if (rng.Bernoulli(0.5)) {
          Result<Client> conn = Client::Connect("127.0.0.1", srv.port());
          if (!conn.ok()) {
            failures.fetch_add(1);
            continue;
          }
          Client cl = conn.MoveValueOrDie();
          const uint64_t row = rng.Uniform(f.id.size());
          Result<Response> r = cl.Point("id", row);
          if (!r.ok() || r.ValueOrDie().value != f.id[row]) {
            failures.fetch_add(1);
          }
        } else {
          // Fire-and-abandon: close with the response still brewing.
          Result<PipelinedClient> conn =
              PipelinedClient::Connect("127.0.0.1", srv.port());
          if (!conn.ok()) {
            failures.fetch_add(1);
            continue;
          }
          PipelinedClient cl = conn.MoveValueOrDie();
          Request req = ScanReq("id", "val", 0, 9000, 32);
          req.request_id = 0;  // auto-assign
          if (!cl.Send(req).ok() || !cl.Flush().ok()) {
            failures.fetch_add(1);
            continue;
          }
          cl.Close();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(PollUntil([&] { return srv.connection_count() == 0; }));
  // The storm leaves a healthy server behind.
  Result<Client> conn = Client::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(conn.ok());
  Result<Response> r = conn.ValueOrDie().Point("id", 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().value, 7);
  srv.Stop();
  EXPECT_EQ(svc.inflight(), 0u);
}

TEST(ServerTest, ConnectionGaugeTracksOpenSockets) {
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Server srv(&svc, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  std::vector<Client> open;
  for (int i = 0; i < 5; i++) {
    Result<Client> conn = Client::Connect("127.0.0.1", srv.port());
    ASSERT_TRUE(conn.ok());
    open.push_back(conn.MoveValueOrDie());
  }
  ASSERT_TRUE(PollUntil([&] { return srv.connection_count() == 5; }))
      << "gauge stuck at " << srv.connection_count();
  open.resize(3);  // close two
  ASSERT_TRUE(PollUntil([&] { return srv.connection_count() == 3; }))
      << "gauge stuck at " << srv.connection_count();
  open.clear();
  ASSERT_TRUE(PollUntil([&] { return srv.connection_count() == 0; }));
  srv.Stop();
}

// --- hostile pipelined clients -------------------------------------------

TEST(ServerTest, InterleavedHalfFramesAcrossTwoRequestsReassemble) {
  // Two requests delivered as four fragments, each send() boundary
  // landing mid-frame: the reassembly buffer must stitch both frames and
  // answer each with its own request_id.
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Server srv(&svc, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  int fd = RawConnect(srv.port());
  ASSERT_GE(fd, 0);
  Request a = PointReq("id", 11);
  a.request_id = 101;
  Request b = PointReq("id", 22);
  b.request_id = 202;
  std::vector<uint8_t> wire;
  EncodeRequestFramedInto(a, &wire);
  const size_t a_end = wire.size();
  EncodeRequestFramedInto(b, &wire);
  // Fragment boundaries: mid-header of A, mid-payload of A (spilling
  // into B's header), mid-payload of B, remainder.
  const size_t cuts[] = {2, a_end + 2, wire.size() - 3, wire.size()};
  size_t sent = 0;
  for (size_t cut : cuts) {
    ASSERT_TRUE(SendAll(fd, wire.data() + sent, cut - sent));
    sent = cut;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::unordered_map<uint64_t, int64_t> got;
  for (int i = 0; i < 2; i++) {
    Result<Response> resp = RecvResponse(fd);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().code, StatusCode::kOk)
        << resp.ValueOrDie().error;
    got[resp.ValueOrDie().request_id] = resp.ValueOrDie().value;
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[101], 11);
  EXPECT_EQ(got[202], 22);
  ::close(fd);
  srv.Stop();
}

TEST(ServerTest, PipelinedOutOfOrderCompletionsCorrelate) {
  // A pool-queued scan and an inline-answered TableInfo sent in one
  // burst complete out of send order; request_id correlation is the only
  // valid way to match them.
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Server srv(&svc, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  Result<PipelinedClient> conn =
      PipelinedClient::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(conn.ok());
  PipelinedClient cl = conn.MoveValueOrDie();
  Request scan = ScanReq("id", "val", 0, 10000, 64);
  scan.request_id = 0;
  Result<uint64_t> scan_id = cl.Send(scan);
  ASSERT_TRUE(scan_id.ok());
  Request info;
  info.type = RequestType::kTableInfo;
  Result<uint64_t> info_id = cl.Send(info);
  ASSERT_TRUE(info_id.ok());
  ASSERT_NE(scan_id.ValueOrDie(), info_id.ValueOrDie());

  Result<Response> first = cl.Next();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<Response> second = cl.Next();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // TableInfo bypasses the pool and is flushed while the scan still
  // executes — completion order inverts send order.
  EXPECT_EQ(first.ValueOrDie().request_id, info_id.ValueOrDie());
  EXPECT_EQ(second.ValueOrDie().request_id, scan_id.ValueOrDie());
  EXPECT_EQ(first.ValueOrDie().rows, f.id.size());
  auto [wm, wv] = RefScan(f.id, f.val, 0, 10000, 64);
  EXPECT_EQ(second.ValueOrDie().total_matches, wm);
  EXPECT_EQ(second.ValueOrDie().values, wv);
  EXPECT_EQ(cl.outstanding(), 0u);
  srv.Stop();
}

TEST(ServerTest, PipelinedClientClosesMidDrain) {
  // 100 pipelined requests, 10 responses read, then the client vanishes:
  // the server must retire the remaining 90 without crashing, leaking
  // the connection, or wedging admission.
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Server srv(&svc, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  {
    Result<PipelinedClient> conn =
        PipelinedClient::Connect("127.0.0.1", srv.port());
    ASSERT_TRUE(conn.ok());
    PipelinedClient cl = conn.MoveValueOrDie();
    for (int i = 0; i < 100; i++) {
      Request req = ScanReq("id", "val", 0, 9000, 32);
      req.request_id = 0;
      ASSERT_TRUE(cl.Send(req).ok()) << i;
    }
    for (int i = 0; i < 10; i++) {
      Result<Response> r = cl.Next();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }  // destructor closes with 90 responses undrained
  EXPECT_TRUE(PollUntil([&] { return srv.connection_count() == 0; }));
  EXPECT_TRUE(PollUntil([&] { return svc.inflight() == 0; }));
  // Admission slots all came back: a burst the size of the cap admits.
  Result<Client> conn2 = Client::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(conn2.ok());
  Result<Response> r = conn2.ValueOrDie().Point("id", 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().code, StatusCode::kOk);
  srv.Stop();
}

TEST(ServerTest, SlowReaderWriteQueueCapDisconnects) {
  // A client that requests fast and never reads must be disconnected
  // once its un-flushed responses exceed the per-connection cap — the
  // server never buffers a slow reader without bound.
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  ServerOptions opts;
  opts.max_write_queue_bytes = 16 * 1024;
  opts.sndbuf_bytes = 16 * 1024;  // keep backpressure out of the kernel
  Server srv(&svc, opts);
  ASSERT_TRUE(srv.Start().ok());
  const uint64_t overflows_before = srv.write_queue_overflows();
  int fd = RawConnect(srv.port(), /*rcvbuf_bytes=*/4096);
  ASSERT_GE(fd, 0);
  // Each scan response carries up to 8192 values (~64 KB) — a handful
  // overwhelm the 16 KB cap once the socket stops draining.
  std::vector<uint8_t> burst;
  for (int i = 0; i < 64; i++) {
    Request req = ScanReq("id", "val", 0, 10000, 8192);
    req.request_id = uint64_t(i + 1);
    EncodeRequestFramedInto(req, &burst);
  }
  ASSERT_TRUE(SendAll(fd, burst.data(), burst.size()));
  EXPECT_TRUE(PollUntil(
      [&] { return srv.write_queue_overflows() > overflows_before; }))
      << "cap never tripped: " << srv.write_queue_overflows();
  EXPECT_TRUE(PollUntil([&] { return srv.connection_count() == 0; }))
      << "slow reader never disconnected";
  ::close(fd);
  // Well-behaved clients are unaffected.
  Result<Client> conn = Client::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(conn.ok());
  Result<Response> r = conn.ValueOrDie().Point("id", 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().value, 3);
  srv.Stop();
}

TEST(ServerTest, WriteErrorTearsDownConnectionAndCounts) {
  // Satellite 3: response-write failures must be counted and tear the
  // connection down — never silently dropped. An RST while the server
  // still holds queued response bytes forces the failing sendmsg.
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  ServerOptions opts;
  opts.max_write_queue_bytes = 8 * 1024 * 1024;  // never trip the cap
  opts.sndbuf_bytes = 16 * 1024;  // tail parks in the write queue
  Server srv(&svc, opts);
  ASSERT_TRUE(srv.Start().ok());
  const uint64_t errors_before = srv.write_errors();
  bool saw_error = false;
  for (int attempt = 0; attempt < 10 && !saw_error; attempt++) {
    int fd = RawConnect(srv.port(), /*rcvbuf_bytes=*/4096);
    ASSERT_GE(fd, 0);
    // ~2 MB of responses against a 4 KB receive window and a 16 KB
    // server send buffer: the kernel can absorb only a sliver, so a
    // queued tail is guaranteed to remain server-side.
    std::vector<uint8_t> burst;
    for (int i = 0; i < 32; i++) {
      Request req = ScanReq("id", "val", 0, 10000, 8192);
      req.request_id = uint64_t(i + 1);
      EncodeRequestFramedInto(req, &burst);
    }
    if (!SendAll(fd, burst.data(), burst.size())) {
      ::close(fd);
      continue;
    }
    // Wait for every scan to finish (responses queued, flush attempted,
    // tail parked behind the closed window), read one byte so there is
    // unread data, then abort: close() with unread data sends RST, and
    // the server's next flush of the queued tail fails.
    PollUntil([&] { return svc.inflight() == 0; });
    uint8_t one;
    (void)::recv(fd, &one, 1, 0);
    linger lg{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
    saw_error = PollUntil(
        [&] { return srv.write_errors() > errors_before; }, 1000);
  }
  EXPECT_TRUE(saw_error) << "no write error surfaced in 10 RST attempts";
  EXPECT_TRUE(PollUntil([&] { return srv.connection_count() == 0; }));
  // The failure is isolated: the server still serves new connections.
  Result<Client> conn = Client::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(conn.ok());
  Result<Response> r = conn.ValueOrDie().Point("id", 9);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().value, 9);
  srv.Stop();
  EXPECT_EQ(svc.inflight(), 0u);
}

TEST(ServerTest, PipelinedDifferentialAgainstClosedLoop) {
  // The pipelined path must return byte-identical answers to the
  // one-outstanding-call path for an identical request stream.
  Fixture f;
  QueryService svc(&f.table, f.bm.get());
  Server srv(&svc, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  Result<Client> c1 = Client::Connect("127.0.0.1", srv.port());
  Result<PipelinedClient> c2 =
      PipelinedClient::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  Client closed = c1.MoveValueOrDie();
  PipelinedClient piped = c2.MoveValueOrDie();
  Rng rng(4242);
  constexpr int kOps = 64;
  std::vector<Request> stream;
  for (int i = 0; i < kOps; i++) {
    if (rng.Bernoulli(0.5)) {
      stream.push_back(PointReq("id", rng.Uniform(f.id.size())));
    } else {
      const int64_t lo = int64_t(rng.Uniform(7000));
      stream.push_back(
          ScanReq("id", "val", lo, lo + int64_t(rng.Uniform(400)), 32));
    }
    stream.back().request_id = uint64_t(i + 1);
  }
  std::unordered_map<uint64_t, Response> closed_got, piped_got;
  for (const Request& req : stream) {
    Result<Response> r = closed.Call(req);
    ASSERT_TRUE(r.ok());
    closed_got[req.request_id] = r.MoveValueOrDie();
  }
  for (const Request& req : stream) ASSERT_TRUE(piped.Send(req).ok());
  for (int i = 0; i < kOps; i++) {
    Result<Response> r = piped.Next();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    piped_got[r.ValueOrDie().request_id] = r.MoveValueOrDie();
  }
  ASSERT_EQ(closed_got.size(), piped_got.size());
  for (const auto& [id, want] : closed_got) {
    auto it = piped_got.find(id);
    ASSERT_NE(it, piped_got.end()) << "request " << id << " unanswered";
    EXPECT_EQ(EncodeResponseFramed(it->second), EncodeResponseFramed(want))
        << "request " << id << " diverged";
  }
  srv.Stop();
}

}  // namespace
}  // namespace server
}  // namespace scc
