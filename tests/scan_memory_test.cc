#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/client.h"
#include "server/server.h"
#include "server/service.h"
#include "storage/buffer_manager.h"
#include "storage/sim_disk.h"
#include "storage/table.h"

// A served scan holds what its `limit` asks for, not what its filter
// matches (docs/SERVICE.md), in process and through the server alike.
// This binary replaces every global operator new/delete form, the
// aligned ones included, with a live-byte counter and a high-water mark,
// so it runs as a test binary of its own.

namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

// Each block keeps its size just below the pointer handed out. The
// header is at least 16 bytes, so malloc'd blocks keep the default new
// alignment; over-aligned blocks use a header of one alignment unit.
constexpr size_t kMinHeader = 16;

void* Allocate(size_t n, size_t align) {
  const size_t header = std::max(align, kMinHeader);
  void* base = nullptr;
  if (align <= kMinHeader) {
    base = std::malloc(header + n);
  } else if (posix_memalign(&base, align, header + n) != 0) {
    base = nullptr;
  }
  if (base == nullptr) return nullptr;
  uint8_t* p = static_cast<uint8_t*>(base) + header;
  std::memcpy(p - sizeof(size_t), &n, sizeof(size_t));
  const int64_t live =
      g_live_bytes.fetch_add(int64_t(n), std::memory_order_relaxed) +
      int64_t(n);
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* AllocateOrThrow(size_t n, size_t align) {
  void* p = Allocate(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Free(void* p, size_t align) {
  if (p == nullptr) return;
  uint8_t* q = static_cast<uint8_t*>(p);
  size_t n = 0;
  std::memcpy(&n, q - sizeof(size_t), sizeof(size_t));
  g_live_bytes.fetch_sub(int64_t(n), std::memory_order_relaxed);
  std::free(q - std::max(align, kMinHeader));
}

}  // namespace

void* operator new(size_t n) { return AllocateOrThrow(n, 0); }
void* operator new[](size_t n) { return AllocateOrThrow(n, 0); }
void* operator new(size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, size_t(a));
}
void* operator new[](size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, size_t(a));
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, 0);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, 0);
}
void* operator new(size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return Allocate(n, size_t(a));
}
void* operator new[](size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return Allocate(n, size_t(a));
}
void operator delete(void* p) noexcept { Free(p, 0); }
void operator delete[](void* p) noexcept { Free(p, 0); }
void operator delete(void* p, size_t) noexcept { Free(p, 0); }
void operator delete[](void* p, size_t) noexcept { Free(p, 0); }
void operator delete(void* p, std::align_val_t a) noexcept {
  Free(p, size_t(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  Free(p, size_t(a));
}
void operator delete(void* p, size_t, std::align_val_t a) noexcept {
  Free(p, size_t(a));
}
void operator delete[](void* p, size_t, std::align_val_t a) noexcept {
  Free(p, size_t(a));
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p, 0); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Free(p, 0);
}
void operator delete(void* p, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  Free(p, size_t(a));
}
void operator delete[](void* p, std::align_val_t a,
                       const std::nothrow_t&) noexcept {
  Free(p, size_t(a));
}

namespace scc {
namespace server {
namespace {

/// How far the allocation high-water mark rises above the live bytes at
/// the start while `fn` runs.
int64_t PeakRiseDuring(const std::function<void()>& fn) {
  const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(before, std::memory_order_relaxed);
  fn();
  return g_peak_bytes.load(std::memory_order_relaxed) - before;
}

constexpr size_t kRows = size_t(1) << 20;
// Holding every match of a full-range scan of kRows rows would take
// 16 MB: a (row, value) pair each.
constexpr int64_t kAllMatchesBytes = int64_t(kRows) * 16;

/// kRows rows: `id` is the row number and `price` a scattered value, so a
/// filter on the whole `id` range matches every row. The DRAM tier holds
/// the table.
struct PriceTable {
  Table table{16384};
  std::vector<int64_t> price;
  SimDisk disk;
  std::unique_ptr<BufferManager> bm;

  PriceTable() : price(kRows) {
    std::vector<int64_t> id(kRows);
    for (size_t i = 0; i < kRows; i++) {
      id[i] = int64_t(i);
      price[i] = 1000 + int64_t((i * 7919) % 50000);
    }
    SCC_CHECK(
        table.AddColumn<int64_t>("id", id, ColumnCompression::kAuto).ok(),
        "id");
    SCC_CHECK(
        table.AddColumn<int64_t>("price", price, ColumnCompression::kAuto)
            .ok(),
        "price");
    bm = std::make_unique<BufferManager>(&disk, table.ByteSize() + 1,
                                         Layout::kDSM);
    // Warm up once: every page resident, the pool's workers started.
    QueryService warm(&table, bm.get());
    SCC_CHECK(warm.Execute(FullRangeLimitOne()).code == StatusCode::kOk,
              "warm-up scan");
  }

  static Request FullRangeLimitOne() {
    Request req;
    req.type = RequestType::kScan;
    req.column = "price";
    req.filter_column = "id";
    req.lo = std::numeric_limits<int64_t>::min();
    req.hi = std::numeric_limits<int64_t>::max();
    req.limit = 1;
    return req;
  }
};

TEST(ScanMemoryTest, FullRangeLimitOneScanHoldsItsCapNotItsMatches) {
  PriceTable t;
  for (unsigned threads : {1u, 4u}) {
    ServiceOptions opts;
    opts.scan_threads = threads;
    QueryService svc(&t.table, t.bm.get(), opts);
    Response resp;
    const int64_t rise = PeakRiseDuring(
        [&] { resp = svc.Execute(PriceTable::FullRangeLimitOne()); });
    ASSERT_EQ(resp.code, StatusCode::kOk) << resp.error;
    EXPECT_EQ(resp.total_matches, kRows) << "threads=" << threads;
    ASSERT_EQ(resp.values.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(resp.values[0], t.price[0]) << "threads=" << threads;
    EXPECT_LT(rise, int64_t(2) << 20)
        << "a limit-1 scan of " << kRows << " matches at threads=" << threads
        << " raised the allocation high-water mark by " << rise << " bytes";
  }
}

TEST(ScanMemoryTest, SixtyFourPipelinedLimitOneScansStayBounded) {
  // One client pipelines 64 full-range limit-1 scans on one connection
  // before it reads any reply; the default max_inflight (64) admits them
  // all. Together they must hold less than one uncapped scan's matches.
  constexpr size_t kScans = 64;
  PriceTable t;
  QueryService svc(&t.table, t.bm.get());
  Server srv(&svc);
  ASSERT_TRUE(srv.Start().ok());
  Result<PipelinedClient> conn =
      PipelinedClient::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  PipelinedClient client = conn.MoveValueOrDie();
  std::vector<Response> replies;
  replies.reserve(kScans);
  const int64_t rise = PeakRiseDuring([&] {
    for (size_t i = 0; i < kScans; i++) {
      ASSERT_TRUE(client.Send(PriceTable::FullRangeLimitOne()).ok());
    }
    for (size_t i = 0; i < kScans; i++) {
      Result<Response> r = client.Next();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      replies.push_back(r.MoveValueOrDie());
    }
  });
  ASSERT_EQ(replies.size(), kScans);
  for (const Response& resp : replies) {
    ASSERT_EQ(resp.code, StatusCode::kOk) << resp.error;
    EXPECT_EQ(resp.total_matches, kRows);
    ASSERT_EQ(resp.values.size(), 1u);
    EXPECT_EQ(resp.values[0], t.price[0]);
  }
  EXPECT_LT(rise, kAllMatchesBytes)
      << kScans << " pipelined limit-1 scans raised the allocation "
      << "high-water mark by " << rise << " bytes";
  RecordProperty("high_water_rise_bytes", std::to_string(rise));
  srv.Stop();
}

}  // namespace
}  // namespace server
}  // namespace scc
