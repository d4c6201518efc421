#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "server/service.h"
#include "storage/buffer_manager.h"
#include "storage/sim_disk.h"
#include "storage/table.h"

// A served scan holds what its `limit` asks for, not what its filter
// matches (docs/SERVICE.md). This binary replaces every global operator
// new/delete form, the aligned ones included, with a live-byte counter
// and a high-water mark, so it runs as a test binary of its own.

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

TEST(ScanMemoryTest, FullRangeLimitOneScanHoldsItsCapNotItsMatches) {
  constexpr size_t kRows = size_t(1) << 20;
  Table table(16384);
  std::vector<int64_t> id(kRows), price(kRows);
  for (size_t i = 0; i < kRows; i++) {
    id[i] = int64_t(i);
    price[i] = 1000 + int64_t((i * 7919) % 50000);
  }
  ASSERT_TRUE(
      table.AddColumn<int64_t>("id", id, ColumnCompression::kAuto).ok());
  ASSERT_TRUE(
      table.AddColumn<int64_t>("price", price, ColumnCompression::kAuto).ok());
  SimDisk disk;
  BufferManager bm(&disk, table.ByteSize() + 1, Layout::kDSM);

  Request req;
  req.type = RequestType::kScan;
  req.column = "price";
  req.filter_column = "id";
  req.lo = std::numeric_limits<int64_t>::min();
  req.hi = std::numeric_limits<int64_t>::max();
  req.limit = 1;
  {
    // Warm up once: every page resident, the pool's workers started.
    QueryService warm(&table, &bm);
    ASSERT_EQ(warm.Execute(req).code, StatusCode::kOk);
  }

  for (unsigned threads : {1u, 4u}) {
    ServiceOptions opts;
    opts.scan_threads = threads;
    QueryService svc(&table, &bm, opts);
    Response resp;
    const int64_t rise = PeakRiseDuring([&] { resp = svc.Execute(req); });
    ASSERT_EQ(resp.code, StatusCode::kOk) << resp.error;
    EXPECT_EQ(resp.total_matches, kRows) << "threads=" << threads;
    ASSERT_EQ(resp.values.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(resp.values[0], price[0]) << "threads=" << threads;
    // Holding every match would take 16 MB: a (row, value) pair each.
    EXPECT_LT(rise, int64_t(2) << 20)
        << "a limit-1 scan of " << kRows << " matches at threads=" << threads
        << " raised the allocation high-water mark by " << rise << " bytes";
  }
}

}  // namespace
}  // namespace server
}  // namespace scc
