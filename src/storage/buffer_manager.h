#ifndef SCC_STORAGE_BUFFER_MANAGER_H_
#define SCC_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <variant>

#include "core/segment.h"
#include "core/segment_reader.h"
#include "storage/sim_disk.h"
#include "storage/storage_metrics.h"
#include "storage/table.h"
#include "storage/tier_cache.h"
#include "util/status.h"

// ColumnBM's buffer manager. The paper's key design point (Figure 1): the
// buffer manager caches pages in COMPRESSED form; decompression happens
// later, per vector, at the RAM -> CPU-cache boundary. Caching compressed
// data means more pages fit in RAM *and* the CPU moves less memory.
//
// Tiering (docs/STORAGE_TIERS.md): the manager models three tiers,
// hottest first, each one TierCache (storage/tier_cache.h) —
//
//  * HOT — decoded 128-value groups (kEntryGroup), admitted by ReadValue
//    on a point-access fault. This is the only place decompressed data is
//    cached, and it is group-granular by construction: a point read
//    decodes exactly one group, never a whole chunk. One shard.
//  * DRAM — compressed I/O units. Capacity is `capacity_bytes`; this tier
//    exists in every configuration and is the whole manager when the
//    others are off. Its entries own a verified copy of the page or alias
//    the pristine column memory. kShards shards.
//  * SSD — compressed I/O units demoted from DRAM on eviction, over a
//    private SimDisk with its own bandwidth/seek model (and optionally
//    its own FaultInjector). The tier tracks RESIDENCY + charges device
//    time; page bytes are re-materialized from the pristine column
//    memory, exactly like the cold device. Inclusive below DRAM: a
//    promotion to DRAM keeps the SSD copy (compressed pages are
//    immutable), so re-demotion of an SSD-resident page needs no new
//    writeback IO. One shard.
//
// A miss walks down: DRAM -> SSD (if resident there) -> cold device.
// Whatever device serves the read charges its own latency model, and the
// page is promoted into DRAM (and, for ReadValue, the decoded group into
// HOT). Demotion happens only on DRAM eviction — pinned pages are never
// eviction victims, hence never demoted. Each tier counts its events in
// its TierCache (tier_stats(), storage.tier.<t>.*); a tier that is not
// configured counts nothing.
//
// The DRAM cache is an LRU over I/O units. Under DSM the unit is one
// (column, chunk) segment; under PAX it is a whole row group (all columns
// of a row range), so fetching one column of an uncached row group
// charges the disk for every column — the effect Table 2 measures.
// (PAX caveat: SSD residency is tracked per column page, so a row group
// can be partially SSD-resident; the device serving a PAX read is chosen
// by the requested column's page.)
//
// Concurrency (docs/PARALLELISM.md): each tier is lock-striped, and the
// DRAM tier's kShards stripes keep morsel workers fetching different
// chunks from contending. Three mechanisms make shared use safe:
//
//  * Pins — FetchPinned, the one way to read a page, returns a PageGuard
//    that holds a per-page pin count; pinned pages are never evicted, so
//    a decode can never race an eviction freeing the owned copy under it.
//  * Miss coalescing — N workers faulting the same I/O unit join one
//    in-flight read (a single device charge, whichever tier serves it);
//    followers block until the leader publishes the page or its final
//    error.
//  * Global capacity — eviction picks the globally oldest unpinned page
//    across shards, holding one shard lock at a time and demoting each
//    victim after its lock is released. No tier lock is held while
//    another tier's is taken.
//
// Fault tolerance: when the serving device carries a FaultInjector (or
// checksum verification is enabled), a miss switches from aliasing the
// pristine column memory to materializing an OWNED copy of each page
// through the fault path, verifying it, and retrying failed reads a
// bounded number of times. Every failed attempt counts into
// storage.io_faults; a read that exhausts its retries is NOT cached (so a
// later fetch retries from "disk") and surfaces as a non-OK Result
// instead of an abort. A page whose SSD-tier read permanently fails is
// dropped from the SSD tier, so the NEXT fetch falls back to the cold
// device — an injected SSD fault can cost a query, never the data.
// Coalesced waiters do NOT inherit the leader's error blindly: the
// leader's fault need not apply to them at all (under PAX faults hit the
// leader's column page, not the whole row group), so each waiter
// re-attempts its own fetch, bounded by its own retry budget, before
// surfacing the last published error.

namespace scc {

class BufferManager {
 public:
  /// DRAM lock stripes. Power of two; 16 keeps cross-chunk contention
  /// negligible at typical core counts.
  static constexpr size_t kShards = 16;
  static_assert(kShards == kBmMetricShards,
                "per-shard metric handles sized for a different stripe "
                "count; update storage_metrics.h");

  using CacheTier = scc::CacheTier;
  using TierStats = scc::TierStats;

  /// Optional tiers around the DRAM cache. Both default OFF, which makes
  /// a default-constructed manager behave exactly like the historical
  /// single-tier one (same counters, same device charges).
  struct TierConfig {
    /// Decoded-group hot tier served by ReadValue. 0 disables (point
    /// reads still decode group-granularly, they just don't cache).
    size_t hot_capacity_bytes = 0;
    /// Compressed SSD tier fed by DRAM writeback. 0 disables.
    size_t ssd_capacity_bytes = 0;
    /// Latency model for the SSD tier's device.
    SimDisk::Config ssd = SimDisk::NvmeSsd();
  };

  // (Two overloads rather than a defaulted TierConfig argument: default
  // arguments are not a complete-class context, so the nested struct's
  // member initializers would not be usable there yet.)
  BufferManager(SimDisk* disk, size_t capacity_bytes, Layout layout)
      : BufferManager(disk, capacity_bytes, layout, TierConfig{}) {}
  BufferManager(SimDisk* disk, size_t capacity_bytes, Layout layout,
                TierConfig tiers);
  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// RAII pin on a cached page. The page cannot be evicted (and an owned
  /// copy cannot be freed) while any guard on it is alive. Move-only.
  class PageGuard {
   public:
    PageGuard() = default;
    PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
    PageGuard& operator=(PageGuard&& o) noexcept {
      if (this != &o) {
        Release();
        bm_ = o.bm_;
        key_ = o.key_;
        page_ = o.page_;
        o.bm_ = nullptr;
        o.page_ = nullptr;
      }
      return *this;
    }
    PageGuard(const PageGuard&) = delete;
    PageGuard& operator=(const PageGuard&) = delete;
    ~PageGuard() { Release(); }

    const AlignedBuffer* page() const { return page_; }
    const AlignedBuffer& operator*() const { return *page_; }
    const AlignedBuffer* operator->() const { return page_; }
    explicit operator bool() const { return page_ != nullptr; }

    /// Drops the pin early (idempotent).
    void Release() {
      if (bm_ != nullptr) {
        bm_->dram_.Unpin(key_);
        bm_ = nullptr;
        page_ = nullptr;
      }
    }

   private:
    friend class BufferManager;
    PageGuard(BufferManager* bm, TierKey key, const AlignedBuffer* page)
        : bm_(bm), key_(key), page_(page) {}
    BufferManager* bm_ = nullptr;
    TierKey key_{};
    const AlignedBuffer* page_ = nullptr;
  };

  /// Thread-safe fetch of `col`'s chunk `chunk_idx`, pinned against
  /// eviction for the guard's lifetime. Concurrent misses on the same I/O
  /// unit coalesce into a single disk read. Fails with IOError /
  /// Corruption when the page cannot be read intact within the retry
  /// budget.
  Result<PageGuard> FetchPinned(const Table* table, const StoredColumn* col,
                                size_t chunk_idx);

  /// Warms the cache with `col`'s chunk `chunk_idx`: one page, fetched
  /// and unpinned (stackbench's warm-up calls it). Errors are returned
  /// but safe to ignore: a failed fetch is not cached, so the next fetch
  /// retries.
  Status Prefetch(const Table* table, const StoredColumn* col,
                  size_t chunk_idx) {
    return FetchPinned(table, col, chunk_idx).status();
  }

  /// Point read of `col`'s row `row`, tier-aware and group-granular: a
  /// hot-tier hit copies the value straight out of the decoded group; a
  /// miss pins the compressed page (faulting it up the tiers if needed)
  /// and decodes EXACTLY ONE 128-value entry group — never the whole
  /// chunk — then admits the decoded group into the hot tier. The
  /// codec.<scheme>.decode.values delta of a point-read fault is
  /// therefore bounded by kEntryGroup, which tests pin down.
  template <CodecValue T>
  Result<T> ReadValue(const Table* table, const StoredColumn* col,
                      size_t row) {
    if (TypeIdOf<T>() != col->type) {
      return Status::InvalidArgument("ReadValue type mismatch for column " +
                                     col->name);
    }
    if (row >= col->rows) {
      return Status::OutOfRange("row " + std::to_string(row) +
                                " out of range for column " + col->name);
    }
    const size_t chunk = row / col->chunk_values;
    const size_t slot = row % col->chunk_values;
    const size_t group = slot / kEntryGroup;
    const size_t gslot = slot % kEntryGroup;
    const TierKey gkey{col, chunk, group};
    const bool hot = hot_.capacity() > 0;
    T v;
    if (hot) {
      if (hot_.Find(gkey, /*pin=*/false, [&](const AlignedBuffer& values) {
            std::memcpy(&v, values.data() + gslot * sizeof(T), sizeof(T));
          })) {
        hot_.CountHit();
        return v;
      }
      hot_.CountMiss();
    }
    const bool timed = hot && TelemetryEnabled();
    const double fault_start_us = timed ? TraceNowMicros() : 0;
    SCC_ASSIGN_OR_RETURN(PageGuard guard, FetchPinned(table, col, chunk));
    SCC_ASSIGN_OR_RETURN(SegmentReader<T> reader,
                         SegmentReader<T>::Open(guard->data(), guard->size()));
    const size_t glo = group * kEntryGroup;
    const size_t glen = std::min(kEntryGroup, col->ChunkRows(chunk) - glo);
    AlignedBuffer decoded(glen * sizeof(T));
    reader.DecompressRange(glo, glen, reinterpret_cast<T*>(decoded.data()));
    std::memcpy(&v, decoded.data() + gslot * sizeof(T), sizeof(T));
    if (timed) {
      // Hot-tier fault latency is wall time (decode is CPU work, not a
      // simulated device), including the page fix below it.
      hot_.ObserveFault(
          uint64_t((TraceNowMicros() - fault_start_us) * 1000.0));
    }
    if (hot) hot_.Admit(gkey, glen * sizeof(T), std::move(decoded));
    return v;
  }

  /// Verify per-section segment CRCs at page-fix time (the Figure 1
  /// boundary where bytes enter the cache). Off by default; corruption
  /// campaigns and durability-minded callers opt in. Configure before
  /// sharing the manager across threads.
  void SetVerifyChecksums(bool on) { verify_checksums_ = on; }
  bool verify_checksums() const { return verify_checksums_; }
  /// Failed page reads are retried this many times before FetchPinned
  /// gives up.
  /// Configure before sharing the manager across threads.
  void set_max_read_retries(int n) { max_read_retries_ = n; }

  SimDisk* disk() const { return disk_; }
  /// The SSD tier's private device: attach a FaultInjector here to storm
  /// the middle tier, or read its io_seconds()/counters for writeback and
  /// promotion IO accounting. Meaningful only when the tier is enabled.
  SimDisk* ssd_disk() { return &ssd_disk_; }
  const SimDisk* ssd_disk() const { return &ssd_disk_; }
  const TierConfig& tier_config() const { return tiers_; }
  size_t capacity_bytes() const { return dram_.capacity(); }

  /// The DRAM tier's counters (tier_stats(CacheTier::kDram)).
  size_t hits() const { return dram_.stats().hits; }
  size_t misses() const { return dram_.stats().misses; }
  size_t resident_bytes() const { return dram_.stats().resident_bytes; }
  /// Cache entries dropped by LRU pressure since construction or the last
  /// ResetStats(), and the bytes they held.
  size_t evictions() const { return dram_.stats().evictions; }
  size_t evicted_bytes() const { return evicted_bytes_.Get(); }
  /// Bytes charged to the COLD device on cache misses (compressed bytes;
  /// the whole row group under PAX). SSD-tier charges are visible on
  /// ssd_disk() instead, so this stays equal to disk()->bytes_read() in
  /// every configuration.
  size_t bytes_read() const { return bytes_read_.Get(); }
  /// Failed page-read attempts (injected I/O errors, truncations, and
  /// checksum mismatches) on ANY tier's device, including attempts that
  /// later succeeded on retry. Mirrors the storage.io_faults registry
  /// counter.
  size_t io_faults() const { return io_faults_.Get(); }
  /// Misses that joined another thread's in-flight read instead of
  /// charging the disk themselves. Every FetchPinned ends as exactly one
  /// hit, miss or coalesced miss, so hits() + misses() +
  /// coalesced_misses() == fetches. Mirrors storage.bm.coalesced_misses.
  size_t coalesced_misses() const { return coalesced_misses_.Get(); }

  /// Snapshot of one tier's counters (see TierStats for the invariant the
  /// property tests pin down). The storage.tier.<t>.* registry family
  /// counts the same events, process-wide and monotonic where these are
  /// per-manager.
  TierStats tier_stats(CacheTier t) const;

  /// DRAM pages currently held by at least one PageGuard. A drained
  /// system (no scan or point read in flight) must report 0 — the
  /// pin-leak tests assert exactly that after cancelled and
  /// deadline-exceeded queries.
  size_t pinned_pages() const { return dram_.pinned(); }

  /// Whether `col`'s chunk is resident in the SSD tier (test accessor;
  /// does not touch the tier's LRU).
  bool ssd_resident(const StoredColumn* col, size_t chunk_idx) const {
    return ssd_.Contains(TierKey{col, chunk_idx});
  }

  /// Drops every cached page IN EVERY TIER (residency returns to 0) but
  /// KEEPS the statistics: Clear() is "power off the cache", used by
  /// benches to force cold runs while still accounting the full
  /// experiment. Must not run concurrently with fetches holding pins.
  /// (Because dropped entries are not counted as evictions, the
  /// promotions-balance invariant restarts after a Clear.)
  void Clear();
  /// Zeroes hit/miss/eviction/bytes counters (including the per-tier
  /// flow counters) but KEEPS the cache contents: ResetStats() is "start
  /// a fresh measurement window" against a warm cache. Process-wide
  /// storage.* registry counters are monotonic and unaffected; diff
  /// MetricsRegistry snapshots for windowed readings.
  void ResetStats();

 private:
  /// A DRAM entry: an owned, verified copy of the page, or (alias set)
  /// the pristine column memory itself.
  struct CachedPage {
    AlignedBuffer owned;
    const AlignedBuffer* alias = nullptr;
    const AlignedBuffer* get() const { return alias ? alias : &owned; }
  };
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
  };

  bool ssd_enabled() const { return ssd_.capacity() > 0; }
  PageGuard TryPinCached(const TierKey& key, bool coalesced = false);
  void CountCoalesced();
  Status ReadPage(const Table* table, const StoredColumn* col,
                  size_t chunk_idx, AlignedBuffer* page, bool* owned);
  PageGuard Admit(const Table* table, const StoredColumn* col,
                  size_t chunk_idx, const TierKey& key, AlignedBuffer&& page,
                  bool owned);
  void Evicted(TierCache<CachedPage>::Victim&& victim);
  void DemoteToSsd(const TierKey& key, size_t bytes);

  SimDisk* disk_;
  Layout layout_;
  TierConfig tiers_;
  SimDisk ssd_disk_;  // the SSD tier's private device
  bool verify_checksums_ = false;
  int max_read_retries_ = 2;

  TierCache<AlignedBuffer> hot_;         // decoded groups
  TierCache<CachedPage> dram_;           // compressed pages
  TierCache<std::monostate> ssd_;        // flash residency only
  std::mutex inflight_mu_;
  std::unordered_map<TierKey, std::shared_ptr<InFlight>, TierKeyHash>
      inflight_;

  Flow evicted_bytes_;
  Flow bytes_read_;
  Flow io_faults_;
  Flow coalesced_misses_;
};

}  // namespace scc

#endif  // SCC_STORAGE_BUFFER_MANAGER_H_
