#ifndef SCC_STORAGE_BUFFER_MANAGER_H_
#define SCC_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/segment.h"
#include "core/segment_reader.h"
#include "storage/sim_disk.h"
#include "storage/storage_metrics.h"
#include "storage/table.h"
#include "util/status.h"

// ColumnBM's buffer manager. The paper's key design point (Figure 1): the
// buffer manager caches pages in COMPRESSED form; decompression happens
// later, per vector, at the RAM -> CPU-cache boundary. Caching compressed
// data means more pages fit in RAM *and* the CPU moves less memory.
//
// Tiering (docs/STORAGE_TIERS.md): the manager models three tiers,
// hottest first —
//
//  * HOT — decoded 128-value groups (kEntryGroup), admitted by ReadValue
//    on a point-access fault. This is the only place decompressed data is
//    cached, and it is group-granular by construction: a point read
//    decodes exactly one group, never a whole chunk.
//  * DRAM — compressed I/O units (the historical cache below). Capacity
//    is `capacity_bytes`; this tier exists in every configuration and is
//    byte-for-byte the old single-tier manager when the others are off.
//  * SSD — compressed I/O units demoted from DRAM on eviction, over a
//    private SimDisk with its own bandwidth/seek model (and optionally
//    its own FaultInjector). The tier tracks RESIDENCY + charges device
//    time; page bytes are re-materialized from the pristine column
//    memory, exactly like the cold device. Inclusive below DRAM: a
//    promotion to DRAM keeps the SSD copy (compressed pages are
//    immutable), so re-demotion of an SSD-resident page needs no new
//    writeback IO.
//
// A miss walks down: DRAM -> SSD (if resident there) -> cold device.
// Whatever device serves the read charges its own latency model, and the
// page is promoted into DRAM (and, for ReadValue, the decoded group into
// HOT). Demotion happens only on DRAM eviction — pinned pages are never
// eviction victims, hence never demoted. Per-tier telemetry:
// storage.tier.{hot,dram,ssd}.{hits,misses,promotions,writebacks,
// writeback_failures,evictions}, residency gauges, fault-latency
// histograms.
//
// The DRAM cache is an LRU over I/O units. Under DSM the unit is one
// (column, chunk) segment; under PAX it is a whole row group (all columns
// of a row range), so fetching one column of an uncached row group
// charges the disk for every column — the effect Table 2 measures.
// (PAX caveat: SSD residency is tracked per column page, so a row group
// can be partially SSD-resident; the device serving a PAX read is chosen
// by the requested column's page.)
//
// Concurrency (docs/PARALLELISM.md): the DRAM cache is lock-striped over
// kShards shards keyed by page id, so morsel workers fetching different
// chunks rarely contend. Three mechanisms make shared use safe:
//
//  * Pins — FetchPinned, the one way to read a page, returns a PageGuard
//    that holds a per-page pin count; pinned pages are never evicted, so
//    a decode can never race an eviction freeing the owned copy under it.
//  * Miss coalescing — N workers faulting the same I/O unit join one
//    in-flight read (a single device charge, whichever tier serves it);
//    followers block until the leader publishes the page or its final
//    error.
//  * Global capacity — eviction picks the globally oldest unpinned page
//    across shards (per-entry stamps from a shared clock), preserving the
//    single-LRU behavior the accounting tests pin down. The HOT and SSD
//    side structures take their own single mutex each (cold paths only);
//    lock order is shard -> device -> tier map, never nested the other
//    way.
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
  /// Lock stripes. Power of two; 16 keeps cross-chunk contention
  /// negligible at typical core counts.
  static constexpr size_t kShards = 16;
  static_assert(kShards == kBmMetricShards,
                "per-shard metric handles sized for a different stripe "
                "count; update storage_metrics.h");

  /// The cache tiers, hottest first; indexes storage.tier.* metric
  /// handles and tier_stats().
  enum class CacheTier { kHot = 0, kDram = 1, kSsd = 2 };
  static_assert(size_t(CacheTier::kSsd) + 1 == kBmTiers,
                "tier metric handles sized for a different tier count; "
                "update storage_metrics.h");

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

  /// Per-tier counters assembled on demand; see docs/STORAGE_TIERS.md for
  /// the exact semantics per tier. Invariant (from construction, absent
  /// Clear()/ResetStats()): promotions - evictions == resident_entries.
  struct TierStats {
    size_t hits = 0;
    size_t misses = 0;
    size_t promotions = 0;
    size_t writebacks = 0;
    size_t writeback_failures = 0;
    size_t evictions = 0;
    size_t resident_bytes = 0;
    size_t resident_entries = 0;
  };

  // (Two overloads rather than a defaulted TierConfig argument: default
  // arguments are not a complete-class context, so the nested struct's
  // member initializers would not be usable there yet.)
  BufferManager(SimDisk* disk, size_t capacity_bytes, Layout layout)
      : BufferManager(disk, capacity_bytes, layout, TierConfig{}) {}
  BufferManager(SimDisk* disk, size_t capacity_bytes, Layout layout,
                TierConfig tiers)
      : disk_(disk),
        capacity_(capacity_bytes),
        layout_(layout),
        tiers_(tiers),
        ssd_disk_(tiers.ssd) {}
  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

 private:
  struct Key {
    const void* col = nullptr;
    size_t chunk = 0;
    bool operator==(const Key& o) const {
      return col == o.col && chunk == o.chunk;
    }
  };

 public:
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
        bm_->Unpin(key_);
        bm_ = nullptr;
        page_ = nullptr;
      }
    }

   private:
    friend class BufferManager;
    PageGuard(BufferManager* bm, Key key, const AlignedBuffer* page)
        : bm_(bm), key_(key), page_(page) {}
    BufferManager* bm_ = nullptr;
    Key key_{};
    const AlignedBuffer* page_ = nullptr;
  };

  /// Thread-safe fetch of `col`'s chunk `chunk_idx`, pinned against
  /// eviction for the guard's lifetime. Concurrent misses on the same I/O
  /// unit coalesce into a single disk read. Fails with IOError /
  /// Corruption when the page cannot be read intact within the retry
  /// budget.
  Result<PageGuard> FetchPinned(const Table* table, const StoredColumn* col,
                                size_t chunk_idx) {
    StorageMetrics& sm = StorageMetrics::Get();
    const Key key = MakeKey(table, col, chunk_idx);
    int waiter_failures = 0;
    for (;;) {
      if (PageGuard g = TryPinCached(key, col, chunk_idx)) return g;
      // Miss. Coalesce concurrent faults on the same I/O unit: under PAX
      // the unit is the whole row group, so the coalescing key uses a
      // representative column and covers sibling-column misses too.
      const Key ck = layout_ == Layout::kPAX
                         ? Key{table->column(size_t(0)), chunk_idx}
                         : key;
      std::shared_ptr<InFlight> flight;
      bool leader = false;
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        auto it = inflight_.find(ck);
        if (it == inflight_.end()) {
          flight = std::make_shared<InFlight>();
          inflight_.emplace(ck, flight);
          leader = true;
        } else {
          flight = it->second;
        }
      }
      if (!leader) {
        const bool timed = TelemetryEnabled();
        const double wait_start_us = timed ? TraceNowMicros() : 0;
        std::unique_lock<std::mutex> lock(flight->mu);
        flight->cv.wait(lock, [&] { return flight->done; });
        if (timed) {
          sm.bm_coalesced_wait_ns->Observe(
              uint64_t((TraceNowMicros() - wait_start_us) * 1000.0));
        }
        if (flight->status.ok()) {
          // The leader's page: this fetch's one coalesced miss. Evicted
          // again before the pin, the fetch starts over instead.
          if (PageGuard g = TryPinCached(key, col, chunk_idx, true)) return g;
          continue;
        }
        // The leader failed, but its error is not necessarily ours: under
        // PAX faults apply to the leader's column page while this row
        // group's other columns may read fine. Re-attempt our own fetch
        // instead of inheriting the error — each pass through the leader
        // path spends a full retry budget, so bound the passes by the
        // same knob before surfacing the last published error.
        if (waiter_failures++ >= max_read_retries_) {
          CountCoalesced();
          return flight->status;
        }
        continue;
      }
      // Leadership won — but not necessarily a cold page: a thread that
      // missed in the cache before the previous leader's Admit, then
      // checked inflight_ after that leader retired its entry, lands here
      // with the page already resident (second-leader race). Re-check
      // before touching the disk (and again in Admit): a blind re-read
      // would double-charge the disk and Insert a duplicate entry over
      // one whose pins and buffer outstanding PageGuards still use.
      Status st;
      Result<PageGuard> result = Status::OK();
      if (PageGuard g = TryPinCached(key, col, chunk_idx)) {
        result = std::move(g);
      } else {
        misses_.fetch_add(1, std::memory_order_relaxed);
        sm.bm_misses->Increment();
        sm.tier_misses[kDramIdx]->Increment();
        const size_t si = ShardOf(key);
        shards_[si].misses.fetch_add(1, std::memory_order_relaxed);
        sm.bm_shard_misses[si]->Increment();
        AlignedBuffer page;
        bool owned = false;
        st = ReadPage(table, col, chunk_idx, &page, &owned);
        if (st.ok()) {
          result = Admit(table, col, chunk_idx, key, std::move(page), owned);
        } else {
          result = st;
        }
      }
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.erase(ck);
      }
      {
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->done = true;
        flight->status = st;
        flight->cv.notify_all();
      }
      return result;
    }
  }

  /// Warms the cache with `col`'s chunk `chunk_idx` (the async
  /// prefetcher's entry point). Errors are returned but safe to ignore:
  /// failed prefetches are not cached, so the demand fetch retries.
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
    StorageMetrics& sm = StorageMetrics::Get();
    const size_t chunk = row / col->chunk_values;
    const size_t slot = row % col->chunk_values;
    const size_t group = slot / kEntryGroup;
    const size_t gslot = slot % kEntryGroup;
    if (tiers_.hot_capacity_bytes > 0) {
      std::lock_guard<std::mutex> lock(hot_mu_);
      auto it = hot_cache_.find(GroupKey{col, chunk, group});
      if (it != hot_cache_.end()) {
        hot_lru_.splice(hot_lru_.begin(), hot_lru_, it->second.lru_it);
        hot_.hits.fetch_add(1, std::memory_order_relaxed);
        sm.tier_hits[kHotIdx]->Increment();
        T v;
        std::memcpy(&v, it->second.values.data() + gslot * sizeof(T),
                    sizeof(T));
        return v;
      }
    }
    hot_.misses.fetch_add(1, std::memory_order_relaxed);
    sm.tier_misses[kHotIdx]->Increment();
    const bool timed = TelemetryEnabled();
    const double fault_start_us = timed ? TraceNowMicros() : 0;
    SCC_ASSIGN_OR_RETURN(PageGuard guard, FetchPinned(table, col, chunk));
    SCC_ASSIGN_OR_RETURN(SegmentReader<T> reader,
                         SegmentReader<T>::Open(guard->data(), guard->size()));
    const size_t glo = group * kEntryGroup;
    const size_t glen = std::min(kEntryGroup, col->ChunkRows(chunk) - glo);
    AlignedBuffer decoded(glen * sizeof(T));
    reader.DecompressRange(glo, glen, reinterpret_cast<T*>(decoded.data()));
    T v;
    std::memcpy(&v, decoded.data() + gslot * sizeof(T), sizeof(T));
    if (timed) {
      // Hot-tier fault latency is wall time (decode is CPU work, not a
      // simulated device), including the page fix below it.
      sm.tier_fault_ns[kHotIdx]->Observe(
          uint64_t((TraceNowMicros() - fault_start_us) * 1000.0));
    }
    if (tiers_.hot_capacity_bytes > 0) {
      AdmitHotGroup(GroupKey{col, chunk, group}, std::move(decoded));
    }
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
  size_t capacity_bytes() const { return capacity_; }

  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t resident_bytes() const {
    return resident_.load(std::memory_order_relaxed);
  }
  /// Cache entries dropped by LRU pressure since construction or the last
  /// ResetStats(), and the bytes they held.
  size_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t evicted_bytes() const {
    return evicted_bytes_.load(std::memory_order_relaxed);
  }
  /// Bytes charged to the COLD device on cache misses (compressed bytes;
  /// the whole row group under PAX). SSD-tier charges are visible on
  /// ssd_disk() instead, so this stays equal to disk()->bytes_read() in
  /// every configuration.
  size_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  /// Failed page-read attempts (injected I/O errors, truncations, and
  /// checksum mismatches) on ANY tier's device, including attempts that
  /// later succeeded on retry. Mirrors the storage.io_faults registry
  /// counter.
  size_t io_faults() const {
    return io_faults_.load(std::memory_order_relaxed);
  }
  /// Misses that joined another thread's in-flight read instead of
  /// charging the disk themselves. Every FetchPinned ends as exactly one
  /// hit, miss or coalesced miss, so hits() + misses() +
  /// coalesced_misses() == fetches. Mirrors storage.bm.coalesced_misses.
  size_t coalesced_misses() const {
    return coalesced_misses_.load(std::memory_order_relaxed);
  }
  /// Per-stripe cache outcomes (i < kShards); shard_hits + shard_misses
  /// summed over stripes equals hits() + misses() from the leader paths.
  /// Mirrors storage.bm.shard.<i>.hits / .misses.
  size_t shard_hits(size_t i) const {
    return shards_[i].hits.load(std::memory_order_relaxed);
  }
  size_t shard_misses(size_t i) const {
    return shards_[i].misses.load(std::memory_order_relaxed);
  }

  /// Snapshot of one tier's counters (see TierStats for the invariant the
  /// property tests pin down). Mirrors the storage.tier.<t>.* registry
  /// family, which is process-wide and monotonic where these are
  /// per-manager.
  TierStats tier_stats(CacheTier t) const {
    TierStats s;
    switch (t) {
      case CacheTier::kHot: {
        s.hits = hot_.hits.load(std::memory_order_relaxed);
        s.misses = hot_.misses.load(std::memory_order_relaxed);
        s.promotions = hot_.promotions.load(std::memory_order_relaxed);
        s.evictions = hot_.evictions.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(hot_mu_);
        s.resident_bytes = hot_resident_bytes_;
        s.resident_entries = hot_cache_.size();
        break;
      }
      case CacheTier::kDram: {
        s.hits = hits();
        s.misses = misses();
        s.promotions = dram_admissions_.load(std::memory_order_relaxed);
        s.writebacks = dram_writebacks_.load(std::memory_order_relaxed);
        s.writeback_failures =
            dram_writeback_failures_.load(std::memory_order_relaxed);
        s.evictions = evictions();
        s.resident_bytes = resident_bytes();
        s.resident_entries = dram_entries_.load(std::memory_order_relaxed);
        break;
      }
      case CacheTier::kSsd: {
        s.hits = ssd_.hits.load(std::memory_order_relaxed);
        s.misses = ssd_.misses.load(std::memory_order_relaxed);
        s.promotions = ssd_.promotions.load(std::memory_order_relaxed);
        s.evictions = ssd_.evictions.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(ssd_mu_);
        s.resident_bytes = ssd_resident_bytes_;
        s.resident_entries = ssd_cache_.size();
        break;
      }
    }
    return s;
  }

  /// DRAM pages currently held by at least one PageGuard, summed across
  /// shards. A drained system (no scan or point read in flight) must
  /// report 0 — the pin-leak tests assert exactly that after cancelled
  /// and deadline-exceeded queries.
  size_t pinned_pages() const {
    size_t pinned = 0;
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      for (const auto& [key, entry] : sh.cache) {
        if (entry.pins > 0) pinned++;
      }
    }
    return pinned;
  }

  /// Whether `col`'s chunk is resident in the SSD tier (test accessor;
  /// does not touch the tier's LRU).
  bool ssd_resident(const StoredColumn* col, size_t chunk_idx) const {
    std::lock_guard<std::mutex> lock(ssd_mu_);
    return ssd_cache_.find(Key{col, chunk_idx}) != ssd_cache_.end();
  }

  /// Drops every cached page IN EVERY TIER (residency returns to 0) but
  /// KEEPS the statistics: Clear() is "power off the cache", used by
  /// benches to force cold runs while still accounting the full
  /// experiment. Must not run concurrently with fetches holding pins.
  /// (Because dropped entries are not counted as evictions, the
  /// promotions-balance invariant restarts after a Clear.)
  void Clear() {
    StorageMetrics& sm = StorageMetrics::Get();
    for (Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.cache.clear();
      sh.lru.clear();
    }
    resident_.store(0, std::memory_order_relaxed);
    dram_entries_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(hot_mu_);
      hot_cache_.clear();
      hot_lru_.clear();
      hot_resident_bytes_ = 0;
    }
    {
      std::lock_guard<std::mutex> lock(ssd_mu_);
      ssd_cache_.clear();
      ssd_lru_.clear();
      ssd_resident_bytes_ = 0;
    }
    sm.bm_resident_bytes->Set(0);
    sm.tier_resident_bytes[kHotIdx]->Set(0);
    sm.tier_resident_bytes[kDramIdx]->Set(0);
    sm.tier_resident_bytes[kSsdIdx]->Set(0);
  }
  /// Zeroes hit/miss/eviction/bytes counters (including the per-tier
  /// flow counters) but KEEPS the cache contents: ResetStats() is "start
  /// a fresh measurement window" against a warm cache. Process-wide
  /// storage.* registry counters are monotonic and unaffected; diff
  /// MetricsRegistry snapshots for windowed readings.
  void ResetStats() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    evicted_bytes_.store(0, std::memory_order_relaxed);
    bytes_read_.store(0, std::memory_order_relaxed);
    io_faults_.store(0, std::memory_order_relaxed);
    coalesced_misses_.store(0, std::memory_order_relaxed);
    dram_admissions_.store(0, std::memory_order_relaxed);
    dram_writebacks_.store(0, std::memory_order_relaxed);
    dram_writeback_failures_.store(0, std::memory_order_relaxed);
    hot_.ResetFlow();
    ssd_.ResetFlow();
    for (Shard& sh : shards_) {
      sh.hits.store(0, std::memory_order_relaxed);
      sh.misses.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr size_t kHotIdx = size_t(CacheTier::kHot);
  static constexpr size_t kDramIdx = size_t(CacheTier::kDram);
  static constexpr size_t kSsdIdx = size_t(CacheTier::kSsd);

  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<const void*>()(k.col) * 1000003u ^
             std::hash<size_t>()(k.chunk);
    }
  };
  struct Entry {
    std::list<Key>::iterator lru_it;
    size_t bytes = 0;
    AlignedBuffer page;  // owned copy when `owned`; empty otherwise
    bool owned = false;
    uint32_t pins = 0;
    uint64_t stamp = 0;  // global LRU clock at last touch
  };
  struct Shard {
    mutable std::mutex mu;  // mutable: const accessors (pinned_pages) lock
    std::unordered_map<Key, Entry, KeyHash> cache;
    std::list<Key> lru;  // front = most recent within this shard
    // Per-stripe outcome counters (mirrored into storage.bm.shard.<i>.*)
    // so a skewed key distribution shows up as a hot stripe.
    std::atomic<size_t> hits{0};
    std::atomic<size_t> misses{0};
  };
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
  };
  /// Flow counters for the HOT and SSD side tiers (DRAM reuses the
  /// historical atomics so the legacy accessors stay exact).
  struct TierCounters {
    std::atomic<size_t> hits{0};
    std::atomic<size_t> misses{0};
    std::atomic<size_t> promotions{0};
    std::atomic<size_t> evictions{0};
    void ResetFlow() {
      hits.store(0, std::memory_order_relaxed);
      misses.store(0, std::memory_order_relaxed);
      promotions.store(0, std::memory_order_relaxed);
      evictions.store(0, std::memory_order_relaxed);
    }
  };
  /// Hot-tier key: one decoded 128-value group of one column chunk.
  struct GroupKey {
    const void* col = nullptr;
    size_t chunk = 0;
    size_t group = 0;
    bool operator==(const GroupKey& o) const {
      return col == o.col && chunk == o.chunk && group == o.group;
    }
  };
  struct GroupKeyHash {
    size_t operator()(const GroupKey& k) const {
      return (std::hash<const void*>()(k.col) * 1000003u ^
              std::hash<size_t>()(k.chunk)) *
                 1000003u ^
             std::hash<size_t>()(k.group);
    }
  };
  struct HotEntry {
    std::list<GroupKey>::iterator lru_it;
    AlignedBuffer values;  // glen decoded values, owned
  };
  struct SsdEntry {
    std::list<Key>::iterator lru_it;
    size_t bytes = 0;  // compressed page size (residency accounting only)
  };

  static Key MakeKey(const Table*, const StoredColumn* col, size_t chunk) {
    return Key{col, chunk};
  }
  size_t ShardOf(const Key& key) const {
    return KeyHash()(key) & (kShards - 1);
  }
  bool ssd_enabled() const { return tiers_.ssd_capacity_bytes > 0; }

  /// Caller holds sh.mu.
  void Touch(Shard& sh, Entry& e) {
    sh.lru.splice(sh.lru.begin(), sh.lru, e.lru_it);
    e.stamp = clock_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Pins `key`'s entry and returns a guard on it when cached; an empty
  /// guard means the key is absent. A pin counts as a hit, or with
  /// `coalesced` as a coalesced miss: a waiter pinning the page its
  /// leader read. Takes the shard lock.
  PageGuard TryPinCached(const Key& key, const StoredColumn* col,
                         size_t chunk_idx, bool coalesced = false) {
    const size_t si = ShardOf(key);
    Shard& sh = shards_[si];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.cache.find(key);
    if (it == sh.cache.end()) return PageGuard();
    if (coalesced) {
      CountCoalesced();
    } else {
      hits_.fetch_add(1, std::memory_order_relaxed);
      sh.hits.fetch_add(1, std::memory_order_relaxed);
      StorageMetrics::Get().bm_hits->Increment();
      StorageMetrics::Get().tier_hits[kDramIdx]->Increment();
      StorageMetrics::Get().bm_shard_hits[si]->Increment();
    }
    Touch(sh, it->second);
    it->second.pins++;
    return PageGuard(this, key,
                     it->second.owned ? &it->second.page
                                      : &col->chunks[chunk_idx]);
  }

  void CountCoalesced() {
    coalesced_misses_.fetch_add(1, std::memory_order_relaxed);
    StorageMetrics::Get().bm_coalesced_misses->Increment();
  }

  /// True when `key` is SSD-resident; with `touch`, also freshens its
  /// position in the tier's LRU.
  bool SsdLookup(const Key& key, bool touch) {
    if (!ssd_enabled()) return false;
    std::lock_guard<std::mutex> lock(ssd_mu_);
    auto it = ssd_cache_.find(key);
    if (it == ssd_cache_.end()) return false;
    if (touch) ssd_lru_.splice(ssd_lru_.begin(), ssd_lru_, it->second.lru_it);
    return true;
  }

  /// Drops `key` from the SSD tier (permanent read failure: the copy is
  /// treated as lost media, so the next fetch falls back cold).
  void DropSsd(const Key& key) {
    if (!ssd_enabled()) return;
    std::lock_guard<std::mutex> lock(ssd_mu_);
    auto it = ssd_cache_.find(key);
    if (it == ssd_cache_.end()) return;
    ssd_resident_bytes_ -= it->second.bytes;
    ssd_lru_.erase(it->second.lru_it);
    ssd_cache_.erase(it);
    ssd_.evictions.fetch_add(1, std::memory_order_relaxed);
    StorageMetrics& sm = StorageMetrics::Get();
    sm.tier_evictions[kSsdIdx]->Increment();
    sm.tier_resident_bytes[kSsdIdx]->Set(int64_t(ssd_resident_bytes_));
  }

  /// The miss read path: charges the serving device per attempt and
  /// retries failed reads. A page resident in the SSD tier is served (and
  /// charged) there; everything else reads from the cold device. On
  /// success `*page`/`*owned` describe what to cache. Runs without any
  /// shard lock held; SimDisk serializes device access internally.
  Status ReadPage(const Table* table, const StoredColumn* col,
                  size_t chunk_idx, AlignedBuffer* page, bool* owned) {
    StorageMetrics& sm = StorageMetrics::Get();
    const Key key = MakeKey(table, col, chunk_idx);
    const AlignedBuffer& src = col->chunks[chunk_idx];
    // Tier resolution happens once per page read, not per retry: a read
    // that starts on the SSD tier retries there (like a controller
    // retrying the same medium) until it gives up and drops the copy.
    const bool from_ssd = SsdLookup(key, /*touch=*/true);
    if (ssd_enabled()) {
      if (from_ssd) {
        ssd_.hits.fetch_add(1, std::memory_order_relaxed);
        sm.tier_hits[kSsdIdx]->Increment();
      } else {
        ssd_.misses.fetch_add(1, std::memory_order_relaxed);
        sm.tier_misses[kSsdIdx]->Increment();
      }
    }
    SimDisk* dev = from_ssd ? &ssd_disk_ : disk_;
    const bool guarded = dev->faults() != nullptr || verify_checksums_;
    Status last = Status::OK();
    for (int attempt = 0; attempt <= max_read_retries_; attempt++) {
      // Charge the I/O unit. Retries re-read (and re-charge) the device.
      const size_t unit_bytes = layout_ == Layout::kDSM
                                    ? src.size()
                                    : table->RowGroupBytes(chunk_idx);
      Status st;
      if (guarded) {
        // PAX simplification: the whole row group is charged as one I/O
        // but faults/verification apply to the requested column's page —
        // sibling columns get their own guarded read when first fetched.
        if (layout_ == Layout::kDSM) {
          st = dev->ReadChunkInto(src.data(), src.size(), page);
        } else {
          // Charge the row group and run the column's faulted copy inside
          // the device's critical section, so concurrent readers see the
          // injector's fault sequence at whole-read granularity.
          st = dev->WithLockedFaults(unit_bytes, [&](FaultInjector* f) {
            return MaterializeFaulted(f, src, page);
          });
        }
        if (st.ok() && page->size() != src.size()) {
          st = Status::Corruption("short page read: got " +
                                  std::to_string(page->size()) + " of " +
                                  std::to_string(src.size()) + " bytes");
        }
        if (st.ok() && verify_checksums_) {
          st = VerifySegmentChecksums(page->data(), page->size());
        }
      } else {
        dev->ReadChunk(unit_bytes);
      }
      // The DRAM fault pays whichever device served it; an SSD-tier miss
      // additionally records the cold device's latency as the penalty of
      // not being flash-resident. Simulated time, derived from the model
      // (not wall clock), so histograms are deterministic.
      const uint64_t sim_ns = uint64_t(
          SimDisk::TransferSeconds(dev->config(), unit_bytes) * 1e9);
      sm.tier_fault_ns[kDramIdx]->Observe(sim_ns);
      if (ssd_enabled() && !from_ssd) {
        sm.tier_fault_ns[kSsdIdx]->Observe(sim_ns);
      }
      if (!from_ssd) {
        bytes_read_.fetch_add(unit_bytes, std::memory_order_relaxed);
        sm.bm_bytes_read->Add(unit_bytes);
      }
      if (!st.ok()) {
        io_faults_.fetch_add(1, std::memory_order_relaxed);
        sm.io_faults->Increment();
        last = st;
        continue;
      }
      *owned = guarded;
      return Status::OK();
    }
    if (from_ssd) DropSsd(key);
    return last;
  }

  /// Inserts the fetched page (pinned for the caller) plus, under PAX,
  /// pass-through entries for the row group's sibling columns.
  PageGuard Admit(const Table* table, const StoredColumn* col,
                  size_t chunk_idx, const Key& key, AlignedBuffer&& page,
                  bool owned) {
    const AlignedBuffer& src = col->chunks[chunk_idx];
    const AlignedBuffer* result;
    {
      EnsureCapacity(src.size());
      Shard& sh = shards_[ShardOf(key)];
      std::lock_guard<std::mutex> lock(sh.mu);
      auto it = sh.cache.find(key);
      if (it != sh.cache.end()) {
        // Defense in depth against an uncoalesced duplicate read (the
        // coalescing recheck in FetchPinned should make this
        // unreachable): keep the live entry — outstanding guards own its
        // pins and point into its buffer — and drop the fresh copy.
        Touch(sh, it->second);
        it->second.pins++;
        result = it->second.owned ? &it->second.page : &src;
      } else {
        Entry& e = Insert(sh, key, src.size(), std::move(page), owned);
        e.pins++;
        result = e.owned ? &e.page : &src;
      }
    }
    if (layout_ == Layout::kPAX) {
      // Register the rest of the row group as cached (pass-through
      // entries aliasing pristine memory; see the PAX note above). Shards
      // are locked one at a time — no nesting, no ordering concerns.
      for (size_t c = 0; c < table->column_count(); c++) {
        const StoredColumn* other = table->column(c);
        if (other == col) continue;
        Key k2 = MakeKey(table, other, chunk_idx);
        const size_t bytes = other->chunks[chunk_idx].size();
        EnsureCapacity(bytes);
        Shard& sh2 = shards_[ShardOf(k2)];
        std::lock_guard<std::mutex> lock(sh2.mu);
        if (sh2.cache.find(k2) == sh2.cache.end()) {
          Insert(sh2, k2, bytes, AlignedBuffer(), /*owned=*/false);
        }
      }
    }
    StorageMetrics::Get().bm_resident_bytes->Set(
        int64_t(resident_.load(std::memory_order_relaxed)));
    StorageMetrics::Get().tier_resident_bytes[kDramIdx]->Set(
        int64_t(resident_.load(std::memory_order_relaxed)));
    return PageGuard(this, key, result);
  }

  void Unpin(const Key& key) {
    Shard& sh = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.cache.find(key);
    if (it != sh.cache.end() && it->second.pins > 0) it->second.pins--;
    // A missing entry means Clear() ran with the pin outstanding; the
    // guard's pointer was already invalid then, nothing to do here.
  }

  /// Evicts globally-oldest unpinned pages until `incoming` fits,
  /// demoting each victim toward the SSD tier (writeback) after its shard
  /// lock is released. An item larger than the whole capacity still gets
  /// admitted after the cache empties out: the buffer manager overcommits
  /// rather than refuse service, so resident_ may exceed capacity_ (by
  /// one item, or briefly by one item per concurrent inserter). Callers
  /// see overcommitted items evicted first on the next insert under
  /// pressure. Holds at most one shard lock at a time, and never a shard
  /// lock across the writeback IO.
  void EnsureCapacity(size_t incoming) {
    StorageMetrics& sm = StorageMetrics::Get();
    while (resident_.load(std::memory_order_relaxed) + incoming >
           capacity_) {
      // Pick the shard whose oldest unpinned entry is globally oldest.
      size_t victim_shard = SIZE_MAX;
      uint64_t victim_stamp = UINT64_MAX;
      for (size_t s = 0; s < kShards; s++) {
        std::lock_guard<std::mutex> lock(shards_[s].mu);
        for (auto rit = shards_[s].lru.rbegin();
             rit != shards_[s].lru.rend(); ++rit) {
          auto it = shards_[s].cache.find(*rit);
          if (it == shards_[s].cache.end() || it->second.pins > 0) continue;
          if (it->second.stamp < victim_stamp) {
            victim_stamp = it->second.stamp;
            victim_shard = s;
          }
          break;  // only the shard's oldest unpinned entry competes
        }
      }
      if (victim_shard == SIZE_MAX) return;  // all pinned/empty: overcommit
      bool evicted = false;
      Key victim_key{};
      size_t victim_bytes = 0;
      {
        Shard& sh = shards_[victim_shard];
        std::lock_guard<std::mutex> lock(sh.mu);
        // Re-scan under the lock; the candidate may have been touched,
        // pinned, or evicted since the peek. Evict the shard's oldest
        // unpinned entry if one still exists, else retry the outer loop.
        for (auto rit = sh.lru.rbegin(); rit != sh.lru.rend(); ++rit) {
          auto it = sh.cache.find(*rit);
          if (it == sh.cache.end() || it->second.pins > 0) continue;
          victim_key = *rit;
          victim_bytes = it->second.bytes;
          resident_.fetch_sub(victim_bytes, std::memory_order_relaxed);
          dram_entries_.fetch_sub(1, std::memory_order_relaxed);
          evictions_.fetch_add(1, std::memory_order_relaxed);
          evicted_bytes_.fetch_add(victim_bytes, std::memory_order_relaxed);
          sm.bm_evictions->Increment();
          sm.tier_evictions[kDramIdx]->Increment();
          sm.bm_evicted_bytes->Add(victim_bytes);
          // Victim age in LRU-clock ticks (touches since this entry was
          // last used). A distribution clustered near zero means churn:
          // pages are evicted almost as soon as they stop being used.
          sm.bm_eviction_age->Observe(
              clock_.load(std::memory_order_relaxed) - it->second.stamp);
          sh.lru.erase(it->second.lru_it);
          sh.cache.erase(it);
          evicted = true;
          break;
        }
      }
      // Writeback outside the shard lock: the demotion charges the SSD
      // device (a blocking simulated IO) and takes the tier map's mutex.
      if (evicted) DemoteToSsd(victim_key, victim_bytes);
    }
  }

  /// Demotes an evicted DRAM page toward the SSD tier. Compressed pages
  /// are immutable, so an already-resident page needs no new IO (the tier
  /// is inclusive below DRAM); otherwise one writeback IO is charged, and
  /// a torn or oversized write drops the demotion — the page is simply
  /// cold again, re-readable from the cold device.
  void DemoteToSsd(const Key& key, size_t bytes) {
    if (!ssd_enabled()) return;
    StorageMetrics& sm = StorageMetrics::Get();
    if (SsdLookup(key, /*touch=*/true)) return;  // still resident below
    dram_writebacks_.fetch_add(1, std::memory_order_relaxed);
    sm.tier_writebacks[kDramIdx]->Increment();
    if (bytes > tiers_.ssd_capacity_bytes) {
      // Larger than the whole tier: skip the doomed IO.
      dram_writeback_failures_.fetch_add(1, std::memory_order_relaxed);
      sm.tier_writeback_failures[kDramIdx]->Increment();
      return;
    }
    const size_t persisted = ssd_disk_.WriteChunk(bytes);
    if (persisted != bytes) {
      // Torn write: the flash copy is incomplete, do not admit it.
      dram_writeback_failures_.fetch_add(1, std::memory_order_relaxed);
      sm.tier_writeback_failures[kDramIdx]->Increment();
      return;
    }
    std::lock_guard<std::mutex> lock(ssd_mu_);
    if (ssd_cache_.find(key) != ssd_cache_.end()) return;  // raced demote
    while (ssd_resident_bytes_ + bytes > tiers_.ssd_capacity_bytes &&
           !ssd_lru_.empty()) {
      auto it = ssd_cache_.find(ssd_lru_.back());
      ssd_resident_bytes_ -= it->second.bytes;
      ssd_lru_.pop_back();
      ssd_cache_.erase(it);
      ssd_.evictions.fetch_add(1, std::memory_order_relaxed);
      sm.tier_evictions[kSsdIdx]->Increment();
    }
    ssd_lru_.push_front(key);
    ssd_cache_[key] = SsdEntry{ssd_lru_.begin(), bytes};
    ssd_resident_bytes_ += bytes;
    ssd_.promotions.fetch_add(1, std::memory_order_relaxed);
    sm.tier_promotions[kSsdIdx]->Increment();
    sm.tier_resident_bytes[kSsdIdx]->Set(int64_t(ssd_resident_bytes_));
  }

  /// Admits one decoded group into the hot tier (evicting LRU groups to
  /// make room). Decoded groups are clean — derivable from the compressed
  /// page at any time — so eviction is a plain drop, no writeback.
  void AdmitHotGroup(const GroupKey& key, AlignedBuffer&& values) {
    StorageMetrics& sm = StorageMetrics::Get();
    const size_t bytes = values.size();
    if (bytes > tiers_.hot_capacity_bytes) return;  // oversized: skip
    std::lock_guard<std::mutex> lock(hot_mu_);
    if (hot_cache_.find(key) != hot_cache_.end()) return;  // raced admit
    while (hot_resident_bytes_ + bytes > tiers_.hot_capacity_bytes &&
           !hot_lru_.empty()) {
      auto it = hot_cache_.find(hot_lru_.back());
      hot_resident_bytes_ -= it->second.values.size();
      hot_lru_.pop_back();
      hot_cache_.erase(it);
      hot_.evictions.fetch_add(1, std::memory_order_relaxed);
      sm.tier_evictions[kHotIdx]->Increment();
    }
    hot_lru_.push_front(key);
    hot_cache_[key] = HotEntry{hot_lru_.begin(), std::move(values)};
    hot_resident_bytes_ += bytes;
    hot_.promotions.fetch_add(1, std::memory_order_relaxed);
    sm.tier_promotions[kHotIdx]->Increment();
    sm.tier_resident_bytes[kHotIdx]->Set(int64_t(hot_resident_bytes_));
  }

  /// Copies `src` through the fault injector without charging the disk
  /// (the caller already charged the I/O unit, and holds the device lock
  /// via WithLockedFaults).
  static Status MaterializeFaulted(FaultInjector* f, const AlignedBuffer& src,
                                   AlignedBuffer* out) {
    out->Resize(src.size());
    if (src.size() > 0) std::memcpy(out->data(), src.data(), src.size());
    if (f != nullptr) {
      size_t got = src.size();
      SCC_RETURN_NOT_OK(f->OnRead(out->data(), &got));
      if (got != src.size()) out->Resize(got);
    }
    return Status::OK();
  }

  /// Caller holds sh.mu and ran EnsureCapacity. Returns the admitted
  /// entry (address stable until eviction: node-based map). Every DRAM
  /// admission — demand faults and PAX pass-through siblings alike —
  /// counts as a tier promotion, matching the evictions above so the
  /// balance invariant holds.
  Entry& Insert(Shard& sh, const Key& key, size_t bytes, AlignedBuffer&& page,
                bool owned) {
    sh.lru.push_front(key);
    Entry& e = sh.cache[key];
    e = Entry{sh.lru.begin(), bytes, std::move(page), owned, /*pins=*/0,
              clock_.fetch_add(1, std::memory_order_relaxed)};
    resident_.fetch_add(bytes, std::memory_order_relaxed);
    dram_entries_.fetch_add(1, std::memory_order_relaxed);
    dram_admissions_.fetch_add(1, std::memory_order_relaxed);
    StorageMetrics::Get().tier_promotions[kDramIdx]->Increment();
    return e;
  }

  SimDisk* disk_;
  size_t capacity_;
  Layout layout_;
  TierConfig tiers_;
  SimDisk ssd_disk_;  // the SSD tier's private device
  bool verify_checksums_ = false;
  int max_read_retries_ = 2;

  Shard shards_[kShards];
  std::mutex inflight_mu_;
  std::unordered_map<Key, std::shared_ptr<InFlight>, KeyHash> inflight_;

  // HOT tier: decoded groups. Cold-path only (ReadValue faults), so one
  // mutex suffices.
  mutable std::mutex hot_mu_;
  std::unordered_map<GroupKey, HotEntry, GroupKeyHash> hot_cache_;
  std::list<GroupKey> hot_lru_;  // front = most recent
  size_t hot_resident_bytes_ = 0;
  TierCounters hot_;

  // SSD tier: residency map over ssd_disk_. Touched on DRAM misses and
  // evictions only.
  mutable std::mutex ssd_mu_;
  std::unordered_map<Key, SsdEntry, KeyHash> ssd_cache_;
  std::list<Key> ssd_lru_;  // front = most recent
  size_t ssd_resident_bytes_ = 0;
  TierCounters ssd_;

  std::atomic<uint64_t> clock_{0};
  std::atomic<size_t> resident_{0};
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> evictions_{0};
  std::atomic<size_t> evicted_bytes_{0};
  std::atomic<size_t> bytes_read_{0};
  std::atomic<size_t> io_faults_{0};
  std::atomic<size_t> coalesced_misses_{0};
  std::atomic<size_t> dram_entries_{0};
  std::atomic<size_t> dram_admissions_{0};
  std::atomic<size_t> dram_writebacks_{0};
  std::atomic<size_t> dram_writeback_failures_{0};
};

}  // namespace scc

#endif  // SCC_STORAGE_BUFFER_MANAGER_H_
