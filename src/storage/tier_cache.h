#ifndef SCC_STORAGE_TIER_CACHE_H_
#define SCC_STORAGE_TIER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/storage_metrics.h"
#include "util/status.h"

// One tier of the buffer manager (docs/STORAGE_TIERS.md): an LRU of
// byte-sized entries in a variable-size cache array, after the paper's
// ColumnBM (Figure 1). The buffer manager keeps three instances — decoded
// groups (hot), compressed pages (DRAM) and flash residency (SSD) — and
// everything about caching that they share lives here:
//
//  * Lock striping. Entries hash to a fixed number of shards, each with
//    its own mutex, index and recency list.
//  * Global LRU. Every touch stamps the entry from one clock shared by
//    the shards, so MakeSpace can pick the globally oldest unpinned entry
//    while holding one shard lock at a time.
//  * Pins. A pinned entry is never a victim; when everything is pinned
//    the cache overcommits rather than refuse an insert.
//  * Counters. The tier's TierStats live here once, and every event is
//    recorded by one call into both the per-object count and its
//    storage.tier.<t>.* registry handle. The resident_bytes gauge takes
//    each cache's deltas, so it sums every live cache of the tier.

namespace scc {

/// The cache tiers, hottest first; indexes the storage.tier.* registry
/// handles and BufferManager::tier_stats().
enum class CacheTier { kHot = 0, kDram = 1, kSsd = 2 };
static_assert(size_t(CacheTier::kSsd) + 1 == kBmTiers,
              "tier metric handles sized for a different tier count; "
              "update storage_metrics.h");

/// One tier's counters. Invariant (from construction, absent Clear() and
/// ResetStats()): promotions - evictions == resident_entries.
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

/// (column, chunk, group): a compressed page is group 0 of its chunk; the
/// hot tier keys one decoded 128-value group.
struct TierKey {
  const void* col = nullptr;
  size_t chunk = 0;
  size_t group = 0;
  bool operator==(const TierKey&) const = default;
};

struct TierKeyHash {
  size_t operator()(const TierKey& k) const {
    return std::hash<const void*>()(k.col) * 1000003u ^
           std::hash<size_t>()(k.chunk) ^
           std::hash<size_t>()(k.group) * 0x9e3779b97f4a7c15ull;
  }
};

template <typename Value>
class TierCache {
 public:
  /// An entry MakeSpace evicted, handed to its caller outside every lock.
  struct Victim {
    TierKey key;
    Value value;
    size_t bytes = 0;
    uint64_t age = 0;  // clock ticks since the entry was last touched
  };

  /// `shards` is a power of two. `tier` picks the registry handles.
  TierCache(CacheTier tier, size_t capacity_bytes, size_t shards)
      : capacity_(capacity_bytes),
        mask_(shards - 1),
        shards_(shards),
        hits_(StorageMetrics::Get().tier_hits[size_t(tier)]),
        misses_(StorageMetrics::Get().tier_misses[size_t(tier)]),
        promotions_(StorageMetrics::Get().tier_promotions[size_t(tier)]),
        writebacks_(StorageMetrics::Get().tier_writebacks[size_t(tier)]),
        writeback_failures_(
            StorageMetrics::Get().tier_writeback_failures[size_t(tier)]),
        evictions_(StorageMetrics::Get().tier_evictions[size_t(tier)]),
        resident_gauge_(
            StorageMetrics::Get().tier_resident_bytes[size_t(tier)]),
        fault_ns_(StorageMetrics::Get().tier_fault_ns[size_t(tier)]) {
    SCC_CHECK(shards > 0 && (shards & mask_) == 0,
              "TierCache shard count must be a power of two");
  }
  TierCache(const TierCache&) = delete;
  TierCache& operator=(const TierCache&) = delete;
  /// Takes what the tier still holds out of the process-wide gauge.
  ~TierCache() {
    resident_gauge_->Add(
        -int64_t(resident_bytes_.load(std::memory_order_relaxed)));
  }

  size_t capacity() const { return capacity_; }
  size_t ShardOf(const TierKey& key) const {
    return TierKeyHash()(key) & mask_;
  }

  /// When `key` is cached: freshens its LRU stamp, pins it if `pin`
  /// (release with Unpin), calls fn(value) under the shard lock and
  /// returns true.
  template <typename Fn>
  bool Find(const TierKey& key, bool pin, Fn&& fn) {
    Shard& sh = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.index.find(key);
    if (it == sh.index.end()) return false;
    Touch(sh, it->second);
    if (pin) it->second->pins++;
    fn(it->second->value);
    return true;
  }
  bool Touch(const TierKey& key) {
    return Find(key, false, [](const Value&) {});
  }
  /// Residency check that leaves the LRU order alone.
  bool Contains(const TierKey& key) const {
    const Shard& sh = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(sh.mu);
    return sh.index.count(key) > 0;
  }
  void Unpin(const TierKey& key) {
    Shard& sh = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.index.find(key);
    // A missing entry means Clear() ran with the pin outstanding.
    if (it != sh.index.end() && it->second->pins > 0) it->second->pins--;
  }

  /// Evicts globally oldest unpinned entries until `incoming` more bytes
  /// fit, handing each to on_evict(Victim&&) after its shard lock is
  /// released. Stops early when every entry is pinned: the cache then
  /// overcommits (by one item, or briefly by one per concurrent inserter),
  /// and the overcommitted items are the first victims under the next
  /// pressure.
  template <typename OnEvict>
  void MakeSpace(size_t incoming, OnEvict&& on_evict) {
    while (resident_bytes_.load(std::memory_order_relaxed) + incoming >
           capacity_) {
      // Only each shard's oldest unpinned entry competes.
      size_t victim_shard = SIZE_MAX;
      uint64_t victim_stamp = UINT64_MAX;
      for (size_t s = 0; s < shards_.size(); s++) {
        std::lock_guard<std::mutex> lock(shards_[s].mu);
        auto it = OldestUnpinned(shards_[s]);
        if (it != shards_[s].lru.end() && it->stamp < victim_stamp) {
          victim_stamp = it->stamp;
          victim_shard = s;
        }
      }
      if (victim_shard == SIZE_MAX) return;  // all pinned or empty
      Victim victim{};
      {
        // The candidate may have been touched, pinned or evicted since
        // the peek: evict the shard's oldest unpinned entry if one still
        // exists, else look again.
        Shard& sh = shards_[victim_shard];
        std::lock_guard<std::mutex> lock(sh.mu);
        auto it = OldestUnpinned(sh);
        if (it == sh.lru.end()) continue;
        victim = Victim{it->key, std::move(it->value), it->bytes,
                        clock_.load(std::memory_order_relaxed) - it->stamp};
        Unlink(sh, it);
      }
      on_evict(std::move(victim));
    }
  }

  /// Inserts `key` unless it is already cached; the caller ran MakeSpace.
  /// A live entry keeps its value and counts no promotion. With `pin`, the
  /// resulting entry is pinned (and a live one touched). Returns the
  /// entry's value, valid while it is pinned, and whether it is new.
  std::pair<Value*, bool> Insert(const TierKey& key, size_t bytes,
                                 Value value, bool pin) {
    Shard& sh = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      if (pin) {
        Touch(sh, it->second);
        it->second->pins++;
      }
      return {&it->second->value, false};
    }
    sh.lru.push_front(Entry{key, std::move(value), bytes, pin ? 1u : 0u,
                            clock_.fetch_add(1, std::memory_order_relaxed)});
    sh.index.emplace(key, sh.lru.begin());
    Entry& e = sh.lru.front();
    Resize(1, int64_t(bytes));
    promotions_.Add();
    return {&e.value, true};
  }

  /// Insert for a tier whose victims are simply dropped: an entry larger
  /// than the whole tier, or a key already cached, is not admitted
  /// (returns false) and evicts nothing.
  bool Admit(const TierKey& key, size_t bytes, Value value) {
    if (bytes > capacity_ || Contains(key)) return false;
    MakeSpace(bytes, [](Victim&&) {});
    return Insert(key, bytes, std::move(value), /*pin=*/false).second;
  }

  /// Drops `key`, counted as an eviction, whatever its pins (for tiers
  /// that do not pin). False when it was not cached.
  bool Erase(const TierKey& key) {
    Shard& sh = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.index.find(key);
    if (it == sh.index.end()) return false;
    Unlink(sh, it->second);
    return true;
  }

  /// Drops every entry but keeps the counters; dropped entries are not
  /// evictions, so the promotions balance restarts. Must not run while
  /// entries are pinned.
  void Clear() {
    for (Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      int64_t bytes = 0;
      for (const Entry& e : sh.lru) bytes += int64_t(e.bytes);
      Resize(-int64_t(sh.lru.size()), -bytes);
      sh.index.clear();
      sh.lru.clear();
    }
  }
  /// Zeroes the flow counters but keeps the entries.
  void ResetStats() {
    for (Flow* f : {&hits_, &misses_, &promotions_, &writebacks_,
                    &writeback_failures_, &evictions_}) {
      f->Reset();
    }
  }

  void CountHit() { hits_.Add(); }
  void CountMiss() { misses_.Add(); }
  void CountWriteback() { writebacks_.Add(); }
  void CountWritebackFailure() { writeback_failures_.Add(); }
  /// Cost of one fault filling this tier, into storage.tier.<t>.fault_ns.
  void ObserveFault(uint64_t ns) { fault_ns_->Observe(ns); }

  TierStats stats() const {
    TierStats s;
    s.hits = hits_.Get();
    s.misses = misses_.Get();
    s.promotions = promotions_.Get();
    s.writebacks = writebacks_.Get();
    s.writeback_failures = writeback_failures_.Get();
    s.evictions = evictions_.Get();
    s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
    s.resident_entries = resident_entries_.load(std::memory_order_relaxed);
    return s;
  }
  /// Entries held by at least one pin.
  size_t pinned() const {
    size_t n = 0;
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      for (const Entry& e : sh.lru) n += e.pins > 0;
    }
    return n;
  }

 private:
  struct Entry {
    TierKey key;
    Value value;
    size_t bytes = 0;
    uint32_t pins = 0;
    uint64_t stamp = 0;  // clock_ at the last touch
  };
  // Entries live in the recency list, so the victim search walks it
  // without a hash lookup per entry; the index maps keys into it.
  using Lru = std::list<Entry>;  // front = most recent within the shard
  struct Shard {
    mutable std::mutex mu;
    Lru lru;
    std::unordered_map<TierKey, typename Lru::iterator, TierKeyHash> index;
  };
  /// Caller holds sh.mu.
  void Touch(Shard& sh, typename Lru::iterator it) {
    sh.lru.splice(sh.lru.begin(), sh.lru, it);
    it->stamp = clock_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Caller holds sh.mu.
  static typename Lru::iterator OldestUnpinned(Shard& sh) {
    for (auto it = sh.lru.end(); it != sh.lru.begin();) {
      if ((--it)->pins == 0) return it;
    }
    return sh.lru.end();
  }
  /// Caller holds sh.mu. Removes the entry as an eviction.
  void Unlink(Shard& sh, typename Lru::iterator it) {
    Resize(-1, -int64_t(it->bytes));
    evictions_.Add();
    sh.index.erase(it->key);
    sh.lru.erase(it);
  }
  /// Moves the residency counts, and the process-wide gauge that sums
  /// every TierCache of this tier, by the same delta.
  void Resize(int64_t entries, int64_t bytes) {
    resident_entries_.fetch_add(size_t(entries), std::memory_order_relaxed);
    resident_bytes_.fetch_add(size_t(bytes), std::memory_order_relaxed);
    resident_gauge_->Add(bytes);
  }

  const size_t capacity_;
  const size_t mask_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> clock_{0};
  std::atomic<size_t> resident_bytes_{0};
  std::atomic<size_t> resident_entries_{0};
  Flow hits_, misses_, promotions_, writebacks_, writeback_failures_,
      evictions_;
  Gauge* const resident_gauge_;
  Histogram* const fault_ns_;
};

}  // namespace scc

#endif  // SCC_STORAGE_TIER_CACHE_H_
