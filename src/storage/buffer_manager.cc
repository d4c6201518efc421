#include "storage/buffer_manager.h"

#include <numeric>

namespace scc {

BufferManager::BufferManager(SimDisk* disk, size_t capacity_bytes,
                             Layout layout, TierConfig tiers)
    : disk_(disk),
      layout_(layout),
      tiers_(tiers),
      ssd_disk_(tiers.ssd),
      hot_(CacheTier::kHot, tiers.hot_capacity_bytes, 1),
      dram_(CacheTier::kDram, capacity_bytes, kShards),
      ssd_(CacheTier::kSsd, tiers.ssd_capacity_bytes, 1),
      hot_slab_(tiers.hot_capacity_bytes / kHotSlotBytes * kHotSlotBytes),
      evicted_bytes_(StorageMetrics::Get().bm_evicted_bytes),
      bytes_read_(StorageMetrics::Get().bm_bytes_read),
      io_faults_(StorageMetrics::Get().io_faults),
      coalesced_misses_(StorageMetrics::Get().bm_coalesced_misses) {
  FreeAllHotSlots();
}

Result<BufferManager::PageGuard> BufferManager::FetchPinned(
    const Table* table, const StoredColumn* col, size_t chunk_idx) {
  StorageMetrics& sm = StorageMetrics::Get();
  const TierKey key{col, chunk_idx};
  int waiter_failures = 0;
  for (;;) {
    if (PageGuard g = TryPinCached(key)) return g;
    // Miss. Coalesce concurrent faults on the same I/O unit: under PAX
    // the unit is the whole row group, so the coalescing key uses a
    // representative column and covers sibling-column misses too.
    const TierKey ck = layout_ == Layout::kPAX
                           ? TierKey{table->column(size_t(0)), chunk_idx}
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
        if (PageGuard g = TryPinCached(key, /*coalesced=*/true)) return g;
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
    // would double-charge the disk and admit a duplicate entry over one
    // whose pins and buffer outstanding PageGuards still use.
    Status st;
    Result<PageGuard> result = Status::OK();
    if (PageGuard g = TryPinCached(key)) {
      result = std::move(g);
    } else {
      dram_.CountMiss();
      sm.bm_shard_misses[dram_.ShardOf(key)]->Increment();
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

BufferManager::TierStats BufferManager::tier_stats(CacheTier t) const {
  if (t == CacheTier::kHot) return hot_.stats();
  return t == CacheTier::kDram ? dram_.stats() : ssd_.stats();
}

void BufferManager::Clear() {
  hot_.Clear();
  FreeAllHotSlots();
  dram_.Clear();
  ssd_.Clear();
}

/// Puts every slab slot on the free list, to be handed out lowest first.
void BufferManager::FreeAllHotSlots() {
  std::lock_guard<std::mutex> lock(hot_slots_mu_);
  hot_free_.resize(hot_slab_.size() / kHotSlotBytes);
  std::iota(hot_free_.rbegin(), hot_free_.rend(), uint32_t(0));
}

/// Admits a decoded group of `bytes` into a free slab slot. A key already
/// cached, a tier too small for one slot, or (under concurrent admits) no
/// free slot leaves the group uncached.
void BufferManager::AdmitHot(const TierKey& key, const uint8_t* group,
                             size_t bytes) {
  if (hot_slab_.empty() || hot_.Contains(key)) return;
  hot_.MakeSpace(kHotSlotBytes, [this](TierCache<uint32_t>::Victim&& victim) {
    FreeHotSlot(victim.value);
  });
  uint32_t slot = 0;
  {
    std::lock_guard<std::mutex> lock(hot_slots_mu_);
    if (hot_free_.empty()) return;
    slot = hot_free_.back();
    hot_free_.pop_back();
  }
  std::memcpy(HotSlot(slot), group, bytes);
  if (!hot_.Insert(key, kHotSlotBytes, slot, /*pin=*/false).second) {
    FreeHotSlot(slot);
  }
}

void BufferManager::FreeHotSlot(uint32_t slot) {
  std::lock_guard<std::mutex> lock(hot_slots_mu_);
  hot_free_.push_back(slot);
}

void BufferManager::ResetStats() {
  hot_.ResetStats();
  dram_.ResetStats();
  ssd_.ResetStats();
  evicted_bytes_.Reset();
  bytes_read_.Reset();
  io_faults_.Reset();
  coalesced_misses_.Reset();
}

/// Pins `key`'s page and returns a guard on it when cached; an empty
/// guard means the key is absent. A pin counts as a hit, or with
/// `coalesced` as a coalesced miss: a waiter pinning the page its leader
/// read.
BufferManager::PageGuard BufferManager::TryPinCached(const TierKey& key,
                                                     bool coalesced) {
  const AlignedBuffer* page = nullptr;
  if (!dram_.Find(key, /*pin=*/true,
                  [&](const CachedPage& p) { page = p.get(); })) {
    return PageGuard();
  }
  if (coalesced) {
    CountCoalesced();
  } else {
    dram_.CountHit();
    StorageMetrics::Get().bm_shard_hits[dram_.ShardOf(key)]->Increment();
  }
  return PageGuard(this, key, page);
}

void BufferManager::CountCoalesced() { coalesced_misses_.Add(); }

/// The miss read path: charges the serving device per attempt and
/// retries failed reads. A page resident in the SSD tier is served (and
/// charged) there; everything else reads from the cold device. On
/// success `*page`/`*owned` describe what to cache. Runs without any
/// tier lock held; SimDisk serializes device access internally.
Status BufferManager::ReadPage(const Table* table, const StoredColumn* col,
                               size_t chunk_idx, AlignedBuffer* page,
                               bool* owned) {
  const TierKey key{col, chunk_idx};
  const AlignedBuffer& src = col->chunks[chunk_idx];
  // Tier resolution happens once per page read, not per retry: a read
  // that starts on the SSD tier retries there (like a controller
  // retrying the same medium) until it gives up and drops the copy.
  const bool from_ssd = ssd_enabled() && ssd_.Touch(key);
  if (ssd_enabled()) {
    if (from_ssd) {
      ssd_.CountHit();
    } else {
      ssd_.CountMiss();
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
      st = dev->ReadChunkInto(src.data(), src.size(), unit_bytes, page);
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
    dram_.ObserveFault(sim_ns);
    if (ssd_enabled() && !from_ssd) ssd_.ObserveFault(sim_ns);
    if (!from_ssd) bytes_read_.Add(unit_bytes);
    if (!st.ok()) {
      io_faults_.Add();
      last = st;
      continue;
    }
    *owned = guarded;
    return Status::OK();
  }
  // A permanent SSD read failure drops the copy as lost media, so the
  // next fetch falls back to the cold device.
  if (from_ssd) ssd_.Erase(key);
  return last;
}

/// Inserts the fetched page (pinned for the caller) plus, under PAX,
/// unpinned entries aliasing the row group's sibling columns. Every
/// admission counts as a DRAM promotion.
BufferManager::PageGuard BufferManager::Admit(const Table* table,
                                              const StoredColumn* col,
                                              size_t chunk_idx,
                                              const TierKey& key,
                                              AlignedBuffer&& page,
                                              bool owned) {
  auto evicted = [this](TierCache<CachedPage>::Victim&& victim) {
    Evicted(std::move(victim));
  };
  const AlignedBuffer& src = col->chunks[chunk_idx];
  dram_.MakeSpace(src.size(), evicted);
  // A live entry here is an uncoalesced duplicate read (the recheck in
  // FetchPinned should prevent it): Insert keeps it — outstanding guards
  // own its pins and point into its buffer — and drops the fresh copy.
  const CachedPage* cached =
      dram_
          .Insert(key, src.size(),
                  owned ? CachedPage{std::move(page), nullptr}
                        : CachedPage{AlignedBuffer(), &src},
                  /*pin=*/true)
          .first;
  if (layout_ == Layout::kPAX) {
    for (size_t c = 0; c < table->column_count(); c++) {
      const StoredColumn* other = table->column(c);
      if (other == col) continue;
      const TierKey sibling_key{other, chunk_idx};
      // A resident sibling is not re-added, so it must not evict either.
      if (dram_.Contains(sibling_key)) continue;
      const AlignedBuffer& sibling = other->chunks[chunk_idx];
      dram_.MakeSpace(sibling.size(), evicted);
      dram_.Insert(sibling_key, sibling.size(),
                   CachedPage{AlignedBuffer(), &sibling}, /*pin=*/false);
    }
  }
  return PageGuard(this, key, cached->get());
}

/// A DRAM victim: counted, then demoted toward the SSD tier (writeback)
/// outside every tier lock.
void BufferManager::Evicted(TierCache<CachedPage>::Victim&& victim) {
  evicted_bytes_.Add(victim.bytes);
  // Victim age in LRU-clock ticks (touches since this entry was last
  // used). A distribution clustered near zero means churn: pages are
  // evicted almost as soon as they stop being used.
  StorageMetrics::Get().bm_eviction_age->Observe(victim.age);
  DemoteToSsd(victim.key, victim.bytes);
}

/// Demotes an evicted DRAM page toward the SSD tier. Compressed pages
/// are immutable, so an already-resident page needs no new IO (the tier
/// is inclusive below DRAM): it is only touched. Otherwise one writeback
/// is counted, and it fails — the page is simply cold again, re-readable
/// from the cold device — when it cannot land on flash.
void BufferManager::DemoteToSsd(const TierKey& key, size_t bytes) {
  if (!ssd_enabled() || ssd_.Touch(key)) return;
  dram_.CountWriteback();
  if (bytes > ssd_.capacity() ||             // larger than the whole tier:
                                             // skip the doomed IO
      ssd_disk_.WriteChunk(bytes) != bytes ||  // torn write
      !ssd_.Admit(key, bytes, {})) {           // another thread demoted it
    dram_.CountWritebackFailure();
  }
}

}  // namespace scc
