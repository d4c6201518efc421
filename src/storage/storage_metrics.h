#ifndef SCC_STORAGE_STORAGE_METRICS_H_
#define SCC_STORAGE_STORAGE_METRICS_H_

#include <cstdio>

#include "sys/telemetry.h"

// Telemetry handles for the storage family, resolved once (see
// codec_metrics.h for the caching rationale).
//
// Metric names:
//   storage.bm.evicted_bytes            bytes the DRAM tier's LRU victims
//                                       held (their count is
//                                       storage.tier.dram.evictions)
//   storage.bm.bytes_read               bytes charged to the (sim) disk
//   storage.bm.coalesced_misses         misses that joined another thread's
//                                       in-flight read (no disk charge),
//                                       counted when the waiter pins the
//                                       leader's page; never also a hit.
//                                       Every page fetch counts exactly
//                                       once: storage.tier.dram.hits +
//                                       storage.tier.dram.misses +
//                                       coalesced_misses == fetches
//   storage.bm.coalesced_wait_ns        hist: time followers spent blocked
//                                       on the leader's in-flight read
//   storage.bm.eviction.age             hist: LRU-clock ticks between a
//                                       victim's last touch and its
//                                       eviction (small = churn: pages
//                                       recycled almost immediately)
//   storage.bm.shard.<i>.hits/.misses   per-shard DRAM outcomes, for
//                                       spotting skewed stripes
//   storage.io_faults                   failed page-read attempts (injected
//                                       I/O errors, truncations, CRC fails)
//   storage.tier.<t>.hits / misses      per-tier outcomes for t in
//                                       {hot, dram, ssd}; hot counts
//                                       decoded-group lookups (ReadValue),
//                                       dram counts page fetches (coalesced
//                                       waiters are in neither), ssd counts
//                                       compressed page reads served from /
//                                       missing the flash tier
//   storage.tier.<t>.promotions         entries admitted into the tier from
//                                       below (hot: groups decoded in; dram:
//                                       pages faulted in; ssd: pages demoted
//                                       in by DRAM writeback)
//   storage.tier.<t>.writebacks         demotions issued FROM the tier on
//                                       eviction (dram only: compressed page
//                                       written to the SSD tier; hot and ssd
//                                       entries are clean and just dropped)
//   storage.tier.<t>.writeback_failures writebacks that did not land: torn,
//                                       oversized, or raced by another
//                                       thread's demotion of the same page
//   storage.tier.<t>.evictions          entries dropped from the tier
//   storage.tier.<t>.resident_bytes     gauge: bytes resident per tier
//   storage.tier.<t>.fault_ns           hist: per-fault latency filling the
//                                       tier (hot: wall decode ns; dram/ssd:
//                                       simulated device ns)
//   storage.scan.vectors / rows         vectors/rows produced by TableScanOp
//   storage.scan.decompress_nanos       time inside scan decompression
//   storage.merge_scan.base_rows        base rows surviving delete filter
//   storage.merge_scan.deleted_rows     base rows dropped as deleted
//   storage.merge_scan.insert_rows      rows emitted from the delta store
//   storage.load.columns                columns ingested by the bulk loader
//   storage.load.chunks                 chunk-build tasks executed
//   storage.load.rows                   rows ingested
//   storage.load.bytes_out              stored segment bytes produced
//   storage.load.nanos                  wall time inside BulkLoadColumn
//   storage.load.skipped_columns        .tbl columns dropped by the loader
//                                       (non-numeric: dates, strings)
//
// Each tier's storage.tier.<t>.* handles are owned by its TierCache
// (tier_cache.h), which counts every event there and in the manager's
// tier_stats() with one call; hot and ssd stay zero while unconfigured.

namespace scc {

/// Lock stripes instrumented per shard; must equal BufferManager::kShards
/// (static_assert'd in buffer_manager.h — this header is its dependency,
/// not the other way around).
constexpr size_t kBmMetricShards = 16;

/// Cache tiers instrumented by the buffer manager, hottest first; indexes
/// the storage.tier.* handle arrays (and CacheTier mirrors it —
/// static_assert'd in tier_cache.h).
constexpr size_t kBmTiers = 3;

struct StorageMetrics {
  Counter* bm_evicted_bytes;
  Counter* bm_bytes_read;
  Counter* bm_coalesced_misses;
  Histogram* bm_coalesced_wait_ns;
  Histogram* bm_eviction_age;
  Counter* bm_shard_hits[kBmMetricShards];
  Counter* bm_shard_misses[kBmMetricShards];
  Counter* io_faults;
  Counter* tier_hits[kBmTiers];
  Counter* tier_misses[kBmTiers];
  Counter* tier_promotions[kBmTiers];
  Counter* tier_writebacks[kBmTiers];
  Counter* tier_writeback_failures[kBmTiers];
  Counter* tier_evictions[kBmTiers];
  Gauge* tier_resident_bytes[kBmTiers];
  Histogram* tier_fault_ns[kBmTiers];
  Counter* scan_vectors;
  Counter* scan_rows;
  Counter* scan_decompress_nanos;
  Counter* merge_base_rows;
  Counter* merge_deleted_rows;
  Counter* merge_insert_rows;
  Counter* load_columns;
  Counter* load_chunks;
  Counter* load_rows;
  Counter* load_bytes_out;
  Counter* load_nanos;
  Counter* load_skipped_columns;

  static StorageMetrics& Get() {
    static StorageMetrics* m = [] {
      auto* sm = new StorageMetrics;
      MetricsRegistry& reg = MetricsRegistry::Instance();
      sm->bm_evicted_bytes = &reg.GetCounter("storage.bm.evicted_bytes");
      sm->bm_bytes_read = &reg.GetCounter("storage.bm.bytes_read");
      sm->bm_coalesced_misses =
          &reg.GetCounter("storage.bm.coalesced_misses");
      sm->bm_coalesced_wait_ns =
          &reg.GetHistogram("storage.bm.coalesced_wait_ns");
      sm->bm_eviction_age = &reg.GetHistogram("storage.bm.eviction.age");
      for (size_t i = 0; i < kBmMetricShards; i++) {
        char name[48];
        std::snprintf(name, sizeof(name), "storage.bm.shard.%zu.hits", i);
        sm->bm_shard_hits[i] = &reg.GetCounter(name);
        std::snprintf(name, sizeof(name), "storage.bm.shard.%zu.misses", i);
        sm->bm_shard_misses[i] = &reg.GetCounter(name);
      }
      sm->io_faults = &reg.GetCounter("storage.io_faults");
      static const char* kTier[kBmTiers] = {"hot", "dram", "ssd"};
      for (size_t t = 0; t < kBmTiers; t++) {
        char name[64];
        std::snprintf(name, sizeof(name), "storage.tier.%s.hits", kTier[t]);
        sm->tier_hits[t] = &reg.GetCounter(name);
        std::snprintf(name, sizeof(name), "storage.tier.%s.misses", kTier[t]);
        sm->tier_misses[t] = &reg.GetCounter(name);
        std::snprintf(name, sizeof(name), "storage.tier.%s.promotions",
                      kTier[t]);
        sm->tier_promotions[t] = &reg.GetCounter(name);
        std::snprintf(name, sizeof(name), "storage.tier.%s.writebacks",
                      kTier[t]);
        sm->tier_writebacks[t] = &reg.GetCounter(name);
        std::snprintf(name, sizeof(name),
                      "storage.tier.%s.writeback_failures", kTier[t]);
        sm->tier_writeback_failures[t] = &reg.GetCounter(name);
        std::snprintf(name, sizeof(name), "storage.tier.%s.evictions",
                      kTier[t]);
        sm->tier_evictions[t] = &reg.GetCounter(name);
        std::snprintf(name, sizeof(name), "storage.tier.%s.resident_bytes",
                      kTier[t]);
        sm->tier_resident_bytes[t] = &reg.GetGauge(name);
        std::snprintf(name, sizeof(name), "storage.tier.%s.fault_ns",
                      kTier[t]);
        sm->tier_fault_ns[t] = &reg.GetHistogram(name);
      }
      sm->scan_vectors = &reg.GetCounter("storage.scan.vectors");
      sm->scan_rows = &reg.GetCounter("storage.scan.rows");
      sm->scan_decompress_nanos =
          &reg.GetCounter("storage.scan.decompress_nanos");
      sm->merge_base_rows = &reg.GetCounter("storage.merge_scan.base_rows");
      sm->merge_deleted_rows =
          &reg.GetCounter("storage.merge_scan.deleted_rows");
      sm->merge_insert_rows =
          &reg.GetCounter("storage.merge_scan.insert_rows");
      sm->load_columns = &reg.GetCounter("storage.load.columns");
      sm->load_chunks = &reg.GetCounter("storage.load.chunks");
      sm->load_rows = &reg.GetCounter("storage.load.rows");
      sm->load_bytes_out = &reg.GetCounter("storage.load.bytes_out");
      sm->load_nanos = &reg.GetCounter("storage.load.nanos");
      sm->load_skipped_columns =
          &reg.GetCounter("storage.load.skipped_columns");
      return sm;
    }();
    return *m;
  }
};

}  // namespace scc

#endif  // SCC_STORAGE_STORAGE_METRICS_H_
