#ifndef SCC_STORAGE_SIM_DISK_H_
#define SCC_STORAGE_SIM_DISK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>

#include "storage/fault_injector.h"
#include "util/aligned_buffer.h"
#include "util/status.h"

// Virtual-time RAID model. The paper's experiments run on real 4-disk
// (~80 MB/s) and 12-disk (~350 MB/s) RAID arrays; we substitute a
// deterministic bandwidth/seek model that accumulates the I/O time a read
// *would* take (see DESIGN.md). The benchmark harness combines this
// virtual I/O time with measured CPU time, assuming I/O fully overlaps
// computation:
//
//   query_time = max(cpu_time, io_time)        (full overlap)
//   io_stall   = max(0, io_time - cpu_time)
//
// which reproduces exactly the I/O-bound -> CPU-bound crossover the
// paper's Figure 8 decomposes. The overlap is assumed, not executed: a
// read costs no wall time, so no code reads ahead.
//
// For the corruption battery the disk optionally carries a FaultInjector:
// ReadChunkInto then materializes a (possibly perturbed) private copy of
// the page instead of letting callers alias pristine memory, so injected
// bit flips, short reads, and I/O errors surface exactly where a real
// device would produce them.
//
// Thread safety: a device is a serial resource, so one mutex guards the
// accounting AND the attached fault injector — concurrent readers are
// serialized exactly like requests queueing at a real controller, which
// also keeps the injector's determinism contract (faults are a pure
// function of seed and call order) intact per completed schedule.
// AttachFaults/Reset are configuration, not I/O: call them quiesced.

namespace scc {

class SimDisk {
 public:
  struct Config {
    double bandwidth_mb_per_s = 350.0;  // sequential chunk bandwidth
    // Per-chunk positioning cost. Chunks are sized so that sequential
    // throughput approaches the disk bandwidth (Section 3.1), i.e. seeks
    // are mostly amortized over large sequential reads; keep this small.
    double seek_ms = 0.1;
  };

  /// Paper's low-end box: Opteron with 4-disk RAID (~80 MB/s).
  static Config LowEndRaid() { return Config{80.0, 0.1}; }
  /// Paper's mid-range box: Pentium4 with 12-disk RAID (~350 MB/s).
  static Config MidRangeRaid() { return Config{350.0, 0.1}; }
  /// Flash middle tier for the tiered buffer manager (docs/STORAGE_TIERS.md):
  /// an order of magnitude more bandwidth than the RAID presets and a
  /// positioning cost small enough that chunk-granular faults stay cheap.
  static Config NvmeSsd() { return Config{2000.0, 0.02}; }

  /// Simulated wall time one chunk transfer of `bytes` takes under
  /// `config` — the same formula the accounting charges, exposed so
  /// callers can observe per-fault latency without locking the device.
  static double TransferSeconds(const Config& config, size_t bytes) {
    return config.seek_ms / 1000.0 +
           double(bytes) / (config.bandwidth_mb_per_s * 1024 * 1024);
  }

  SimDisk() : config_(MidRangeRaid()) {}
  explicit SimDisk(Config config) : config_(config) {}

  /// Charges one sequential chunk read of `bytes`.
  void ReadChunk(size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    ChargeReadLocked(bytes);
  }

  /// Charges one read of a `unit_bytes` I/O unit AND materializes the
  /// `bytes`-byte page at `src` into `out`, applying any attached fault
  /// injector to the copy. The unit is the page itself, or under PAX the
  /// whole row group the page belongs to. Time and bandwidth are charged
  /// even when the read fails — the device did the work. On a short
  /// (truncated) read, `out->size()` reports the bytes that actually
  /// arrived.
  Status ReadChunkInto(const uint8_t* src, size_t bytes, size_t unit_bytes,
                       AlignedBuffer* out) {
    // One critical section for charge + copy + fault so the injector sees
    // whole reads in a definite order, never interleaved halves.
    std::lock_guard<std::mutex> lock(mu_);
    ChargeReadLocked(unit_bytes);
    out->Resize(bytes);
    if (bytes > 0) std::memcpy(out->data(), src, bytes);
    if (faults_ != nullptr) {
      size_t got = bytes;
      SCC_RETURN_NOT_OK(faults_->OnRead(out->data(), &got));
      if (got != bytes) out->Resize(got);  // short read: shrink in place
    }
    return Status::OK();
  }

  /// Charges one sequential chunk write of `bytes`; returns the bytes
  /// that actually persisted (less than `bytes` under a torn write).
  size_t WriteChunk(size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    writes_++;
    size_t persisted = faults_ != nullptr ? faults_->OnWrite(bytes) : bytes;
    bytes_written_ += persisted;
    io_seconds_ += TransferSeconds(config_, bytes);
    return persisted;
  }

  /// Attaches (or detaches, with nullptr) a fault injector. Not owned.
  void AttachFaults(FaultInjector* faults) { faults_ = faults; }
  FaultInjector* faults() const { return faults_; }

  double io_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return io_seconds_;
  }
  size_t bytes_read() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_read_;
  }
  size_t bytes_written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_written_;
  }
  size_t read_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_;
  }
  size_t write_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return writes_;
  }
  const Config& config() const { return config_; }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    io_seconds_ = 0;
    bytes_read_ = 0;
    bytes_written_ = 0;
    reads_ = 0;
    writes_ = 0;
  }

 private:
  void ChargeReadLocked(size_t bytes) {
    reads_++;
    bytes_read_ += bytes;
    io_seconds_ += TransferSeconds(config_, bytes);
  }

  Config config_;
  FaultInjector* faults_ = nullptr;
  mutable std::mutex mu_;
  double io_seconds_ = 0;
  size_t bytes_read_ = 0;
  size_t bytes_written_ = 0;
  size_t reads_ = 0;
  size_t writes_ = 0;
};

}  // namespace scc

#endif  // SCC_STORAGE_SIM_DISK_H_
