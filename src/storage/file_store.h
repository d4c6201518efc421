#ifndef SCC_STORAGE_FILE_STORE_H_
#define SCC_STORAGE_FILE_STORE_H_

#include <string>

#include "storage/table.h"

// On-disk persistence for ColumnBM tables. A table is a directory:
//
//   <dir>/MANIFEST            text: one line per column
//                             "column <name> <type> <rows> <chunk_values>"
//   <dir>/<name>.col          binary: [u32 magic][u32 nchunks]
//                             [u64 size[nchunks]][chunk bytes...]
//
// Chunks are stored exactly as their in-memory segment buffers, already
// compressed and self-describing — loading performs no re-compression,
// and every chunk re-validates its header on load. This is the shape a
// real ColumnBM deployment would mmap/read; the in-memory Table remains
// the unit the buffer manager serves.

namespace scc {

/// Options for FileStore::Load (namespace scope so the default argument
/// below can default-construct it — a nested class's member initializers
/// are not usable in the enclosing class's default arguments).
struct FileStoreLoadOptions {
  /// Verify per-section segment CRCs of every checksummed chunk while
  /// loading. Default ON: load is the trust boundary where bytes come
  /// back from storage, and the CRC pass runs at hardware-CRC speed on
  /// data the loader just touched anyway. Legacy (v1, unchecksummed)
  /// chunks pass through unverified either way.
  bool verify_checksums = true;
};

class FileStore {
 public:
  static constexpr uint32_t kColMagic = 0x53434346;  // "SCCF"

  using LoadOptions = FileStoreLoadOptions;

  /// Writes `table` under `dir` (created if needed). Overwrites files.
  static Status Save(const Table& table, const std::string& dir);

  /// Reads a table back. Validates every chunk header (and, by default,
  /// every chunk's checksum block). With verification on, an integer
  /// column whose chunks all carry checksums gets its chunk summaries
  /// back, decoded from the verified pages; otherwise it has none, so
  /// unverified bytes never steer a scan's pruning.
  static Result<Table> Load(const std::string& dir,
                            const FileStoreLoadOptions& opts = {});
};

}  // namespace scc

#endif  // SCC_STORAGE_FILE_STORE_H_
