#include "storage/file_store.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "core/segment.h"
#include "core/segment_reader.h"
#include "engine/operators.h"

namespace scc {

namespace {

namespace fs = std::filesystem;

const char* TypeToken(TypeId t) {
  switch (t) {
    case TypeId::kInt8:
      return "i8";
    case TypeId::kInt16:
      return "i16";
    case TypeId::kInt32:
      return "i32";
    case TypeId::kInt64:
      return "i64";
    case TypeId::kFloat64:
      return "f64";
  }
  return "?";
}

Result<TypeId> TypeFromToken(const std::string& s) {
  if (s == "i8") return TypeId::kInt8;
  if (s == "i16") return TypeId::kInt16;
  if (s == "i32") return TypeId::kInt32;
  if (s == "i64") return TypeId::kInt64;
  if (s == "f64") return TypeId::kFloat64;
  return Status::Corruption("manifest: unknown type " + s);
}

/// Derives an integer column's chunk summaries from its (verified)
/// pages, decoded one chunk at a time: the same ranges the loaders
/// computed from the source values. A float column gets none.
Status Summarize(StoredColumn* col) {
  return DispatchType(col->type, [&](auto tag) -> Status {
    using T = decltype(tag);
    if constexpr (std::is_integral_v<T>) {
      std::vector<T> values;
      for (const AlignedBuffer& page : col->chunks) {
        SCC_ASSIGN_OR_RETURN(SegmentReader<T> r,
                             SegmentReader<T>::Open(page.data(), page.size()));
        values.resize(r.count());
        r.DecompressAll(values.data());
        col->ranges.push_back(ChunkRangeOf<T>(values));
      }
    }
    return Status::OK();
  });
}

}  // namespace

Status FileStore::Save(const Table& table, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());

  std::ofstream manifest(fs::path(dir) / "MANIFEST", std::ios::trunc);
  if (!manifest) return Status::Internal("cannot write MANIFEST");
  for (size_t c = 0; c < table.column_count(); c++) {
    const StoredColumn* col = table.column(c);
    manifest << "column " << col->name << ' ' << TypeToken(col->type) << ' '
             << col->rows << ' ' << col->chunk_values << '\n';

    std::ofstream out(fs::path(dir) / (col->name + ".col"),
                      std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot write column " + col->name);
    uint32_t magic = kColMagic;
    uint32_t nchunks = uint32_t(col->chunks.size());
    out.write(reinterpret_cast<const char*>(&magic), 4);
    out.write(reinterpret_cast<const char*>(&nchunks), 4);
    for (const AlignedBuffer& chunk : col->chunks) {
      uint64_t size = chunk.size();
      out.write(reinterpret_cast<const char*>(&size), 8);
    }
    for (const AlignedBuffer& chunk : col->chunks) {
      out.write(reinterpret_cast<const char*>(chunk.data()),
                std::streamsize(chunk.size()));
    }
    if (!out) return Status::Internal("short write on " + col->name);
  }
  return Status::OK();
}

Result<Table> FileStore::Load(const std::string& dir,
                              const LoadOptions& opts) {
  std::ifstream manifest(fs::path(dir) / "MANIFEST");
  if (!manifest) return Status::InvalidArgument("no MANIFEST in " + dir);
  Table table;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    std::istringstream in(line);
    std::string tag, name, type_token;
    uint64_t rows = 0, chunk_values = 0;
    in >> tag >> name >> type_token >> rows >> chunk_values;
    if (!in || tag != "column") {
      return Status::Corruption("manifest: bad line: " + line);
    }
    SCC_ASSIGN_OR_RETURN(TypeId type, TypeFromToken(type_token));

    std::ifstream colf(fs::path(dir) / (name + ".col"), std::ios::binary);
    if (!colf) return Status::Corruption("missing column file " + name);
    uint32_t magic = 0, nchunks = 0;
    colf.read(reinterpret_cast<char*>(&magic), 4);
    colf.read(reinterpret_cast<char*>(&nchunks), 4);
    if (!colf || magic != kColMagic) {
      return Status::Corruption("bad column file magic: " + name);
    }
    std::vector<uint64_t> sizes(nchunks);
    for (auto& s : sizes) colf.read(reinterpret_cast<char*>(&s), 8);
    if (!colf) return Status::Corruption("truncated size index: " + name);

    auto col = std::make_unique<StoredColumn>();
    col->name = name;
    col->type = type;
    col->rows = rows;
    col->chunk_values = chunk_values;
    size_t total_rows = 0;
    // Only pages whose checksums were verified may drive pruning.
    bool verified = opts.verify_checksums;
    for (uint32_t i = 0; i < nchunks; i++) {
      if (sizes[i] > (uint64_t(1) << 32)) {
        return Status::Corruption("absurd chunk size in " + name);
      }
      AlignedBuffer buf(sizes[i]);
      colf.read(reinterpret_cast<char*>(buf.data()),
                std::streamsize(sizes[i]));
      if (!colf) return Status::Corruption("truncated chunk in " + name);
      // Re-validate the segment header before adopting the chunk.
      if (sizes[i] < sizeof(SegmentHeader)) {
        return Status::Corruption("chunk shorter than header: " + name);
      }
      SegmentHeader hdr;
      std::memcpy(&hdr, buf.data(), sizeof(hdr));
      SCC_RETURN_NOT_OK(hdr.Validate(buf.size()));
      if (hdr.value_size != TypeSize(type)) {
        return Status::Corruption("chunk value width mismatch: " + name);
      }
      if (opts.verify_checksums) {
        SCC_RETURN_NOT_OK(VerifySegmentChecksums(buf.data(), buf.size()));
      }
      verified &= hdr.HasChecksums();
      col->compressed |= hdr.GetScheme() != Scheme::kUncompressed;
      total_rows += hdr.count;
      col->chunks.push_back(std::move(buf));
    }
    if (total_rows != rows) {
      return Status::Corruption("column row count mismatch: " + name);
    }
    if (verified) SCC_RETURN_NOT_OK(Summarize(col.get()));
    SCC_RETURN_NOT_OK(table.AdoptColumn(std::move(col)));
  }
  return table;
}

}  // namespace scc
