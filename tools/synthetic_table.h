#ifndef SCC_TOOLS_SYNTHETIC_TABLE_H_
#define SCC_TOOLS_SYNTHETIC_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/zipf.h"

// The synthetic table that `scc_load --rows` writes and `scc_serve --rows`
// serves. Its columns cover the analyzer's main regimes: a dense
// sequential `id` (closed-form verifiable; workload_driver --verify
// depends on it), a low-cardinality zipf `code`, a `price` with 1%
// outliers (the PFOR exception path) and an increasing, delta-friendly
// `ts`. The values are a pure function of (rows, seed).

namespace scc {

struct NamedColumn {
  std::string name;
  std::vector<int64_t> values;
};

inline std::vector<NamedColumn> SyntheticColumns(size_t rows, uint64_t seed) {
  Rng rng(seed);
  ZipfGenerator zipf(1000, 1.1, seed + 1);
  std::vector<int64_t> id(rows), code(rows), price(rows), ts(rows);
  int64_t t = 1700000000;
  for (size_t i = 0; i < rows; i++) {
    id[i] = int64_t(i);
    code[i] = int64_t(zipf.Next());
    price[i] = int64_t(100 + rng.Uniform(900));
    if (rng.Bernoulli(0.01)) price[i] = int64_t(rng.Uniform(1u << 30));
    t += int64_t(rng.Uniform(30));
    ts[i] = t;
  }
  std::vector<NamedColumn> cols;
  cols.push_back({"id", std::move(id)});
  cols.push_back({"code", std::move(code)});
  cols.push_back({"price", std::move(price)});
  cols.push_back({"ts", std::move(ts)});
  return cols;
}

}  // namespace scc

#endif  // SCC_TOOLS_SYNTHETIC_TABLE_H_
