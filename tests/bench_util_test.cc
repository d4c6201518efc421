#include "bench/bench_util.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

// The benches' one --json format (bench::JsonReport): a single
// {"bench","config","metrics"} object whose flat metrics map holds one
// metric per line. CI steps grep single metric keys out of it and
// json.load the whole of it, so both have to keep working.

namespace scc {
namespace bench {
namespace {

std::string Render(const JsonReport& r) {
  FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return "";
  r.Write(f);
  std::rewind(f);
  std::string out;
  char buf[256];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string ReadFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string out;
  char buf[256];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(JsonReportTest, WritesBenchConfigAndFlatMetrics) {
  JsonReport r("micro_morsel");
  r.Config("max_threads", 4);
  r.Config("mode", "morsel");
  r.Metric("morsel_scan/threads:1.speedup", 1.5);
  r.Metric("morsel_scan/threads:2.speedup", 2);
  EXPECT_EQ(Render(r),
            "{\"bench\":\"micro_morsel\","
            "\"config\":{\"max_threads\":4,\"mode\":\"morsel\"},"
            "\"metrics\":{\n"
            "\"morsel_scan/threads:1.speedup\":1.5,\n"
            "\"morsel_scan/threads:2.speedup\":2}}\n");
}

TEST(JsonReportTest, EmptyReportIsAnObject) {
  EXPECT_EQ(Render(JsonReport("b")),
            "{\"bench\":\"b\",\"config\":{},\"metrics\":{}}\n");
}

TEST(JsonReportTest, EachMetricOnItsOwnLine) {
  // `grep KEY` on the report must return the key's value and no other.
  JsonReport r("workload_driver");
  r.Metric("read_only.pipelined.ops_per_sec", 250000);
  r.Metric("read_only.pipelined.tenant.1.ok", 17);
  r.Metric("read_only.pipelined.tenant.1.shed", 3);
  const std::string out = Render(r);
  const std::string key = "\"read_only.pipelined.tenant.1.ok\"";
  const size_t at = out.find(key);
  ASSERT_NE(at, std::string::npos);
  const size_t begin = out.rfind('\n', at) + 1;
  const size_t end = out.find('\n', at);
  EXPECT_EQ(out.substr(begin, end - begin),
            "\"read_only.pipelined.tenant.1.ok\":17,");
  size_t lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 4u);  // the header line, then one line per metric
}

TEST(JsonReportTest, NonFiniteValuesAreNull) {
  // JSON has no literal for infinity or NaN; a rate over a timer that read
  // zero must still leave a report json.load accepts.
  JsonReport r("b");
  r.Config("seconds", std::numeric_limits<double>::infinity());
  r.Metric("inf", std::numeric_limits<double>::infinity());
  r.Metric("nan", std::nan(""));
  r.Rate("zero_time", 1024, 256, 0.0);
  const std::string out = Render(r);
  EXPECT_NE(out.find("\"seconds\":null"), std::string::npos);
  EXPECT_NE(out.find("\"inf\":null"), std::string::npos);
  EXPECT_NE(out.find("\"nan\":null"), std::string::npos);
  EXPECT_NE(out.find("\"zero_time.bytes_per_second\":null"),
            std::string::npos);
  EXPECT_EQ(out.find(":inf"), std::string::npos);
  EXPECT_EQ(out.find("nan,"), std::string::npos);
}

TEST(JsonReportTest, QuotesAndBackslashesAreEscaped) {
  JsonReport r("a\"b");
  r.Config("path", "C:\\tmp");
  r.Metric("k\"ey", 1);
  EXPECT_EQ(Render(r),
            "{\"bench\":\"a\\\"b\",\"config\":{\"path\":\"C:\\\\tmp\"},"
            "\"metrics\":{\n\"k\\\"ey\":1}}\n");
}

TEST(JsonReportTest, RateWritesBytesPerSecondAndNsPerValue) {
  JsonReport r("micro_kernels");
  r.Rate("pfor/b8", /*bytes=*/4e9, /*values=*/1e9, /*seconds=*/2.0);
  EXPECT_EQ(Render(r),
            "{\"bench\":\"micro_kernels\",\"config\":{},\"metrics\":{\n"
            "\"pfor/b8.bytes_per_second\":2000000000,\n"
            "\"pfor/b8.ns_per_value\":2}}\n");
}

TEST(JsonReportTest, SaveWritesTheReportToAFile) {
  JsonReport r("fig5_compression");
  r.Config("rows", 1000);
  r.Metric("bulk_load.identical", 1);
  const std::string path = ::testing::TempDir() + "json_report_save.json";
  ASSERT_TRUE(r.Save(path.c_str()));
  EXPECT_EQ(ReadFile(path), Render(r));
  std::remove(path.c_str());
}

TEST(JsonReportTest, SaveFailsOnAnUnwritablePath) {
  JsonReport r("b");
  r.Metric("m", 1);
  const std::string path =
      ::testing::TempDir() + "no_such_dir_for_json_report/out.json";
  EXPECT_FALSE(r.Save(path.c_str()));
}

}  // namespace
}  // namespace bench
}  // namespace scc
