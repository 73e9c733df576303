// bench_util: table rendering, cell formatting, the experiment result
// helpers that feed EXPERIMENTS.md, and the bench record.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "bench_util/experiment.hpp"
#include "bench_util/record.hpp"
#include "bench_util/table.hpp"
#include "common/check.hpp"

namespace dkf::bench {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"A", "Longer header", "C"});
  t.addRow({"1", "x", "33333"});
  t.addRow({"22", "yy", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| A  | Longer header | C     |"), std::string::npos);
  EXPECT_NE(out.find("| 22 | yy            | 4     |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"A", "B"});
  EXPECT_THROW(t.addRow({"only one"}), CheckFailure);
}

TEST(Cells, FixedPrecisionAndUnits) {
  EXPECT_EQ(cell(3.14159, 2), "3.14");
  EXPECT_EQ(cell(10.0, 0), "10");
  EXPECT_EQ(cellUs(12.345), "12.35 us");
  EXPECT_EQ(cellUs(25000.0), "25.00 ms");
}

TEST(Banner, ContainsTitleAndSubtitle) {
  std::ostringstream os;
  banner(os, "Title here", "sub");
  EXPECT_NE(os.str().find("Title here"), std::string::npos);
  EXPECT_NE(os.str().find("sub"), std::string::npos);
}

TEST(ExchangeResult, ObservedCommunicationResidual) {
  ExchangeResult r;
  r.total_elapsed = us(100);
  r.breakdown.launching = us(30);
  r.breakdown.scheduling = us(10);
  r.breakdown.synchronize = us(20);
  r.breakdown.pack_unpack = us(500);  // GPU-side, not subtracted
  EXPECT_EQ(r.observedCommunication(), us(40));
  r.breakdown.launching = us(200);  // attribution exceeds elapsed
  EXPECT_EQ(r.observedCommunication(), 0u);
}

TEST(ExchangeResult, MeanLatencyFromSamples) {
  ExchangeResult r;
  r.latency_us.add(10.0);
  r.latency_us.add(30.0);
  EXPECT_DOUBLE_EQ(r.meanLatencyUs(), 20.0);
}

SampleSet samplesOf(std::initializer_list<double> values) {
  SampleSet s;
  for (const double v : values) s.add(v);
  return s;
}

TEST(Spread, MedianMinMaxAndCount) {
  const Spread spread = spreadOf(samplesOf({5.0, 1.0, 3.0}));
  EXPECT_DOUBLE_EQ(spread.median, 3.0);
  EXPECT_DOUBLE_EQ(spread.min, 1.0);
  EXPECT_DOUBLE_EQ(spread.max, 5.0);
  EXPECT_EQ(spread.n, 3u);
  EXPECT_DOUBLE_EQ(spread.per(2.0).max, 2.5);
}

TEST(Spread, FewerThanThreeSamplesThrow) {
  EXPECT_THROW(spreadOf(samplesOf({1.0, 2.0})), CheckFailure);
  EXPECT_THROW(Json(Spread{1.0, 1.0, 1.0, 1}), CheckFailure);
}

TEST(Json, PrintsNestedValuesInInsertionOrder) {
  Json j;
  j["name"] = "a\"b";
  j["count"] = std::size_t{3};
  j["ok"] = true;
  j["list"] = std::vector<double>{0.5, 2.0};
  j["rows"].push(Json::object({{"x", 1}, {"y", Json::object({{"z", -2}})}}));
  std::ostringstream os;
  j.write(os);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"a\\\"b\",\n"
            "  \"count\": 3,\n"
            "  \"ok\": true,\n"
            "  \"list\": [0.5, 2],\n"
            "  \"rows\": [\n"
            "    {\"x\": 1, \"y\": {\"z\": -2}}\n"
            "  ]\n"
            "}");
}

/// Write `rec` to a scratch file and return what landed there.
std::string writeAndRead(const Record& rec) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("dkf_record_" + std::to_string(::getpid()) + ".json");
  EXPECT_TRUE(rec.write(path.string()));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  return text.str();
}

TEST(Record, WritesTheOneSchema) {
  Record rec("unit", "a claim");
  rec.config()["n"] = 4;
  rec.deterministic()["vtime_ns"] = 1234;
  rec.wall()["ns"] = spreadOf(samplesOf({3.0, 1.0, 2.0}));
  const std::string out = writeAndRead(rec);
  for (const char* key : {"\"bench\": \"unit\"", "\"claim\": \"a claim\"",
                          "\"host\": {\"cpu\": ", "\"compiler\": ",
                          "\"build_type\": ", "\"config\": {\"n\": 4}",
                          "\"deterministic\": {\"vtime_ns\": 1234}",
                          "\"wall\": {\"ns\": {\"median\": 2, \"min\": 1, "
                          "\"max\": 3, \"n\": 3}}"}) {
    EXPECT_NE(out.find(key), std::string::npos) << key << " in\n" << out;
  }
  EXPECT_LT(out.find("\"host\""), out.find("\"config\""));
  EXPECT_LT(out.find("\"deterministic\""), out.find("\"wall\""));
}

TEST(Record, VirtualTimeRecordHasNoWallBlock) {
  Record rec("unit", "virtual only");
  rec.deterministic()["vtime_ns"] = 1;
  EXPECT_EQ(writeAndRead(rec).find("\"wall\""), std::string::npos);
}

TEST(Record, UnwritablePathFails) {
  Record rec("unit", "claim");
  EXPECT_FALSE(rec.write("/nonexistent-dkf-dir/record.json"));
}

}  // namespace
}  // namespace dkf::bench
