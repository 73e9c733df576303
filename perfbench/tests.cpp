// The benchmark's own tests: generator determinism, the percentile and
// sample-count rule, failure accounting on a tiny ring, and the metric
// declarations. test_bench.py builds and runs this binary.
#include <gtest/gtest.h>

#include <cstring>
#include <regex>
#include <set>

#include "bench_util/percentiles.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

TEST(Generator, SameSeedSameInputs) {
  EXPECT_EQ(drawBulkLayouts(7, 16), drawBulkLayouts(7, 16));
  std::vector<std::byte> a(1024), b(1024);
  fillMessage(a, 7, 3, 5, 99);
  fillMessage(b, 7, 3, 5, 99);
  EXPECT_EQ(a, b);
  fillMessage(b, 8, 3, 5, 99);
  EXPECT_NE(a, b);
}

TEST(Generator, OtherSeedOtherBulkLayouts) {
  const auto base = drawBulkLayouts(1, 16);
  for (std::uint64_t seed = 2; seed < 12; ++seed) {
    EXPECT_NE(drawBulkLayouts(seed, 16), base) << "seed " << seed;
  }
}

TEST(Generator, BulkLayoutsCoverEveryKindAndBand) {
  const auto layouts = drawBulkLayouts(42, 16);
  ASSERT_EQ(layouts.size(), 16u);
  std::multiset<std::size_t> kinds;
  for (const BulkLayout& l : layouts) {
    kinds.insert(l.kind);
    EXPECT_GE(l.dim, 16u);
    EXPECT_LE(l.dim, 64u);
  }
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(kinds.count(k), 4u);
}

TEST(Generator, BulkMessagesStraddleTheEagerThreshold) {
  bool below = false, above = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const BulkLayout& l : drawBulkLayouts(seed, 16)) {
      const std::size_t bytes = bulkDatatype(l)->size();
      below |= bytes <= 8192;
      above |= bytes > 8192;
    }
  }
  EXPECT_TRUE(below && above);
}

// The vlat percentiles use the library's estimator: rank ceil(p * n),
// 1-based, on the sorted samples.
TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const bench::PercentileSummary s = bench::summarizePercentiles(v);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.p99, 99);
  v.push_back(101);  // n = 101: ranks 51 and 100
  EXPECT_EQ(bench::summarizePercentiles(v).p50, 51);
  EXPECT_EQ(bench::summarizePercentiles(v).p99, 100);
  EXPECT_EQ(bench::summarizePercentiles(std::vector<double>{7}).p99, 7);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(tailReportable(1000, 0.99));
  EXPECT_FALSE(tailReportable(999, 0.99));
  EXPECT_TRUE(tailReportable(20, 0.50));
  EXPECT_FALSE(tailReportable(19, 0.50));
  EXPECT_TRUE(tailReportable(10000, 0.999));
  EXPECT_FALSE(tailReportable(9999, 0.999));
}

TEST(Percentile, Median) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

/// Two ranks on two nodes, 64-deep windows: 1024 measured receives, the
/// fewest the p99 rule accepts.
Config tinyRing() {
  Config c;
  c.seed = 5;
  c.nodes = 2;
  c.gpus_per_node = 1;
  c.window = 64;
  c.units_per_round = 2;
  c.rounds = 4;
  c.setup_reps = 2;
  c.unit_watchdog = ms(1);
  return c;
}

TEST(Failures, CleanTinyRingPasses) {
  const RunResult r = runBenchmark(tinyRing(), false);
  EXPECT_FALSE(r.watchdog_tripped);
  EXPECT_EQ(r.tally.failed(), 0u);
  // Two set-ups of one warm-up window each, then eight measured windows.
  EXPECT_EQ(r.tally.attempted, 2u * 64 * (2 + 8));
  EXPECT_EQ(r.metrics.get("vlat.samples"), 1024);
  std::uint64_t counted = 0;
  for (const auto& [v, count] : r.vlat_counts) counted += count;
  EXPECT_EQ(counted, 1024u);
}

TEST(Failures, RunsRepeatAtASeed) {
  const RunResult a = runBenchmark(tinyRing(), false);
  const RunResult b = runBenchmark(tinyRing(), false);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.vend, b.vend);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.vlat_counts, b.vlat_counts);
  Config other = tinyRing();
  other.seed = 6;
  EXPECT_NE(runBenchmark(other, false).digest, a.digest);
}

/// Tamper with the first sampled message rank 1 receives after the
/// warm-ups, writing `bytes` at `offset`.
Config tampered(std::size_t offset, std::vector<std::byte> bytes) {
  Config c = tinyRing();
  auto done = std::make_shared<bool>(false);
  c.tamper = [=](int rank, std::uint64_t seq, std::span<std::byte> msg) {
    if (*done || rank != 1 || seq < 4 * 64 ||
        !sampledForFullCheck(c.seed, 0, seq)) {
      return;
    }
    *done = true;
    std::memcpy(msg.data() + offset, bytes.data(), bytes.size());
  };
  return c;
}

TEST(Failures, CorruptedBodyIsCounted) {
  const RunResult r = runBenchmark(tampered(100, {std::byte{0xff}}), false);
  EXPECT_EQ(r.tally.corrupted, 1u);
  EXPECT_EQ(r.tally.failed(), 1u);
}

TEST(Failures, WrongStampsAreCounted) {
  std::vector<std::byte> sender(8, std::byte{0});
  sender[0] = std::byte{9};
  const RunResult mis = runBenchmark(tampered(0, sender), false);
  EXPECT_EQ(mis.tally.misdelivered, 1u);

  std::vector<std::byte> seq(8, std::byte{0});  // sequence 0: long gone
  const RunResult stale = runBenchmark(tampered(8, seq), false);
  EXPECT_EQ(stale.tally.stale, 1u);
  EXPECT_EQ(stale.tally.failed(), 1u);
}

TEST(Failures, WithheldDeliveryIsMissing) {
  Config c = tinyRing();
  c.withhold_seq = 5 * 64 + 3;  // in the second measured window
  const RunResult r = runBenchmark(c, false);
  EXPECT_TRUE(r.watchdog_tripped);
  EXPECT_GE(r.tally.missing, 1u);
  EXPECT_GE(r.tally.failed(), 1u);
}

TEST(Metrics, EveryMetricDeclaresUnitAndDirection) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> names;
  std::size_t e2e = 0;
  for (const MetricDecl& d : metricTable()) {
    EXPECT_TRUE(std::regex_match(d.name, name_re)) << d.name;
    EXPECT_TRUE(std::regex_match(d.unit, unit_re)) << d.name << " " << d.unit;
    EXPECT_TRUE(d.better == Better::Higher || d.better == Better::Lower);
    EXPECT_TRUE(names.insert(d.name).second) << "duplicate " << d.name;
    e2e += d.scope == Scope::EndToEnd ? 1 : 0;
  }
  EXPECT_EQ(e2e, 6u);
  const MetricDecl* setup = findMetric("setup_s");
  ASSERT_NE(setup, nullptr);
  EXPECT_STREQ(setup->unit, "s");
  EXPECT_EQ(setup->better, Better::Lower);
}

TEST(Metrics, ResultPrintsOnlyWhenComplete) {
  MetricSet m;
  EXPECT_THROW(m.set("no_such_metric", 1), std::logic_error);
  m.set("msgs_per_s", 1);
  EXPECT_THROW(m.json(Scope::EndToEnd), std::logic_error);
}

TEST(Metrics, TracedRunFillsEveryPerLayerMetric) {
  const RunResult r = runBenchmark(tinyRing(), true);
  const std::string json = r.metrics.json(Scope::PerLayer);
  for (const MetricDecl& d : metricTable()) {
    if (d.scope == Scope::PerLayer) {
      EXPECT_NE(json.find('"' + std::string(d.name) + '"'), std::string::npos)
          << d.name;
    }
  }
}

}  // namespace
}  // namespace perfbench
