// The tail-percentile sample rule, medians and the metric declarations of
// the benchmark. Percentiles themselves come from the library's
// nearest-rank helper (bench_util/percentiles.hpp).
//
// Every metric the benchmark prints is declared once here with its unit and
// direction; BENCHMARK.json names the same metrics, and the benchmark's
// tests check the two agree.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The reporting rule for tail percentiles: a percentile may be reported
/// only when at least ten samples lie beyond it, i.e. n * (1 - p) >= 10.
bool tailReportable(std::size_t n, double p);

/// Median of a non-empty set of doubles (mean of the middle two for even n).
double median(std::vector<double> values);

enum class Better { Higher, Lower };
enum class Scope { EndToEnd, PerLayer };

struct MetricDecl {
  const char* name;
  const char* unit;
  Better better;
  Scope scope;
};

/// Every metric the benchmark can print, end-to-end ones first.
const std::vector<MetricDecl>& metricTable();
const MetricDecl* findMetric(const std::string& name);

/// The metrics of one run, by name. set() rejects undeclared names; json()
/// prints exactly the declared metrics of one scope and fails when any of
/// them was never set, so a printed result is always complete.
class MetricSet {
 public:
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...} over the scope's metrics.
  std::string json(Scope scope) const;

 private:
  std::map<std::string, double> values_;
};

/// A double printed with all its significant digits (round-trip exact).
std::string fmtDouble(double v);

}  // namespace perfbench
