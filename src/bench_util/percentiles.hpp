// Shared nearest-rank percentile summary for the serving benches.
//
// Every bench that reports tail latency (fig14_production,
// multitenant_trace) and perfbench's latency metrics summarize through this
// helper instead of ad-hoc sorting, so "p99" means the same nearest-rank
// estimator everywhere: rank = ceil(p/100 * n), 1-based, on the sorted
// samples — the estimator SampleSet::percentile already implements.
#pragma once

#include <vector>

#include "common/stats.hpp"

namespace dkf::bench {

struct PercentileSummary {
  double p50{0.0};
  double p99{0.0};
  double p999{0.0};
};

/// Nearest-rank p50/p99/p999 of `s` (zeroes when empty).
PercentileSummary summarizePercentiles(const SampleSet& s);

/// Same, from a raw sample vector (taken by value: sorted internally).
PercentileSummary summarizePercentiles(std::vector<double> samples);

}  // namespace dkf::bench
