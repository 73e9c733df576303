#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dkf {

void RunningStat::add(double x) {
  ++n_;
  if (n_ == 1) {
    mean_ = min_ = max_ = x;
    m2_ = 0.0;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::percentile(double p) const {
  DKF_CHECK(!samples_.empty());
  DKF_CHECK(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

TimeBreakdown& TimeBreakdown::operator+=(const TimeBreakdown& o) {
  pack_unpack += o.pack_unpack;
  launching += o.launching;
  scheduling += o.scheduling;
  synchronize += o.synchronize;
  communication += o.communication;
  return *this;
}

}  // namespace dkf
