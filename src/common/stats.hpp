// Small statistics helpers used by the benchmark harness and the schemes'
// internal instrumentation (time-breakdown counters for Fig. 11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace dkf {

/// Streaming mean/min/max/stddev accumulator (Welford's algorithm).
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Stores all samples; supports exact percentiles. Used for per-iteration
/// latencies where the paper reports averages of 500 iterations.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  void clear() { samples_.clear(); }

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double percentile(double p) const;  ///< p in [0,100]; exact, nearest-rank.
  double min() const { return percentile(0.0); }
  double median() const { return percentile(50.0); }
  double max() const { return percentile(100.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// The five cost categories of the paper's Fig. 11 time breakdown, accumulated
/// in virtual nanoseconds by the DDT-processing schemes.
struct TimeBreakdown {
  DurationNs pack_unpack{0};  ///< time inside pack/unpack GPU kernels / CPU copies
  DurationNs launching{0};    ///< CPU-side kernel/copy launch (driver) overhead
  DurationNs scheduling{0};   ///< event record / fusion scheduler enqueue+dequeue
  DurationNs synchronize{0};  ///< CPU-GPU completion sync (stream sync, event query, polling)
  DurationNs communication{0};  ///< observed (non-overlapped) network time

  TimeBreakdown& operator+=(const TimeBreakdown& o);
  DurationNs total() const {
    return pack_unpack + launching + scheduling + synchronize + communication;
  }
  void reset() { *this = TimeBreakdown{}; }
};

}  // namespace dkf
