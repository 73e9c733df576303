#include "core/threshold_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dkf::core {

ThresholdModel::ThresholdModel(const hw::GpuSpec& gpu,
                               BytesPerSecond network_bandwidth,
                               ThresholdModelParams params)
    : gpu_(gpu), net_(network_bandwidth), params_(params) {
  DKF_CHECK(params_.launch_amortization > 0.0);
  DKF_CHECK(params_.max_delay_fraction > 0.0);
  DKF_CHECK(params_.min_threshold <= params_.max_threshold);
}

double ThresholdModel::packBandwidth(double mean_run_bytes) const {
  // A well-occupied fused kernel streams at HBM peak scaled by the
  // access efficiency of the layout's contiguous runs.
  return gpu_.hbm_bandwidth.bytesPerNs() *
         gpu_.accessEfficiency(mean_run_bytes);
}

DurationNs ThresholdModel::kernelTime(std::size_t bytes,
                                      double mean_run_bytes) const {
  const double bw = packBandwidth(mean_run_bytes);
  return gpu_.kernel_fixed_cost +
         static_cast<DurationNs>(std::ceil(static_cast<double>(bytes) / bw));
}

std::size_t ThresholdModel::predict(std::size_t op_bytes,
                                    double mean_run_bytes) const {
  DKF_CHECK(op_bytes > 0);

  // Lower bound: enough bytes that ONE launch overhead is no more than
  // `launch_amortization` of the fused kernel's execution time.
  //   launch <= a * (fixed + B/bw)  =>  B >= bw * (launch/a - fixed)
  const double bw = packBandwidth(mean_run_bytes);
  const double launch = static_cast<double>(gpu_.kernel_launch_overhead);
  const double fixed = static_cast<double>(gpu_.kernel_fixed_cost);
  double min_bytes = bw * (launch / params_.launch_amortization - fixed);
  min_bytes = std::max(min_bytes, 0.0);

  // Upper bound: the batch's kernel must not outlast `max_delay_fraction`
  // of its own wire time, or delayed communication stops overlapping.
  //   fixed + B/bw <= d * B/net  =>  B * (d/net - 1/bw) >= fixed
  const double net = net_.bytesPerNs();
  const double lhs = params_.max_delay_fraction / net - 1.0 / bw;
  double max_bytes = static_cast<double>(params_.max_threshold);
  if (lhs > 0.0) {
    // Any batch above fixed/lhs satisfies the constraint: packing is
    // faster than the wire, so delay never accumulates — no upper bound.
  } else {
    // Packing is slower than the wire: batches beyond the point where the
    // kernel alone exceeds the wire time of the data already accumulated
    // start starving the network. Cap at the break-even batch.
    //   fixed + B/bw == d * B/net  has no positive solution when
    //   1/bw > d/net for all B, so cap at the bytes whose kernel time
    //   equals the wire time of one additional batch round:
    const double cap = params_.max_delay_fraction * bw * net /
                       std::max(net - params_.max_delay_fraction * bw, 1e-9) *
                       (fixed / std::max(launch, 1.0) + 1.0);
    max_bytes = std::min(max_bytes, std::max(cap, min_bytes));
  }

  // Quantize up to whole operations and clamp.
  const double ops = std::ceil(min_bytes / static_cast<double>(op_bytes));
  std::size_t threshold =
      static_cast<std::size_t>(std::max(ops, 1.0)) * op_bytes;
  threshold = std::clamp(threshold,
                         params_.min_threshold,
                         static_cast<std::size_t>(
                             std::max(max_bytes,
                                      static_cast<double>(params_.min_threshold))));
  return threshold;
}

}  // namespace dkf::core
