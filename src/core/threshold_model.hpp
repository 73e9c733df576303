// Model-based fusion-threshold prediction — the paper's stated future work
// (§IV-C: "In future work, we plan to develop a model-based prediction to
// dynamically figure out the optimal threshold for kernel fusion that can
// maximize the overlap between the fused kernel and communication.").
//
// The model follows the paper's own principle: "make sure the running time
// of the fused kernel is longer than the kernel launch overhead, either
// through fusing more kernels or fusing more data in each kernel", balanced
// against the cost of delaying communication.
//
// For a batch of B bytes with mean contiguous run r:
//   t_kernel(B)  = kernel_fixed + B / (eff(r) * pack_bw)   fused kernel time
//   t_launch     = kernel_launch_overhead                   paid once per batch
//   t_wire(B)    = B / net_bw                               transfer time
//
// Under-fused: B too small -> t_kernel(B) << t_launch, launches dominate.
// Over-fused:  B too large -> the first message is delayed by t_kernel(B)
//              with nothing on the wire to overlap it.
//
// The predictor picks the smallest B where the launch overhead is amortized
// to at most `launch_amortization` of the batch's kernel time AND the
// kernel time does not exceed `max_delay_fraction` of the batch's wire time
// (so the delayed communication can still be fully overlapped by the next
// batch's kernel). The result is clamped to sane bounds and quantized to
// whole operations.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "ddt/layout.hpp"
#include "hw/spec.hpp"

namespace dkf::core {

struct ThresholdModelParams {
  /// Target: launch overhead <= this fraction of fused-kernel time.
  double launch_amortization{0.25};
  /// Target: fused-kernel time <= this multiple of its own wire time
  /// (larger batches delay communication past the overlap window).
  double max_delay_fraction{1.0};
  std::size_t min_threshold{16 * 1024};
  std::size_t max_threshold{64ull * 1024 * 1024};
};

class ThresholdModel {
 public:
  ThresholdModel(const hw::GpuSpec& gpu, BytesPerSecond network_bandwidth,
                 ThresholdModelParams params = {});

  /// Effective fused-kernel packing bandwidth (bytes/ns) for layouts with
  /// mean contiguous run `mean_run_bytes`, assuming enough requests to
  /// occupy the device.
  double packBandwidth(double mean_run_bytes) const;

  /// Predicted fused-kernel execution time for a batch of `bytes`.
  DurationNs kernelTime(std::size_t bytes, double mean_run_bytes) const;

  /// The model's threshold for a workload whose operations carry
  /// `op_bytes` payload with mean contiguous run `mean_run_bytes`.
  std::size_t predict(std::size_t op_bytes, double mean_run_bytes) const;

  /// Convenience: predict from a flattened layout.
  std::size_t predict(const ddt::Layout& layout) const {
    return predict(layout.size(), layout.meanBlock());
  }

  const ThresholdModelParams& params() const { return params_; }

 private:
  hw::GpuSpec gpu_;
  BytesPerSecond net_;
  ThresholdModelParams params_;
};

}  // namespace dkf::core
