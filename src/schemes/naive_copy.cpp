#include "schemes/naive_copy.hpp"

#include <algorithm>
#include <cmath>

namespace dkf::schemes {

sim::Task<Ticket> NaiveCopyEngine::submit(core::FusionRequest req) {
  if (req.op == core::FusionOp::DirectIPC) co_return Ticket{};
  ++submissions_;
  const ddt::Layout& layout = *req.layout;
  const std::size_t blocks = std::max<std::size_t>(layout.blockCount(), 1);
  copy_calls_ += blocks;

  // CPU side: one cudaMemcpyAsync issue per contiguous run.
  const DurationNs cpu_cost =
      gpu_->spec().driver_call_overhead * static_cast<DurationNs>(blocks);
  breakdown_.launching += cpu_cost;

  // Device side: each run is a separate staged transfer over the CPU-GPU
  // link — per-copy latency plus its share of serialization.
  const auto& link = gpu_->nodeSpec().cpu_gpu;
  const auto stream_time = static_cast<DurationNs>(std::ceil(
      static_cast<double>(layout.size()) / link.bandwidth.bytesPerNs()));
  const DurationNs device_cost =
      link.latency * static_cast<DurationNs>(blocks) + stream_time;
  breakdown_.pack_unpack += device_cost;

  // The issue loop occupies the CPU; the staged copies stream on the link
  // concurrently; the final cudaStreamSynchronize busy-waits for the last
  // copy to land.
  const TimeNs issue_start = std::max(eng_->now(), cpu_->busyUntil());
  co_await cpu_->busy(cpu_cost);
  const DurationNs sync_cost = gpu_->spec().driver_call_overhead;
  breakdown_.synchronize += sync_cost;
  const DurationNs held = co_await cpu_->holdUntil(issue_start + device_cost);
  breakdown_.synchronize += held;
  co_await cpu_->busy(sync_cost);

  core::moveOnHost(req);
  co_return kFinished;
}

}  // namespace dkf::schemes
