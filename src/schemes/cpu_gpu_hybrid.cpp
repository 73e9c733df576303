#include "schemes/cpu_gpu_hybrid.hpp"

#include <cmath>

namespace dkf::schemes {

CpuGpuHybridEngine::CpuGpuHybridEngine(sim::Engine& eng, sim::CpuTimeline& cpu,
                                       gpu::Gpu& gpu, Tuning tuning,
                                       std::string_view display_name)
    : DdtEngine(eng, cpu, gpu),
      tuning_(tuning),
      display_name_(display_name),
      gpu_path_(eng, cpu, gpu) {}

void CpuGpuHybridEngine::setTracer(sim::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ && tracer_->isEnabled()) track_ = tracer_->track(display_name_);
}

bool CpuGpuHybridEngine::usesCpuPath(const ddt::Layout& layout) const {
  if (!gpu_->nodeSpec().gdrcopy.available) return false;
  return layout.size() <= tuning_.cpu_max_bytes &&
         layout.blockCount() <= tuning_.cpu_max_blocks;
}

sim::Task<void> CpuGpuHybridEngine::cpuCopy(const core::FusionRequest& req) {
  const ddt::Layout& layout = *req.layout;
  const auto& gdr = gpu_->nodeSpec().gdrcopy;
  // Model [24]'s pipelined load/store loop: one BAR1 transaction setup,
  // streaming at the write-combined bandwidth, plus a fixed per-block cost.
  const auto stream_time = static_cast<DurationNs>(
      std::ceil(static_cast<double>(layout.size()) /
                gdr.write_bandwidth.bytesPerNs()));
  const DurationNs total =
      gdr.latency + stream_time +
      tuning_.per_block_cost * static_cast<DurationNs>(layout.blockCount());
  co_await cpu_->busy(total);
  breakdown_.pack_unpack += total;
  core::moveOnHost(req);
}

sim::Task<Ticket> CpuGpuHybridEngine::submit(core::FusionRequest req) {
  if (req.op == core::FusionOp::DirectIPC) co_return Ticket{};
  ++submissions_;
  const bool cpu_path = usesCpuPath(*req.layout);
  if (tracer_ && tracer_->isEnabled()) {
    tracer_->instant(track_,
                     std::string(cpu_path ? "gdrcopy " : "gpu-sync ") +
                         (req.op == core::FusionOp::Packing ? "pack"
                                                            : "unpack") +
                         "[" + std::to_string(req.bytes()) + " B]",
                     eng_->now(), "hybrid");
  }
  if (cpu_path) {
    ++cpu_ops_;
    co_await cpuCopy(req);
    co_return kFinished;
  }
  ++gpu_ops_;
  co_await gpu_path_.submit(std::move(req));
  breakdown_ += gpu_path_.breakdown();
  gpu_path_.breakdown().reset();
  co_return kFinished;
}

}  // namespace dkf::schemes
