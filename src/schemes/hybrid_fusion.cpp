#include "schemes/hybrid_fusion.hpp"

#include <algorithm>

namespace dkf::schemes {

namespace {

/// The combination only routes to GDRCopy where the CPU path beats a FUSED
/// launch (whose overhead is amortized, unlike standalone hybrid's
/// comparison against per-op GPU-Sync launches): roughly one kernel-launch
/// overhead worth of BAR1 streaming.
HybridTuning combinedTuning(HybridTuning base) {
  base.cpu_max_bytes = std::min<std::size_t>(base.cpu_max_bytes, 16 * 1024);
  base.cpu_max_blocks = std::min<std::size_t>(base.cpu_max_blocks, 64);
  return base;
}

}  // namespace

HybridFusionEngine::HybridFusionEngine(sim::Engine& eng, sim::CpuTimeline& cpu,
                                       gpu::Gpu& gpu,
                                       core::FusionPolicy policy,
                                       HybridTuning tuning)
    : DdtEngine(eng, cpu, gpu),
      cpu_path_(eng, cpu, gpu, combinedTuning(tuning), "Proposed+Hybrid.cpu"),
      fusion_path_(eng, cpu, gpu, policy, "Proposed+Hybrid") {}

void HybridFusionEngine::setTracer(sim::Tracer* tracer) {
  cpu_path_.setTracer(tracer);
  fusion_path_.setTracer(tracer);
}

sim::Task<Ticket> HybridFusionEngine::submit(core::FusionRequest req) {
  ++submissions_;
  if (req.op != core::FusionOp::DirectIPC &&
      cpu_path_.usesCpuPath(*req.layout)) {
    const Ticket t = co_await cpu_path_.submit(std::move(req));
    breakdown_ += cpu_path_.breakdown();
    cpu_path_.breakdown().reset();
    co_return t;
  }
  co_return co_await fusion_path_.submit(std::move(req));
}

void HybridFusionEngine::foldBreakdown() {
  fusion_path_.foldBreakdown();
  breakdown_ += fusion_path_.breakdown();
  fusion_path_.breakdown().reset();
}

sim::Task<void> HybridFusionEngine::flush() {
  co_await fusion_path_.flush();
  foldBreakdown();
}

}  // namespace dkf::schemes
