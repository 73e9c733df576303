#include "schemes/fusion_engine.hpp"

namespace dkf::schemes {

FusionEngine::FusionEngine(sim::Engine& eng, sim::CpuTimeline& cpu,
                           gpu::Gpu& gpu, core::FusionPolicy policy,
                           std::string_view display_name)
    : DdtEngine(eng, cpu, gpu),
      scheduler_(eng, cpu, gpu, policy),
      fallback_path_(eng, cpu, gpu),
      display_name_(display_name) {}

sim::Task<Ticket> FusionEngine::submit(core::FusionRequest req) {
  ++submissions_;
  const std::int64_t uid = co_await scheduler_.enqueue(std::move(req));
  if (uid >= 0) co_return Ticket{uid};
  // Request list full (§IV-A2 ①); the rejected request is still intact. A
  // DirectIPC copy declines, and the runtime re-plans it as pack + transfer
  // + unpack; a pack or unpack runs synchronously on the GPU-Sync path.
  if (req.op == core::FusionOp::DirectIPC) co_return Ticket{};
  ++fallbacks_;
  co_await fallback_path_.submit(std::move(req));
  breakdown_ += fallback_path_.breakdown();
  fallback_path_.breakdown().reset();
  co_return kFinished;
}

void FusionEngine::foldBreakdown() {
  breakdown_ += scheduler_.breakdown();
  scheduler_.breakdown().reset();
}

sim::Task<void> FusionEngine::flush() {
  co_await scheduler_.flush();
  foldBreakdown();
}

}  // namespace dkf::schemes
