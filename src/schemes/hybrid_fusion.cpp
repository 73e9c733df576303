#include "schemes/hybrid_fusion.hpp"

#include <algorithm>

#include "common/check.hpp"

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
    : eng_(&eng),
      cpu_path_(eng, cpu, gpu, combinedTuning(tuning)),
      fusion_path_(eng, cpu, gpu, policy, "Proposed+Hybrid") {}

void HybridFusionEngine::setTracer(sim::Tracer* tracer) {
  tracer_ = tracer;
  fusion_path_.setTracer(tracer);
  if (tracer_ && tracer_->isEnabled()) {
    cpu_track_ = tracer_->track("Proposed+Hybrid.cpu");
  }
}

Ticket HybridFusionEngine::tagCpu(Ticket t) {
  if (!t.valid()) return t;
  DKF_CHECK_MSG(t.id < kCpuTag, "CPU-path ticket id overflows the tag space");
  return Ticket{t.id | kCpuTag};
}

Ticket HybridFusionEngine::checkedFusion(Ticket t) {
  DKF_CHECK_MSG((t.id & kCpuTag) == 0,
                "fusion-path ticket " << t.id
                                      << " collides with the CPU tag bit");
  return t;
}

sim::Task<Ticket> HybridFusionEngine::submitPack(ddt::LayoutPtr layout,
                                                 gpu::MemSpan origin,
                                                 gpu::MemSpan packed) {
  ++submissions_;
  if (cpu_path_.usesCpuPath(*layout)) {
    if (tracer_ && tracer_->isEnabled()) {
      tracer_->instant(cpu_track_,
                       "cpu pack[" + std::to_string(layout->size()) + " B]",
                       eng_->now(), "hybrid");
    }
    Ticket t = co_await cpu_path_.submitPack(std::move(layout), origin, packed);
    breakdown_ += cpu_path_.breakdown();
    cpu_path_.breakdown().reset();
    co_return tagCpu(t);
  }
  co_return checkedFusion(co_await fusion_path_.submitPack(std::move(layout),
                                                           origin, packed));
}

sim::Task<Ticket> HybridFusionEngine::submitUnpack(ddt::LayoutPtr layout,
                                                   gpu::MemSpan packed,
                                                   gpu::MemSpan origin) {
  ++submissions_;
  if (cpu_path_.usesCpuPath(*layout)) {
    if (tracer_ && tracer_->isEnabled()) {
      tracer_->instant(cpu_track_,
                       "cpu unpack[" + std::to_string(layout->size()) + " B]",
                       eng_->now(), "hybrid");
    }
    Ticket t =
        co_await cpu_path_.submitUnpack(std::move(layout), packed, origin);
    breakdown_ += cpu_path_.breakdown();
    cpu_path_.breakdown().reset();
    co_return tagCpu(t);
  }
  co_return checkedFusion(co_await fusion_path_.submitUnpack(std::move(layout),
                                                             packed, origin));
}

sim::Task<Ticket> HybridFusionEngine::submitDirect(ddt::LayoutPtr src_layout,
                                                   gpu::MemSpan src,
                                                   ddt::LayoutPtr dst_layout,
                                                   gpu::MemSpan dst) {
  ++submissions_;
  co_return checkedFusion(co_await fusion_path_.submitDirect(
      std::move(src_layout), src, std::move(dst_layout), dst));
}

bool HybridFusionEngine::done(const Ticket& t) {
  if (!t.valid()) return false;
  if (t.id & kCpuTag) return true;  // CPU path completes synchronously
  return fusion_path_.done(t);
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
