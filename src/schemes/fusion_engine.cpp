#include "schemes/fusion_engine.hpp"

namespace dkf::schemes {

FusionEngine::FusionEngine(sim::Engine& eng, sim::CpuTimeline& cpu,
                           gpu::Gpu& gpu, core::FusionPolicy policy,
                           std::string_view display_name)
    : eng_(&eng),
      scheduler_(eng, cpu, gpu, policy),
      fallback_path_(eng, cpu, gpu),
      display_name_(display_name) {}

sim::Task<Ticket> FusionEngine::enqueueOrFallback(core::FusionRequest req) {
  ++submissions_;
  req.tenant = active_tenant_;  // weighted-fair batching keys on this
  const std::int64_t uid = co_await scheduler_.enqueue(std::move(req));
  if (uid >= 0) co_return Ticket{uid};
  co_return Ticket{-1};  // list full; caller decides (we handle below)
}

sim::Task<Ticket> FusionEngine::submitPack(ddt::LayoutPtr layout,
                                           gpu::MemSpan origin,
                                           gpu::MemSpan packed) {
  core::FusionRequest req;
  req.op = core::FusionOp::Packing;
  req.layout = layout;
  req.origin = origin;
  req.target = packed;
  Ticket t = co_await enqueueOrFallback(std::move(req));
  if (t.valid()) co_return t;
  // Fallback: request list full — run this one synchronously (§IV-A2 ①).
  ++fallbacks_;
  co_await fallback_path_.submitPack(std::move(layout), origin, packed);
  breakdown_ += fallback_path_.breakdown();
  fallback_path_.breakdown().reset();
  co_return Ticket{next_fallback_id_++};
}

sim::Task<Ticket> FusionEngine::submitUnpack(ddt::LayoutPtr layout,
                                             gpu::MemSpan packed,
                                             gpu::MemSpan origin) {
  core::FusionRequest req;
  req.op = core::FusionOp::Unpacking;
  req.layout = layout;
  req.origin = packed;
  req.target = origin;
  Ticket t = co_await enqueueOrFallback(std::move(req));
  if (t.valid()) co_return t;
  ++fallbacks_;
  co_await fallback_path_.submitUnpack(std::move(layout), packed, origin);
  breakdown_ += fallback_path_.breakdown();
  fallback_path_.breakdown().reset();
  co_return Ticket{next_fallback_id_++};
}

sim::Task<Ticket> FusionEngine::submitDirect(ddt::LayoutPtr src_layout,
                                             gpu::MemSpan src,
                                             ddt::LayoutPtr dst_layout,
                                             gpu::MemSpan dst) {
  core::FusionRequest req;
  req.op = core::FusionOp::DirectIPC;
  req.layout = std::move(src_layout);
  req.target_layout = std::move(dst_layout);
  req.origin = src;
  req.target = dst;
  co_return co_await enqueueOrFallback(std::move(req));
  // Note: on a full list the invalid ticket propagates; the runtime falls
  // back to pack + transfer + unpack for DirectIPC, matching the paper.
}

sim::Task<Ticket> FusionEngine::submitPlanStep(const core::CompiledPlan& plan,
                                               std::size_t step,
                                               ddt::LayoutPtr live_layout,
                                               ddt::LayoutPtr live_target,
                                               gpu::MemSpan origin,
                                               gpu::MemSpan target) {
  const core::CompiledStep& s = plan.steps.at(step);
  Ticket t = co_await enqueueOrFallback(
      s.bind(live_layout, live_target, origin, target));
  if (t.valid()) co_return t;
  if (s.op == core::FusionOp::DirectIPC) {
    co_return t;  // invalid ticket propagates; the runtime re-plans as
                  // pack + transfer + unpack (same as submitDirect)
  }
  // Request list full: run this one synchronously (§IV-A2 ①), exactly as
  // the per-message entry points do.
  ++fallbacks_;
  if (s.op == core::FusionOp::Packing) {
    co_await fallback_path_.submitPack(std::move(live_layout), origin, target);
  } else {
    co_await fallback_path_.submitUnpack(std::move(live_layout), origin,
                                         target);
  }
  breakdown_ += fallback_path_.breakdown();
  fallback_path_.breakdown().reset();
  co_return Ticket{next_fallback_id_++};
}

bool FusionEngine::done(const Ticket& t) {
  if (!t.valid()) return false;
  if (t.id >= kFallbackBase) return true;  // fallback ops are synchronous
  return scheduler_.query(t.id);
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
