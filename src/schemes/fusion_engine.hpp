// The proposed scheme: dynamic kernel fusion (this paper, §IV).
//
// A thin DdtEngine adapter over core::FusionScheduler. Pack, unpack, and
// DirectIPC operations are enqueued into the request list; the scheduler
// launches fused kernels per its threshold policy; tickets map to request
// UIDs and completion is the scheduler's ④ query. If the request list is
// full, the engine takes the paper's fallback path (an inline GPU-Sync
// operation) rather than failing.
//
// "Proposed" uses the 512 KB default threshold; "Proposed-Tuned" is the same
// engine constructed with the per-workload best threshold found by the
// Fig. 8 sweep.
#pragma once

#include <memory>

#include "core/scheduler.hpp"
#include "schemes/ddt_engine.hpp"
#include "schemes/gpu_sync.hpp"

namespace dkf::schemes {

class FusionEngine final : public DdtEngine {
 public:
  FusionEngine(sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu,
               core::FusionPolicy policy = {},
               std::string_view display_name = "Proposed");

  std::string_view name() const override { return display_name_; }

  /// Scheduler activity (enqueues, rejections, fused batches, backlog)
  /// appears on "<display name>.sched" tracks.
  void setTracer(sim::Tracer* tracer) override {
    scheduler_.setTracer(tracer, display_name_);
  }

  sim::Task<Ticket> submitPack(ddt::LayoutPtr layout, gpu::MemSpan origin,
                               gpu::MemSpan packed) override;
  sim::Task<Ticket> submitUnpack(ddt::LayoutPtr layout, gpu::MemSpan packed,
                                 gpu::MemSpan origin) override;
  bool supportsDirect() const override { return true; }
  sim::Task<Ticket> submitDirect(ddt::LayoutPtr src_layout, gpu::MemSpan src,
                                 ddt::LayoutPtr dst_layout,
                                 gpu::MemSpan dst) override;
  /// Compiled-plan path: the step template binds straight into a request —
  /// no per-message op dispatch — and enqueues with the same full-list
  /// fallback semantics as the submit* entry points.
  sim::Task<Ticket> submitPlanStep(const core::CompiledPlan& plan,
                                   std::size_t step, ddt::LayoutPtr live_layout,
                                   ddt::LayoutPtr live_target,
                                   gpu::MemSpan origin,
                                   gpu::MemSpan target) override;
  bool done(const Ticket& t) override;
  /// Folds the scheduler's costs. Completion is GPU-signalled into the
  /// request list, so the base progress(), which only folds, is enough:
  /// done() charges each query to the scheduler.
  void foldBreakdown() override;
  bool flushPending() const override {
    return scheduler_.requests().pendingCount() > 0;
  }
  sim::Task<void> flush() override;
  bool hasPendingFusedWork(TenantId tenant) const override {
    return scheduler_.requests().hasPendingFor(tenant);
  }

  core::FusionScheduler& scheduler() { return scheduler_; }
  std::size_t fallbacks() const { return fallbacks_; }

 private:
  /// Tickets at or above this id mark fallback (already-complete) ops.
  static constexpr std::int64_t kFallbackBase = std::int64_t{1} << 62;

  sim::Task<Ticket> enqueueOrFallback(core::FusionRequest req);

  sim::Engine* eng_;
  core::FusionScheduler scheduler_;
  GpuSyncEngine fallback_path_;
  std::string display_name_;
  std::size_t fallbacks_{0};
  std::int64_t next_fallback_id_{kFallbackBase};
};

}  // namespace dkf::schemes
