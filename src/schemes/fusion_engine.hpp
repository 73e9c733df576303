// The proposed scheme: dynamic kernel fusion (this paper, §IV).
//
// A thin DdtEngine adapter over core::FusionScheduler. Pack, unpack, and
// DirectIPC requests are enqueued into the request list; the scheduler
// launches fused kernels per its threshold policy; tickets map to request
// UIDs and completion is the scheduler's ④ query. If the request list is
// full, a pack or unpack takes the paper's fallback path (an inline
// GPU-Sync operation) rather than failing, and a DirectIPC copy declines.
//
// "Proposed" uses the 512 KB default threshold; "Proposed-Tuned" is the same
// engine constructed with the per-workload best threshold found by the
// Fig. 8 sweep.
#pragma once

#include <string>

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

  sim::Task<Ticket> submit(core::FusionRequest req) override;
  bool supportsDirect() const override { return true; }
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
  bool query(const Ticket& t) override { return scheduler_.query(t.id); }

  core::FusionScheduler scheduler_;
  GpuSyncEngine fallback_path_;
  std::string display_name_;
  std::size_t fallbacks_{0};
};

}  // namespace dkf::schemes
