// Proposed+Hybrid: the combination the paper's Related Work suggests —
// "The proposed framework can be combined with [24]'s adaptive protocol as
// an additional option."
//
// Routing per operation:
//   small + dense layout  -> GDRCopy CPU path (no GPU driver at all), the
//                            corner where CPU-GPU-Hybrid beats everything;
//   everything else       -> the dynamic-fusion scheduler.
//
// This engine should therefore dominate BOTH pure schemes across the whole
// MILC sweep: hybrid's small-dense win plus fusion's bulk win, with no
// crossover penalty. `bench/ablation_fusion` (section F) and the MILC
// example quantify it.
#pragma once

#include "schemes/cpu_gpu_hybrid.hpp"
#include "schemes/fusion_engine.hpp"

namespace dkf::schemes {

class HybridFusionEngine final : public DdtEngine {
 public:
  HybridFusionEngine(sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu,
                     core::FusionPolicy policy = {},
                     HybridTuning tuning = {});

  std::string_view name() const override { return "Proposed+Hybrid"; }

  /// Fusion-path activity lands on "Proposed+Hybrid.sched" tracks; CPU-path
  /// routing decisions are emitted as instants on "Proposed+Hybrid.cpu".
  void setTracer(sim::Tracer* tracer) override;

  /// A CPU-path request returns kFinished; the rest take the fusion path.
  sim::Task<Ticket> submit(core::FusionRequest req) override;
  bool supportsDirect() const override { return true; }
  void foldBreakdown() override;
  bool flushPending() const override { return fusion_path_.flushPending(); }
  sim::Task<void> flush() override;
  /// Only the fusion path batches: its pending requests carry their
  /// tenants.
  bool hasPendingFusedWork(TenantId tenant) const override {
    return fusion_path_.hasPendingFusedWork(tenant);
  }

  std::size_t cpuPathOps() const { return cpu_path_.cpuPathOps(); }
  std::size_t fusedOps() const { return fusion_path_.submissions(); }

 private:
  bool query(const Ticket& t) override { return fusion_path_.done(t); }

  CpuGpuHybridEngine cpu_path_;
  FusionEngine fusion_path_;
};

}  // namespace dkf::schemes
