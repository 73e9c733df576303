// AdaptiveGdr: the MVAPICH2-GDR production baseline of Fig. 14 — an
// adaptive selection between the CPU-GPU-Hybrid GDRCopy path and GPU-Sync
// kernels (§V-C: "the optimized scheme in MVAPICH2-GDR, which adaptively
// uses CPU-GPU-Hybrid and GPU-Sync schemes"). Structurally identical to
// CpuGpuHybridEngine but with the production library's more conservative
// switch-over thresholds.
#pragma once

#include "schemes/cpu_gpu_hybrid.hpp"

namespace dkf::schemes {

class AdaptiveGdrEngine final : public DdtEngine {
 public:
  AdaptiveGdrEngine(sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu);

  std::string_view name() const override { return "MVAPICH2-GDR"; }

  /// Per-op adaptive routing decisions (GDRCopy vs. GPU-Sync kernel) are
  /// emitted as instants on an "MVAPICH2-GDR" track.
  void setTracer(sim::Tracer* tracer) override;

  sim::Task<Ticket> submitPack(ddt::LayoutPtr layout, gpu::MemSpan origin,
                               gpu::MemSpan packed) override;
  sim::Task<Ticket> submitUnpack(ddt::LayoutPtr layout, gpu::MemSpan packed,
                                 gpu::MemSpan origin) override;
  bool done(const Ticket& t) override;

 private:
  void traceRoute(const ddt::Layout& layout, const char* what);

  sim::Engine* eng_;
  CpuGpuHybridEngine inner_;
  sim::Tracer* tracer_{nullptr};
  std::uint32_t track_{0};
};

}  // namespace dkf::schemes
