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

  sim::Task<Ticket> submitPack(ddt::LayoutPtr layout, gpu::MemSpan origin,
                               gpu::MemSpan packed) override;
  sim::Task<Ticket> submitUnpack(ddt::LayoutPtr layout, gpu::MemSpan packed,
                                 gpu::MemSpan origin) override;
  bool supportsDirect() const override { return true; }
  sim::Task<Ticket> submitDirect(ddt::LayoutPtr src_layout, gpu::MemSpan src,
                                 ddt::LayoutPtr dst_layout,
                                 gpu::MemSpan dst) override;
  bool done(const Ticket& t) override;
  void foldBreakdown() override;
  bool flushPending() const override { return fusion_path_.flushPending(); }
  sim::Task<void> flush() override;

  std::size_t cpuPathOps() const { return cpu_path_.cpuPathOps(); }
  std::size_t fusedOps() const { return fusion_path_.submissions(); }

  /// CPU-path tickets carry this tag bit; the two id spaces are disjoint
  /// BY CONSTRUCTION, not by magnitude: fusion-path ids (request-list UIDs
  /// and the fallback range at 2^62) never set bit 61, which done() checks,
  /// so a long run can never alias a fusion ticket into the CPU space the
  /// way a plain `id >= base` comparison eventually would.
  static constexpr std::int64_t kCpuTag = std::int64_t{1} << 61;

 private:
  /// Tag a CPU-path ticket / assert a fusion-path ticket stays untagged.
  static Ticket tagCpu(Ticket t);
  static Ticket checkedFusion(Ticket t);

  sim::Engine* eng_;
  CpuGpuHybridEngine cpu_path_;
  FusionEngine fusion_path_;
  sim::Tracer* tracer_{nullptr};
  std::uint32_t cpu_track_{0};
};

}  // namespace dkf::schemes
