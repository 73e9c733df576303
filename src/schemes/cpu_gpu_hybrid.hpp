// CPU-GPU-Hybrid [24]: adaptively pick a CPU-driven GDRCopy load/store loop
// (no GPU driver involvement at all) for small, dense layouts, and fall back
// to the GPU kernel path otherwise. With the GDRCopy kernel module the CPU
// path completely removes launch overhead, which is why this scheme wins
// the small-dense corner of Fig. 12(c) — and why it collapses for sparse
// layouts (per-block CPU loop cost) and large messages (BAR1 bandwidth).
// On machines without GDRCopy (ABCI), every operation takes the GPU path.
//
// Built with the production library's tuning, the same engine is the
// MVAPICH2-GDR baseline of Fig. 14 (§V-C: "the optimized scheme in
// MVAPICH2-GDR, which adaptively uses CPU-GPU-Hybrid and GPU-Sync
// schemes").
//
// Layout flattening is cached ([24]'s layout cache) by the MPI runtime; the
// engine sees already-flattened layouts.
#pragma once

#include <string>

#include "hw/spec.hpp"
#include "schemes/ddt_engine.hpp"
#include "schemes/gpu_sync.hpp"

namespace dkf::schemes {

/// Switch-over heuristics for the hybrid scheme.
struct HybridTuning {
  /// CPU path only below this total payload.
  std::size_t cpu_max_bytes{256 * 1024};
  /// CPU path only below this many contiguous blocks.
  std::size_t cpu_max_blocks{512};
  /// Per-block bookkeeping cost of the CPU load/store loop.
  DurationNs per_block_cost{ns(55)};
};

class CpuGpuHybridEngine final : public DdtEngine {
 public:
  using Tuning = HybridTuning;

  CpuGpuHybridEngine(sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu,
                     Tuning tuning = {},
                     std::string_view display_name = "CPU-GPU-Hybrid");

  std::string_view name() const override { return display_name_; }

  /// Per-op routing decisions (GDRCopy vs. GPU-Sync kernel) are emitted as
  /// instants on a track named after the engine.
  void setTracer(sim::Tracer* tracer) override;

  /// Returns kFinished: both paths complete before returning.
  sim::Task<Ticket> submit(core::FusionRequest req) override;

  /// True if this layout takes the CPU (GDRCopy) path on this machine.
  bool usesCpuPath(const ddt::Layout& layout) const;

  std::size_t cpuPathOps() const { return cpu_ops_; }
  std::size_t gpuPathOps() const { return gpu_ops_; }

 private:
  /// Blocking CPU-driven gdrcopy pack/unpack; returns when bytes are moved.
  sim::Task<void> cpuCopy(const core::FusionRequest& req);

  Tuning tuning_;
  std::string display_name_;
  GpuSyncEngine gpu_path_;
  sim::Tracer* tracer_{nullptr};
  std::uint32_t track_{0};
  std::size_t cpu_ops_{0};
  std::size_t gpu_ops_{0};
};

}  // namespace dkf::schemes
