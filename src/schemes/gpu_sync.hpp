// GPU-Sync [8], [22]: one packing/unpacking kernel per operation, followed
// by an explicit cudaStreamSynchronize. Simple and correct, but the CPU
// stays busy synchronizing at every kernel boundary, so there is zero
// overlap between DDT processing and communication — the SYNCHRONOUS lane
// of the paper's Fig. 2.
#pragma once

#include "schemes/ddt_engine.hpp"

namespace dkf::schemes {

class GpuSyncEngine final : public DdtEngine {
 public:
  GpuSyncEngine(sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu);

  std::string_view name() const override { return "GPU-Sync"; }

  /// Returns kFinished: the kernel has completed by then.
  sim::Task<Ticket> submit(core::FusionRequest req) override;

 private:
  gpu::Gpu::StreamId stream_;
};

}  // namespace dkf::schemes
