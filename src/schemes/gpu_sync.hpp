// GPU-Sync [8], [22]: one packing/unpacking kernel per operation, followed
// by an explicit cudaStreamSynchronize. Simple and correct, but the CPU
// stays busy synchronizing at every kernel boundary, so there is zero
// overlap between DDT processing and communication — the SYNCHRONOUS lane
// of the paper's Fig. 2.
#pragma once

#include "gpu/gpu.hpp"
#include "sim/cpu.hpp"
#include "schemes/ddt_engine.hpp"
#include "sim/engine.hpp"

namespace dkf::schemes {

class GpuSyncEngine final : public DdtEngine {
 public:
  GpuSyncEngine(sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu);

  std::string_view name() const override { return "GPU-Sync"; }

  sim::Task<Ticket> submitPack(ddt::LayoutPtr layout, gpu::MemSpan origin,
                               gpu::MemSpan packed) override;
  sim::Task<Ticket> submitUnpack(ddt::LayoutPtr layout, gpu::MemSpan packed,
                                 gpu::MemSpan origin) override;
  bool done(const Ticket& t) override;

 private:
  sim::Task<Ticket> runOne(gpu::Gpu::Op op);

  sim::Engine* eng_;
  sim::CpuTimeline* cpu_;
  gpu::Gpu* gpu_;
  gpu::Gpu::StreamId stream_;
  std::int64_t next_id_{0};
};

}  // namespace dkf::schemes
