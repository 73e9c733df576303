#include "schemes/gpu_sync.hpp"

namespace dkf::schemes {

GpuSyncEngine::GpuSyncEngine(sim::Engine& eng, sim::CpuTimeline& cpu,
                             gpu::Gpu& gpu)
    : DdtEngine(eng, cpu, gpu), stream_(gpu.createStream()) {}

sim::Task<Ticket> GpuSyncEngine::submit(core::FusionRequest req) {
  if (req.op == core::FusionOp::DirectIPC) co_return Ticket{};
  ++submissions_;

  // Launch one kernel for this single operation...
  const gpu::Gpu::KernelHandle handle = co_await launchKernel(stream_, req);
  breakdown_.pack_unpack += handle.end - handle.start;

  // ...and busy-wait at its boundary (the defining cost of this scheme:
  // cudaStreamSynchronize holds the progress thread).
  const DurationNs held = co_await cpu_->holdUntil(handle.end);
  co_await cpu_->busy(gpu_->spec().driver_call_overhead);
  breakdown_.synchronize += held + gpu_->spec().driver_call_overhead;
  co_return kFinished;
}

}  // namespace dkf::schemes
