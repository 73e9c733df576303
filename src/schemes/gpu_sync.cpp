#include "schemes/gpu_sync.hpp"

namespace dkf::schemes {

namespace {
/// Kernel launches can fail under an injected FaultPlan; retry with
/// doubling backoff before declaring the run broken.
constexpr std::size_t kMaxLaunchAttempts = 10;
constexpr DurationNs kLaunchRetryBackoff = us(2);
}  // namespace

GpuSyncEngine::GpuSyncEngine(sim::Engine& eng, sim::CpuTimeline& cpu,
                             gpu::Gpu& gpu)
    : eng_(&eng), cpu_(&cpu), gpu_(&gpu), stream_(gpu.createStream()) {}

sim::Task<Ticket> GpuSyncEngine::runOne(gpu::Gpu::Op op) {
  ++submissions_;

  // Launch one kernel for this single operation...
  gpu::Gpu::KernelHandle handle;
  for (std::size_t attempt = 0;; ++attempt) {
    co_await cpu_->busy(gpu_->spec().kernel_launch_overhead);
    breakdown_.launching += gpu_->spec().kernel_launch_overhead;
    std::vector<gpu::Gpu::Op> ops;
    ops.push_back(op.clone());
    handle = gpu_->launchKernel(stream_, std::move(ops));
    if (!handle.failed) break;
    DKF_CHECK_MSG(attempt + 1 < kMaxLaunchAttempts,
                  "GPU-Sync kernel launch failed " << kMaxLaunchAttempts
                                                   << " times in a row");
    co_await eng_->delay(kLaunchRetryBackoff << attempt);
  }
  breakdown_.pack_unpack += handle.end - handle.start;

  // ...and busy-wait at its boundary (the defining cost of this scheme:
  // cudaStreamSynchronize holds the progress thread).
  const DurationNs held = co_await cpu_->holdUntil(handle.end);
  co_await cpu_->busy(gpu_->spec().driver_call_overhead);
  breakdown_.synchronize += held + gpu_->spec().driver_call_overhead;

  co_return Ticket{next_id_++};
}

sim::Task<Ticket> GpuSyncEngine::submitPack(ddt::LayoutPtr layout,
                                            gpu::MemSpan origin,
                                            gpu::MemSpan packed) {
  gpu::Gpu::Op op;
  op.kind = gpu::Gpu::Op::Kind::Pack;
  op.layout = std::move(layout);
  op.src = origin.bytes;
  op.dst = packed.bytes;
  co_return co_await runOne(std::move(op));
}

sim::Task<Ticket> GpuSyncEngine::submitUnpack(ddt::LayoutPtr layout,
                                              gpu::MemSpan packed,
                                              gpu::MemSpan origin) {
  gpu::Gpu::Op op;
  op.kind = gpu::Gpu::Op::Kind::Unpack;
  op.layout = std::move(layout);
  op.src = packed.bytes;
  op.dst = origin.bytes;
  co_return co_await runOne(std::move(op));
}

bool GpuSyncEngine::done(const Ticket& t) {
  return t.valid();  // submissions block until complete
}

}  // namespace dkf::schemes
