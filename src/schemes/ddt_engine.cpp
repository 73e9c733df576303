#include "schemes/ddt_engine.hpp"

#include "common/check.hpp"

namespace dkf::schemes {

namespace {
/// Kernel launches can fail under an injected FaultPlan; retry with
/// doubling backoff before declaring the run broken.
constexpr std::size_t kMaxLaunchAttempts = 10;
constexpr DurationNs kLaunchRetryBackoff = us(2);
}  // namespace

bool DdtEngine::query(const Ticket& t) {
  DKF_FAIL(name() << " finishes every operation at submit; ticket " << t.id
                  << " was never issued");
}

sim::Task<gpu::Gpu::KernelHandle> DdtEngine::launchKernel(
    gpu::Gpu::StreamId stream, const core::FusionRequest& req) {
  const gpu::Gpu::Op op = core::kernelOp(req);
  for (std::size_t attempt = 0;; ++attempt) {
    co_await cpu_->busy(gpu_->spec().kernel_launch_overhead);
    breakdown_.launching += gpu_->spec().kernel_launch_overhead;
    gpu::Gpu::KernelHandle handle = gpu_->launchKernel(stream, op.clone());
    if (!handle.failed) co_return handle;
    DKF_CHECK_MSG(attempt + 1 < kMaxLaunchAttempts,
                  name() << " kernel launch failed " << kMaxLaunchAttempts
                         << " times in a row");
    co_await eng_->delay(kLaunchRetryBackoff << attempt);
  }
}

sim::Task<void> DdtEngine::flush() { co_return; }

}  // namespace dkf::schemes
