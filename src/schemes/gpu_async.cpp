#include "schemes/gpu_async.hpp"

#include <utility>

namespace dkf::schemes {

namespace {
/// Injected launch failures (FaultPlan) are retried with doubling backoff.
constexpr std::size_t kMaxLaunchAttempts = 10;
constexpr DurationNs kLaunchRetryBackoff = us(2);
}  // namespace

GpuAsyncEngine::GpuAsyncEngine(sim::Engine& eng, sim::CpuTimeline& cpu,
                               gpu::Gpu& gpu, std::size_t streams)
    : eng_(&eng), cpu_(&cpu), gpu_(&gpu) {
  DKF_CHECK(streams > 0);
  streams_.reserve(streams);
  for (std::size_t i = 0; i < streams; ++i) {
    streams_.push_back(gpu.createStream());
  }
}

sim::Task<Ticket> GpuAsyncEngine::launchOne(gpu::Gpu::Op op) {
  ++submissions_;
  const gpu::Gpu::StreamId stream = streams_[next_stream_];
  next_stream_ = (next_stream_ + 1) % streams_.size();

  // Kernel launch (full overhead) ...
  gpu::Gpu::KernelHandle handle;
  for (std::size_t attempt = 0;; ++attempt) {
    co_await cpu_->busy(gpu_->spec().kernel_launch_overhead);
    breakdown_.launching += gpu_->spec().kernel_launch_overhead;
    std::vector<gpu::Gpu::Op> ops;
    ops.push_back(op.clone());
    handle = gpu_->launchKernel(stream, std::move(ops));
    if (!handle.failed) break;
    DKF_CHECK_MSG(attempt + 1 < kMaxLaunchAttempts,
                  "GPU-Async kernel launch failed " << kMaxLaunchAttempts
                                                    << " times in a row");
    co_await eng_->delay(kLaunchRetryBackoff << attempt);
  }
  breakdown_.pack_unpack += handle.end - handle.start;

  // ... plus cudaEventRecord so completion can be tracked without a sync.
  // The paper books this under "Scheduling" (Fig. 11).
  co_await cpu_->busy(gpu_->spec().driver_call_overhead);
  breakdown_.scheduling += gpu_->spec().driver_call_overhead;
  const auto event = gpu_->createEvent();
  gpu_->eventRecord(event, stream);

  const Ticket t{next_id_++};
  events_.emplace(t.id, event);
  co_return t;
}

sim::Task<Ticket> GpuAsyncEngine::submitPack(ddt::LayoutPtr layout,
                                             gpu::MemSpan origin,
                                             gpu::MemSpan packed) {
  gpu::Gpu::Op op;
  op.kind = gpu::Gpu::Op::Kind::Pack;
  op.layout = std::move(layout);
  op.src = origin.bytes;
  op.dst = packed.bytes;
  co_return co_await launchOne(std::move(op));
}

sim::Task<Ticket> GpuAsyncEngine::submitUnpack(ddt::LayoutPtr layout,
                                               gpu::MemSpan packed,
                                               gpu::MemSpan origin) {
  gpu::Gpu::Op op;
  op.kind = gpu::Gpu::Op::Kind::Unpack;
  op.layout = std::move(layout);
  op.src = packed.bytes;
  op.dst = origin.bytes;
  co_return co_await launchOne(std::move(op));
}

bool GpuAsyncEngine::done(const Ticket& t) {
  if (!t.valid()) return false;
  // Issued ids are [0, next_id_); anything else was never submitted here
  // and "done" would be a phantom completion, not an already-retired one.
  DKF_CHECK_MSG(t.id < next_id_,
                "done() for ticket " << t.id << " never issued (issued ids "
                                     << "are [0, " << next_id_ << "))");
  auto it = events_.find(t.id);
  if (it == events_.end()) return true;  // already retired
  // Every completion check is a cudaEventQuery driver call; its CPU time
  // is owed at the next progress() pass (done() itself must stay
  // non-blocking). These repeated queries are the extra synchronization
  // penalty the paper blames for GPU-Async losing to GPU-Sync when the
  // kernels are too short to hide driver overhead (§V-B).
  deferred_query_cost_ += gpu_->spec().driver_call_overhead;
  if (!gpu_->eventQuery(it->second)) return false;
  events_.erase(it);
  return true;
}

DurationNs GpuAsyncEngine::progress() {
  // The caller spends the deferred queries on its CPU timeline.
  breakdown_.synchronize += deferred_query_cost_;
  return std::exchange(deferred_query_cost_, 0);
}

}  // namespace dkf::schemes
