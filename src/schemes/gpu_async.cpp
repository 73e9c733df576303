#include "schemes/gpu_async.hpp"

#include <utility>

#include "common/check.hpp"

namespace dkf::schemes {

GpuAsyncEngine::GpuAsyncEngine(sim::Engine& eng, sim::CpuTimeline& cpu,
                               gpu::Gpu& gpu, std::size_t streams)
    : DdtEngine(eng, cpu, gpu) {
  DKF_CHECK(streams > 0);
  streams_.reserve(streams);
  for (std::size_t i = 0; i < streams; ++i) {
    streams_.push_back(gpu.createStream());
  }
}

sim::Task<Ticket> GpuAsyncEngine::submit(core::FusionRequest req) {
  if (req.op == core::FusionOp::DirectIPC) co_return Ticket{};
  ++submissions_;
  const gpu::Gpu::StreamId stream = streams_[next_stream_];
  next_stream_ = (next_stream_ + 1) % streams_.size();

  // Kernel launch (full overhead) ...
  const gpu::Gpu::KernelHandle handle = co_await launchKernel(stream, req);
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

bool GpuAsyncEngine::query(const Ticket& t) {
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
