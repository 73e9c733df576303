#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>

namespace dkf::core {

FusionScheduler::FusionScheduler(sim::Engine& eng, sim::CpuTimeline& cpu,
                                 gpu::Gpu& gpu, FusionPolicy policy)
    : eng_(&eng),
      cpu_(&cpu),
      gpu_(&gpu),
      policy_(policy),
      list_(policy.list_capacity),
      stream_(gpu.createStream()) {
  counters_.batch_size_hist.resize(policy_.max_requests_per_kernel + 1, 0);
}

void FusionScheduler::setTracer(sim::Tracer* tracer, const std::string& name) {
  tracer_ = tracer;
  trace_name_ = name;
  if (tracer_ && tracer_->isEnabled()) {
    trace_track_ = tracer_->track(name + ".sched");
  }
}

void FusionScheduler::traceBacklog() {
  if (!tracer_ || !tracer_->isEnabled()) return;
  tracer_->counter(trace_name_ + ".pending_bytes", eng_->now(),
                   static_cast<double>(list_.pendingBytes()));
  tracer_->counter(trace_name_ + ".pending_requests", eng_->now(),
                   static_cast<double>(list_.pendingCount()));
}

sim::Task<std::int64_t> FusionScheduler::enqueue(FusionRequest&& req) {
  co_await cpu_->busy(policy_.enqueue_cost);
  const std::int64_t uid = list_.tryEnqueue(std::move(req));
  if (uid < 0) {
    // Full list: the caller re-runs this operation on its fallback path,
    // which accounts for it there — book the wasted attempt separately so
    // Fig. 11 breakdowns don't count the message twice.
    rejected_scheduling_ += policy_.enqueue_cost;
    ++counters_.rejections;
    if (tracer_ && tracer_->isEnabled()) {
      tracer_->instant(trace_track_, "reject", eng_->now(), "fusion");
    }
    co_return uid;  // caller falls back (§IV-A2 ①)
  }
  breakdown_.scheduling += policy_.enqueue_cost;
  ++counters_.enqueues;
  if (tracer_ && tracer_->isEnabled()) {
    tracer_->instant(trace_track_, "enqueue uid=" + std::to_string(uid),
                     eng_->now(), "fusion");
    traceBacklog();
  }

  if (list_.pendingBytes() >= policy_.threshold_bytes ||
      list_.pendingCount() >= policy_.max_requests_per_kernel) {
    co_await launchBatch();  // scenario 2: enough work to hide the launch
  }
  co_return uid;
}

sim::Task<void> FusionScheduler::flush() {
  while (list_.pendingCount() > 0) {
    co_await launchBatch();  // scenario 1: progress engine is blocking
  }
}

DurationNs FusionScheduler::retryBackoff(std::size_t attempt) const {
  // Exponential backoff with a hard ceiling. Shifting by the raw attempt
  // number is UB once it reaches the width of DurationNs (max_launch_attempts
  // is policy, not a constant), so clamp the exponent first: past
  // kMaxBackoffShift the unclamped value already exceeds any sane ceiling.
  constexpr std::size_t kMaxBackoffShift = 32;
  const DurationNs base = std::max<DurationNs>(policy_.launch_retry_backoff, 1);
  const DurationNs cap =
      std::max<DurationNs>(policy_.max_launch_retry_backoff, base);
  if (attempt >= kMaxBackoffShift) return cap;
  return std::min<DurationNs>(base << attempt, cap);
}

sim::Task<void> FusionScheduler::launchBatch() {
  const std::vector<std::size_t> batch =
      list_.claimPendingBatch(policy_.max_requests_per_kernel);
  if (batch.empty()) co_return;

  std::size_t batch_bytes = 0;
  for (const std::size_t slot_index : batch) {
    const FusionRequest& r = list_.slot(slot_index);
    batch_bytes += r.bytes();
    if (r.tenant >= counters_.tenant_fused.size()) {
      counters_.tenant_fused.resize(r.tenant + 1, 0);
    }
    ++counters_.tenant_fused[r.tenant];
  }

  // Lower each request to its kernel-op template ONCE per batch (the
  // request's op kind fixes the kernel op — nothing here depends on the
  // attempt). launchKernel consumes its vector and an injected launch
  // failure queues nothing, so retries clone the templates and re-attach
  // the move-only completion hooks.
  std::vector<gpu::Gpu::Op> op_templates;
  op_templates.reserve(batch.size());
  for (const std::size_t slot_index : batch) {
    op_templates.push_back(kernelOp(list_.slot(slot_index)));
  }
  const auto build_ops = [&op_templates] {
    std::vector<gpu::Gpu::Op> ops;
    ops.reserve(op_templates.size());
    for (const gpu::Gpu::Op& tpl : op_templates) {
      ops.push_back(tpl.clone());
    }
    return ops;
  };
  // ③: the GPU thread block signals the response status directly — one
  // kernel-level fan-in hook for the whole batch instead of a captured
  // closure per op (the batch->slot map is shared across retry attempts).
  auto batch_slots = std::make_shared<std::vector<std::size_t>>(batch);
  const auto completion_fanin = [this, batch_slots] {
    return gpu::Gpu::OpCompleteFn(
        [list = &list_, batch_slots](std::size_t op_index) {
          list->signalCompletion((*batch_slots)[op_index]);
        });
  };

  const TimeNs launch_begin = eng_->now();

  gpu::Gpu::KernelHandle handle;
  for (std::size_t attempt = 0;; ++attempt) {
    // ONE kernel launch overhead for the whole batch — the point of fusion.
    co_await cpu_->busy(gpu_->spec().kernel_launch_overhead);
    breakdown_.launching += gpu_->spec().kernel_launch_overhead;
    handle = gpu_->launchKernel(stream_, build_ops(), completion_fanin());
    if (!handle.failed) break;
    ++counters_.launch_failures;
    if (tracer_ && tracer_->isEnabled()) {
      tracer_->instant(trace_track_,
                       "launch_failed attempt=" + std::to_string(attempt + 1),
                       eng_->now(), "fault");
    }
    if (attempt + 1 >= policy_.max_launch_attempts) {
      co_await runBatchOnCpu(batch, batch_bytes);
      co_return;
    }
    co_await eng_->delay(retryBackoff(attempt));
  }
  breakdown_.pack_unpack += handle.end - handle.start;
  ++kernels_;
  requests_fused_ += batch.size();
  ++counters_.batches;
  ++counters_.batch_size_hist[batch.size()];
  if (tracer_ && tracer_->isEnabled()) {
    tracer_->span(trace_track_,
                  "fused[" + std::to_string(batch.size()) + " reqs, " +
                      std::to_string(batch_bytes) + " B]",
                  launch_begin, handle.end, "fusion");
    traceBacklog();
  }
}

sim::Task<void> FusionScheduler::runBatchOnCpu(
    const std::vector<std::size_t>& batch, std::size_t batch_bytes) {
  // The device refused this batch repeatedly: keep the requests alive by
  // doing their data movement on the host at CPU pack speed. Slower than
  // any fused kernel, but every request still completes and retires
  // through the normal query path.
  const TimeNs begin = eng_->now();
  const auto cost = static_cast<DurationNs>(std::ceil(
      static_cast<double>(batch_bytes) / policy_.cpu_fallback_bytes_per_ns));
  co_await cpu_->busy(cost);
  breakdown_.pack_unpack += cost;
  for (const std::size_t slot_index : batch) {
    moveOnHost(list_.slot(slot_index));
    list_.signalCompletion(slot_index);
    ++counters_.cpu_fallback_requests;
  }
  ++counters_.cpu_fallback_batches;
  ++counters_.batches;
  ++counters_.batch_size_hist[batch.size()];
  if (tracer_ && tracer_->isEnabled()) {
    tracer_->span(trace_track_,
                  "cpu_fallback[" + std::to_string(batch.size()) + " reqs, " +
                      std::to_string(batch_bytes) + " B]",
                  begin, eng_->now(), "fault");
    traceBacklog();
  }
}

bool FusionScheduler::query(std::int64_t uid) {
  breakdown_.synchronize += policy_.query_cost;
  return list_.queryAndRetire(uid);
}

}  // namespace dkf::core
