// The fusion scheduler (§IV-A2, Fig. 5) — the dynamic heart of the paper.
//
// Four functions, exactly as in the paper:
//   ① enqueue()      — take a pack/unpack/DirectIPC operation from the
//                      progress engine, fill a request-list entry, return a
//                      UID (negative if the list is full -> caller falls
//                      back to its non-fused path).
//   ② launch         — when the pending batch meets the fusion condition
//                      (accumulated bytes >= threshold, or a flush), launch
//                      ONE fused kernel whose thread blocks are partitioned
//                      across the batch via cooperative groups (Fig. 6).
//   ③ completion     — each request's blocks signal the response status the
//                      moment they finish; no host-side synchronization at
//                      the kernel boundary.
//   ④ query()        — the progress engine polls by UID; completed entries
//                      are retired and their slots recycled.
//
// The launch policy implements §IV-C: *under-fused* (threshold too low —
// frequent launches, overhead dominates) and *over-fused* (threshold too
// high — communication is delayed past the overlap window) are both real
// failure modes; 512 KB is the paper's sweet spot on both machines, and
// Fig. 8 is reproduced by sweeping FusionPolicy::threshold_bytes.
//
// The scheduler is observable: attach a sim::Tracer (setTracer) and every
// enqueue/rejection becomes an instant, every fused batch a span, and the
// pending backlog a counter series in the Chrome trace output; the
// SchedulerCounters aggregate (enqueues, rejections, batches, batch-size
// histogram) is always maintained, tracer or not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/request_list.hpp"
#include "gpu/gpu.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace dkf::core {

struct FusionPolicy {
  /// Launch a fused kernel once pending payload reaches this many bytes.
  std::size_t threshold_bytes{512 * 1024};
  /// Never batch more requests than this into one kernel.
  std::size_t max_requests_per_kernel{128};
  /// Request-list capacity.
  std::size_t list_capacity{256};
  /// CPU cost to enqueue + later dequeue one request (the paper reports the
  /// scheduler adds <= 2 us per message; we charge 1 us at enqueue and the
  /// remainder across queries).
  DurationNs enqueue_cost{ns(1000)};
  /// CPU cost of one UID status query (request vs. response comparison).
  DurationNs query_cost{ns(150)};

  // ---- Fault tolerance (only exercised with a FaultPlan attached) ----
  /// Total launch tries per batch before degrading to the CPU pack path.
  std::size_t max_launch_attempts{4};
  /// Wait before re-attempting a failed launch; doubles per failure up to
  /// `max_launch_retry_backoff`.
  DurationNs launch_retry_backoff{us(2)};
  /// Ceiling on the doubled backoff. Also guards the doubling itself: with
  /// a caller-chosen max_launch_attempts the naive `backoff << attempt` is
  /// undefined behaviour once attempt reaches the width of DurationNs.
  DurationNs max_launch_retry_backoff{ms(2)};
  /// Host-side streaming rate (bytes/ns) of the degraded CPU pack path.
  double cpu_fallback_bytes_per_ns{4.0};
};

/// Lifetime counters of the scheduler's hot path. The batch-size histogram
/// is exact: bucket i counts fused kernels that carried i requests
/// (i <= max_requests_per_kernel by construction).
struct SchedulerCounters {
  std::size_t enqueues{0};
  std::size_t rejections{0};
  std::size_t batches{0};
  /// Injected kernel-launch failures observed (each costs one retry).
  std::size_t launch_failures{0};
  /// Batches that exhausted their launch retries and ran on the CPU.
  std::size_t cpu_fallback_batches{0};
  std::size_t cpu_fallback_requests{0};
  std::vector<std::size_t> batch_size_hist;
  /// Requests fused per tenant (index = tenant id; grown on demand).
  std::vector<std::size_t> tenant_fused;
};

class FusionScheduler {
 public:
  FusionScheduler(sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu,
                  FusionPolicy policy);

  const FusionPolicy& policy() const { return policy_; }
  RequestList& requests() { return list_; }
  const RequestList& requests() const { return list_; }

  /// Attach a tracer; scheduler activity is emitted on tracks named
  /// "<name>.sched". Pass nullptr to detach.
  void setTracer(sim::Tracer* tracer, const std::string& name = "fusion");

  /// ① Enqueue an operation; returns its UID or a negative value when the
  /// request list is full, leaving a rejected `req` intact for the caller's
  /// fallback path. Charges the enqueue CPU cost and, if the fusion
  /// condition is now met, launches the fused kernel (scenario 2 of §IV-C).
  sim::Task<std::int64_t> enqueue(FusionRequest&& req);

  /// Launch whatever is pending immediately — scenario 1 of §IV-C: the
  /// progress engine has no more operations and reached a synchronization
  /// point, so waiting any longer only wastes cycles.
  sim::Task<void> flush();

  /// ④ Poll a request by UID. True once the GPU has signalled completion
  /// (the entry is retired as a side effect). Charges the query CPU cost
  /// to the breakdown but is itself non-blocking.
  bool query(std::int64_t uid);

  /// Time-breakdown contributions of the scheduler + its fused kernels.
  TimeBreakdown& breakdown() { return breakdown_; }

  /// CPU time spent on enqueue attempts that were REJECTED (full list).
  /// Kept out of breakdown_.scheduling: the rejected operation re-runs on
  /// the caller's fallback path, which does its own Fig. 11 accounting, so
  /// folding this in would double-count the message (the Fig. 11 bars sum
  /// per-category over exactly the work each message's winning path did).
  DurationNs rejectedSchedulingCost() const { return rejected_scheduling_; }

  const SchedulerCounters& counters() const { return counters_; }

  std::size_t fusedKernelsLaunched() const { return kernels_; }
  std::size_t requestsFused() const { return requests_fused_; }
  /// Mean batch size over all fused kernels so far.
  double meanBatchSize() const {
    return kernels_ ? static_cast<double>(requests_fused_) /
                          static_cast<double>(kernels_)
                    : 0.0;
  }

 private:
  /// ② Claim the pending batch and launch one fused kernel for it.
  /// Injected launch failures are retried with exponential backoff up to
  /// FusionPolicy::max_launch_attempts; after that the batch degrades to
  /// the CPU pack path (graceful degradation, never a lost request).
  sim::Task<void> launchBatch();
  /// Degraded path: run the batch's data movement on the host and signal
  /// each request's completion.
  sim::Task<void> runBatchOnCpu(const std::vector<std::size_t>& batch,
                                std::size_t batch_bytes);
  /// Exponential launch-retry backoff, clamped so neither the shift nor the
  /// resulting delay can overflow however large max_launch_attempts is.
  DurationNs retryBackoff(std::size_t attempt) const;
  void traceBacklog();

  sim::Engine* eng_;
  sim::CpuTimeline* cpu_;
  gpu::Gpu* gpu_;
  FusionPolicy policy_;
  RequestList list_;
  gpu::Gpu::StreamId stream_;
  TimeBreakdown breakdown_;
  DurationNs rejected_scheduling_{0};
  SchedulerCounters counters_;
  std::size_t kernels_{0};
  std::size_t requests_fused_{0};
  sim::Tracer* tracer_{nullptr};
  std::string trace_name_;
  std::uint32_t trace_track_{0};
};

}  // namespace dkf::core
