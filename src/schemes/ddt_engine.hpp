// The pluggable DDT-processing engine interface.
//
// The MPI runtime routes every non-contiguous pack/unpack through one of
// these engines; each implementation reproduces one scheme from the paper's
// evaluation (§V-A):
//
//   GpuSyncEngine       "GPU-Sync"        [8], [22]
//   GpuAsyncEngine      "GPU-Async"       [23]
//   CpuGpuHybridEngine  "CPU-GPU-Hybrid"  [24], and with the production
//                       library's tuning "MVAPICH2-GDR" (hybrid / sync by
//                       layout)
//   NaiveCopyEngine     SpectrumMPI / OpenMPI per-block cudaMemcpyAsync
//   FusionEngine        "Proposed" / "Proposed-Tuned" (this paper)
//   HybridFusionEngine  "Proposed+Hybrid" (fusion + [24]'s GDRCopy path)
//
// Every operation reaches an engine the same way: one request-list entry
// (§IV-A1: operation, origin, target, cached layout, plus its tenant)
// through submit(). The schemes differ only in when, and at what cost, they
// carry it out. Submissions are coroutines: a synchronous engine may block
// inside (that IS its defining cost), an asynchronous one charges its
// CPU-side launch cost and returns a ticket immediately. Every engine
// accumulates the Fig. 11 time-breakdown categories as it goes.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

#include "common/stats.hpp"
#include "common/tenant.hpp"
#include "core/request_list.hpp"
#include "gpu/gpu.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace dkf::schemes {

/// Handle to an engine operation. An invalid ticket (negative id) means the
/// engine declined the operation — a DirectIPC copy on an engine without
/// the capability, or one that found the fusion request list full — and
/// the caller must fall back. kFinished marks an operation that was
/// complete when submit() returned.
struct Ticket {
  /// The one id no engine issues for work still in flight.
  static constexpr std::int64_t kFinishedId =
      std::numeric_limits<std::int64_t>::max();

  std::int64_t id{-1};
  bool valid() const { return id >= 0; }
  bool finished() const { return id == kFinishedId; }
};

/// The ticket of an operation that finished at submit: done() answers it
/// without a query.
inline constexpr Ticket kFinished{Ticket::kFinishedId};

class DdtEngine {
 public:
  virtual ~DdtEngine() = default;

  virtual std::string_view name() const = 0;

  /// Attach a tracer for Chrome-trace observability (nullptr detaches).
  /// Engines with internal machinery (the fusion scheduler, the hybrid
  /// router) emit their decisions on tracks named after the scheme; the
  /// default is a no-op for engines whose only activity is already traced
  /// at the GPU/fabric layer.
  virtual void setTracer(sim::Tracer*) {}

  /// Carry out one request: gather `layout` bytes of `origin` into
  /// contiguous `target` (Packing), scatter contiguous `origin` into
  /// `layout` bytes of `target` (Unpacking), or copy between two
  /// non-contiguous buffers (DirectIPC, `target_layout` on the target
  /// side). Engines without the DirectIPC capability decline it with an
  /// invalid ticket; the runtime then falls back to pack + transfer +
  /// unpack.
  virtual sim::Task<Ticket> submit(core::FusionRequest req) = 0;

  /// True if submit() can carry out a DirectIPC request. The runtime only
  /// offers the DirectIPC path to capable engines, so the sender never
  /// skips packing for a receiver that cannot strided-copy.
  virtual bool supportsDirect() const { return false; }

  /// Non-blocking completion check. An invalid ticket is never done and
  /// kFinished always is; any other ticket is queried, which may retire
  /// internal bookkeeping (the fusion scheduler recycles the request
  /// slot). Querying an already-retired ticket returns true.
  bool done(const Ticket& t) {
    if (!t.valid()) return false;
    return t.finished() || query(t);
  }

  /// Advance internal machinery from the runtime's progress loop. Never
  /// suspends: folds internal cost counters into breakdown() and returns
  /// the CPU time the caller must spend now. Only GPU-Async owes any: the
  /// cudaEventQuery calls its done() deferred.
  virtual DurationNs progress() {
    foldBreakdown();
    return 0;
  }

  /// Fold internal cost counters (a fusion scheduler's) into breakdown().
  /// progress() and flush() end with it; a poll whose flush would launch
  /// nothing calls it in place of flush().
  virtual void foldBreakdown() {}

  /// Would flush() launch anything? When not, flush() only folds.
  virtual bool flushPending() const { return false; }

  /// The runtime is entering a wait with no further submissions pending —
  /// launch/flush anything batched (fusion launch scenario 1, §IV-C), then
  /// fold.
  virtual sim::Task<void> flush();

  /// True if `tenant` has batched work sitting unlaunched inside the
  /// engine (MODEL.md §14). Admission backpressure flushes only when this
  /// holds, so a throttled tenant never force-launches another tenant's
  /// half-built batch. Engines without internal batching answer true
  /// (conservative: their flush is a cheap no-op anyway).
  virtual bool hasPendingFusedWork(TenantId) const { return true; }

  /// Fig. 11 cost categories accumulated so far.
  TimeBreakdown& breakdown() { return breakdown_; }
  const TimeBreakdown& breakdown() const { return breakdown_; }

  /// Operations accepted since construction (pack + unpack + direct).
  std::size_t submissions() const { return submissions_; }

 protected:
  DdtEngine(sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu)
      : eng_(&eng), cpu_(&cpu), gpu_(&gpu) {}

  /// Completion of a ticket this engine issued that is neither invalid nor
  /// kFinished. The default serves the engines that finish every operation
  /// at submit: for them any such ticket was never issued.
  virtual bool query(const Ticket& t);

  /// Launch a one-op kernel carrying out `req` on `stream`, paying the
  /// launch overhead on the CPU (Fig. 11 "launching") for every attempt.
  /// Injected launch failures are retried with doubling backoff.
  sim::Task<gpu::Gpu::KernelHandle> launchKernel(
      gpu::Gpu::StreamId stream, const core::FusionRequest& req);

  sim::Engine* eng_;
  sim::CpuTimeline* cpu_;
  gpu::Gpu* gpu_;
  TimeBreakdown breakdown_;
  std::size_t submissions_{0};
};

}  // namespace dkf::schemes
