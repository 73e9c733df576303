// The pluggable DDT-processing engine interface.
//
// The MPI runtime routes every non-contiguous pack/unpack through one of
// these engines; each implementation reproduces one scheme from the paper's
// evaluation (§V-A):
//
//   GpuSyncEngine       "GPU-Sync"        [8], [22]
//   GpuAsyncEngine      "GPU-Async"       [23]
//   CpuGpuHybridEngine  "CPU-GPU-Hybrid"  [24]
//   NaiveCopyEngine     SpectrumMPI / OpenMPI per-block cudaMemcpyAsync
//   AdaptiveGdrEngine   MVAPICH2-GDR adaptive (hybrid / sync by layout)
//   FusionEngine        "Proposed" / "Proposed-Tuned" (this paper)
//
// Submissions are coroutines: a synchronous engine may block inside (that IS
// its defining cost), an asynchronous one charges its CPU-side launch cost
// and returns a ticket immediately. Every engine accumulates the Fig. 11
// time-breakdown categories as it goes.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/stats.hpp"
#include "common/tenant.hpp"
#include "core/fusion_plan.hpp"
#include "ddt/layout.hpp"
#include "gpu/memory.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace dkf::schemes {

/// Handle to an asynchronous engine operation. Invalid tickets (negative id)
/// mean the engine could not accept the operation (e.g. the fusion request
/// list is full, §IV-A2 ①) and the caller must fall back.
struct Ticket {
  std::int64_t id{-1};
  bool valid() const { return id >= 0; }
};

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

  /// Gather layout bytes of `origin` into contiguous `packed`.
  virtual sim::Task<Ticket> submitPack(ddt::LayoutPtr layout,
                                       gpu::MemSpan origin,
                                       gpu::MemSpan packed) = 0;

  /// Scatter contiguous `packed` into layout bytes of `origin`.
  virtual sim::Task<Ticket> submitUnpack(ddt::LayoutPtr layout,
                                         gpu::MemSpan packed,
                                         gpu::MemSpan origin) = 0;

  /// True if submitDirect() can succeed on this engine. The runtime only
  /// offers the DirectIPC path to capable engines, so the sender never
  /// skips packing for a receiver that cannot strided-copy.
  virtual bool supportsDirect() const { return false; }

  /// Direct strided copy between two non-contiguous device buffers over
  /// NVLink/PCIe (the DirectIPC operation of [24]). Engines without the
  /// capability return an invalid ticket; the runtime then falls back to
  /// pack + transfer + unpack.
  virtual sim::Task<Ticket> submitDirect(ddt::LayoutPtr src_layout,
                                         gpu::MemSpan src,
                                         ddt::LayoutPtr dst_layout,
                                         gpu::MemSpan dst);

  /// Execute one step of a compiled FusionPlan with this message's live
  /// layouts and buffers (`live_target` is the DirectIPC destination layout,
  /// nullptr otherwise). The live layouts may differ in count from the
  /// plan's declared ones — compiled plans are count-independent. The
  /// default dispatches to the submit* entry points; engines with their own
  /// request machinery (FusionEngine) override for a template-bound path.
  /// DirectIPC steps keep submitDirect's contract: an engine without the
  /// capability returns an invalid ticket and the caller falls back.
  virtual sim::Task<Ticket> submitPlanStep(const core::CompiledPlan& plan,
                                           std::size_t step,
                                           ddt::LayoutPtr live_layout,
                                           ddt::LayoutPtr live_target,
                                           gpu::MemSpan origin,
                                           gpu::MemSpan target);

  /// Non-blocking completion check; may retire internal bookkeeping for
  /// completed tickets (the fusion scheduler recycles the request slot).
  /// Querying an already-retired ticket returns true.
  virtual bool done(const Ticket& t) = 0;

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

  /// Tenant attribution for the NEXT submissions (MODEL.md §14). The
  /// runtime sets this right before each submit*/submitPlanStep call;
  /// engines with internal queues (FusionEngine) stamp it onto the
  /// requests they enqueue so weighted-fair batching can tell tenants
  /// apart. Engines without queues may ignore it.
  void setActiveTenant(TenantId t) { active_tenant_ = t; }
  TenantId activeTenant() const { return active_tenant_; }

 protected:
  TimeBreakdown breakdown_;
  std::size_t submissions_{0};
  TenantId active_tenant_{kDefaultTenant};
};

}  // namespace dkf::schemes
