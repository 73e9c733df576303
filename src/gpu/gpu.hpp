// The GPU device model.
//
// Timing model (DESIGN.md §4.2):
//  - Streams are in-order queues; each tracks the virtual time its last
//    operation completes.
//  - A kernel is a list of `Op`s (pack / unpack / strided copy). Each op is
//    decomposed into thread blocks (~64 KiB of payload per block, at least
//    one). Blocks execute in waves over sm_count*blocks_per_sm slots; a
//    wave's duration is the slowest block in it, where a block streams its
//    bytes at min(per-block peak, HBM/active-blocks) scaled by the layout's
//    access efficiency (short strided runs waste bandwidth).
//  - Each op *completes at the end of the wave running its last block* and
//    fires its completion callback right then — this is the cooperative-
//    group property the fusion framework relies on (paper Fig. 6): requests
//    in a fused kernel finish and are signalled individually, without any
//    host-side synchronization at the kernel boundary.
//  - The actual byte movement of an op happens at its completion event, so
//    all data dependencies in the simulator respect the modeled timing.
//
// CPU-side costs (kernel launch ~10 us, driver calls ~1 us) are charged by
// the *callers* (the DDT-processing schemes), because attributing them is
// exactly what the paper's Fig. 11 breakdown measures.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "ddt/layout.hpp"
#include "ddt/pack.hpp"
#include "gpu/memory.hpp"
#include "hw/spec.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace dkf::gpu {

class Gpu {
 public:
  using StreamId = std::size_t;
  using EventId = std::size_t;

  /// One work item inside a (possibly fused) kernel. Move-only: the
  /// completion hook is an inline callback handed to exactly one
  /// completion event.
  struct Op {
    enum class Kind { Pack, Unpack, StridedCopy };

    Kind kind{Kind::Pack};
    ddt::LayoutPtr layout;       ///< origin layout (pack: src side; unpack: dst side)
    ddt::LayoutPtr dst_layout;   ///< StridedCopy only: destination layout
    std::span<const std::byte> src{};
    std::span<std::byte> dst{};
    sim::SmallCallback on_complete{};  ///< fired at op completion time

    std::size_t bytes() const { return layout ? layout->size() : 0; }

    /// Explicit copy for launch-retry loops. The completion hook is
    /// move-only and not duplicated — callers that retry must re-attach
    /// it (the single-op schemes pass none).
    Op clone() const {
      Op c;
      c.kind = kind;
      c.layout = layout;
      c.dst_layout = dst_layout;
      c.src = src;
      c.dst = dst;
      return c;
    }
  };

  /// What a launch reports, fixed at launch time: completion is observed
  /// through the ops' callbacks (or the stream position), not a handle.
  struct KernelHandle {
    TimeNs start{0};            ///< GPU-side start (after queueing)
    TimeNs end{0};              ///< GPU-side completion
    std::size_t blocks{0};
    std::size_t waves{0};
    /// Injected launch failure (cudaLaunchKernel error): nothing was
    /// queued, no op ran and no callback will fire — the caller must
    /// retry or degrade. Only ever true with a FaultPlan attached.
    bool failed{false};
  };

  /// The copy lands (its bytes move) at `end`.
  struct CopyHandle {
    TimeNs end{0};
  };

  Gpu(sim::Engine& eng, const hw::NodeSpec& node, int global_id);

  const hw::GpuSpec& spec() const { return node_->gpu; }
  const hw::NodeSpec& nodeSpec() const { return *node_; }
  int id() const { return id_; }
  DeviceMemory& memory() { return memory_; }

  StreamId createStream();
  std::size_t streamCount() const { return streams_.size(); }
  TimeNs streamReadyTime(StreamId s) const;
  bool streamIdle(StreamId s) const;

  /// Kernel-level completion fan-in: one hook invoked with the op index as
  /// each op completes, instead of one captured closure per op. Bulk
  /// submitters (core::FusionScheduler) pay one capture per kernel rather
  /// than one per op; per-op `Op::on_complete` hooks still fire.
  using OpCompleteFn =
      sim::InlineFunction<void(std::size_t), sim::kSmallCallbackBytes>;

  /// Queue a kernel of `ops` on stream `s`. GPU-side only; callers charge
  /// spec().kernel_launch_overhead to their own CPU timeline. Ops whose
  /// completion lands in the same wave share one engine event (their
  /// completion order — op index order — is unchanged; MODEL.md §13).
  KernelHandle launchKernel(StreamId s, std::vector<Op> ops,
                            OpCompleteFn on_op_complete = {});

  /// Single-op convenience (ops are move-only, so brace-list construction
  /// of the vector is unavailable).
  KernelHandle launchKernel(StreamId s, Op op) {
    std::vector<Op> ops;
    ops.push_back(std::move(op));
    return launchKernel(s, std::move(ops));
  }

  /// Queue an async contiguous copy on stream `s`; routed over the right
  /// path (HBM, CPU-GPU link, or GPU-GPU peer link) with per-path
  /// serialization. Callers charge spec().driver_call_overhead.
  CopyHandle memcpyAsync(StreamId s, MemSpan dst, MemSpan src);

  EventId createEvent();
  /// Capture the current position of stream `s` into the event.
  void eventRecord(EventId e, StreamId s);
  /// Has the captured stream position been reached? (cudaEventQuery)
  bool eventQuery(EventId e) const;
  /// Coroutine: wait for the event (cudaEventSynchronize).
  sim::Task<void> eventSynchronize(EventId e);
  /// Coroutine: wait for everything queued on the stream so far.
  sim::Task<void> streamSynchronize(StreamId s);

  /// Attach a tracer: kernels and copies emit spans on per-stream tracks.
  void setTracer(sim::Tracer* tracer) { tracer_ = tracer; }

  /// Attach a fault plan: launchKernel may fail (KernelHandle::failed) and
  /// the arena's tryAllocate may refuse. nullptr to detach.
  void setFaultPlan(fault::FaultPlan* plan) {
    faults_ = plan;
    memory_.setFaultPlan(plan);
  }

  /// Aggregate counters for ablation benches.
  std::size_t kernelsLaunched() const { return kernels_launched_; }
  std::size_t copiesIssued() const { return copies_issued_; }
  DurationNs busyTime() const { return busy_time_; }

 private:
  struct Stream {
    TimeNs ready{0};
  };
  struct Event {
    TimeNs position{0};
    bool recorded{false};
  };

  /// Per-block effective bandwidth in bytes/ns given layout efficiency and
  /// the number of concurrently active blocks.
  double blockBandwidth(double efficiency, std::size_t active) const;

  sim::Engine* eng_;
  const hw::NodeSpec* node_;
  sim::Tracer* tracer_{nullptr};
  fault::FaultPlan* faults_{nullptr};
  int id_;
  DeviceMemory memory_;
  std::vector<Stream> streams_;
  std::vector<Event> events_;

  // Copy-path serializers (busy-until per path).
  TimeNs h2d_busy_{0};
  TimeNs d2h_busy_{0};
  TimeNs local_busy_{0};
  TimeNs peer_busy_{0};

  std::size_t kernels_launched_{0};
  std::size_t copies_issued_{0};
  DurationNs busy_time_{0};
};

}  // namespace dkf::gpu
