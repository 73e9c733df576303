// Umbrella header for the dkf library: the complete public API surface.
//
// Downstream code can include this single header; fine-grained headers
// remain available for faster builds. See README.md for the architecture
// map and docs/MODEL.md for the cost model.
#pragma once

// Foundations
#include "common/check.hpp"    // DKF_CHECK invariants
#include "common/rng.hpp"      // deterministic xoshiro256**
#include "common/stats.hpp"    // RunningStat, SampleSet, TimeBreakdown
#include "common/units.hpp"    // TimeNs, DurationNs, BytesPerSecond

// Simulation substrate
#include "sim/cpu.hpp"     // CpuTimeline (one thread per rank)
#include "sim/engine.hpp"  // discrete-event engine
#include "sim/sync.hpp"    // Gate, CondVar, Latch
#include "sim/task.hpp"    // coroutine Task<T>
#include "sim/trace.hpp"   // Chrome-trace export

// Hardware models
#include "gpu/gpu.hpp"      // GPU device: streams, events, fused kernels
#include "gpu/memory.hpp"   // device arenas, MemSpan
#include "hw/cluster.hpp"   // nodes + fabric assembly
#include "hw/machines.hpp"  // Lassen, ABCI (Table II)
#include "hw/spec.hpp"      // LinkSpec, GpuSpec, MachineSpec
#include "net/fabric.hpp"   // interconnect + RDMA verbs
#include "net/link.hpp"

// MPI datatypes
#include "ddt/datatype.hpp"  // type constructors
#include "ddt/layout.hpp"    // flatten + layout cache
#include "ddt/pack.hpp"      // reference pack/unpack

// The contribution: dynamic kernel fusion
#include "core/request_list.hpp"     // §IV-A1 circular request buffer
#include "core/scheduler.hpp"        // §IV-A2 fusion scheduler
#include "core/threshold_model.hpp"  // future-work threshold prediction

// DDT-processing schemes (the evaluation's contenders)
#include "schemes/cpu_gpu_hybrid.hpp"
#include "schemes/ddt_engine.hpp"
#include "schemes/factory.hpp"
#include "schemes/fusion_engine.hpp"
#include "schemes/gpu_async.hpp"
#include "schemes/gpu_sync.hpp"
#include "schemes/hybrid_fusion.hpp"
#include "schemes/naive_copy.hpp"

// CUDA-aware MPI runtime
#include "mpi/collectives.hpp"  // bcast/reduce/allreduce/neighborAlltoallw
#include "mpi/request.hpp"
#include "mpi/runtime.hpp"      // Proc, Runtime, isend/irecv/wait/persistent

// Workloads and experiment harness
#include "bench_util/experiment.hpp"
#include "bench_util/sweeps.hpp"
#include "bench_util/table.hpp"
#include "workloads/halo_exchanger.hpp"
#include "workloads/workloads.hpp"
