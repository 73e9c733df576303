// Hardware specifications: the calibration constants of DESIGN.md §5.
//
// A `MachineSpec` captures everything Table II of the paper reports about
// Lassen and ABCI plus the microarchitectural constants the cost model needs
// (kernel launch overhead, driver call cost, HBM bandwidth, access-efficiency
// knee). Every experiment binary selects a machine spec; nothing else in the
// simulator hard-codes hardware numbers.
#pragma once

#include <cstddef>
#include <string>

#include "common/units.hpp"

namespace dkf::hw {

/// One-way point-to-point channel characteristics.
struct LinkSpec {
  std::string name;
  DurationNs latency{us(1)};
  BytesPerSecond bandwidth{GBps(10)};
};

/// GDRCopy-style BAR1 window (CPU load/store into device memory) [34].
/// Writes are fast (posted, write-combined); reads are notoriously slow.
struct GdrCopySpec {
  bool available{false};
  DurationNs latency{ns(400)};
  BytesPerSecond write_bandwidth{GBps(6)};
  BytesPerSecond read_bandwidth{MBps(500)};
};

/// GPU execution model parameters.
struct GpuSpec {
  std::string name{"V100-SXM2-16GB"};
  std::size_t sm_count{80};
  std::size_t blocks_per_sm{2};  ///< resident thread blocks per SM for the
                                 ///< copy-bound kernels we model
  std::size_t memory_bytes{16ull << 30};
  /// Size of the simulated HBM arena and its out-of-memory point. The arena
  /// is host address space that reads zero and is committed only where a
  /// run first writes it. The experiments' working sets are tens of MiB,
  /// so it stays well below the 16 GB of `memory_bytes`; raise it for
  /// bigger workloads.
  std::size_t arena_bytes{96ull << 20};
  BytesPerSecond hbm_bandwidth{GBps(900)};

  /// CPU-side cost of cudaLaunchKernel — the paper's central constant
  /// (Fig. 1: ~10 us on V100, dwarfing the packing kernels themselves).
  DurationNs kernel_launch_overhead{ns(9500)};
  /// CPU-side cost of lightweight driver calls: cudaEventRecord/Query,
  /// cudaMemcpyAsync issue, stream queries [26].
  DurationNs driver_call_overhead{ns(1100)};
  /// GPU-side pipeline setup once a kernel reaches the head of its stream.
  DurationNs kernel_fixed_cost{ns(700)};
  /// Per-wave scheduling cost on the device.
  DurationNs wave_overhead{ns(120)};
  /// Startup latency of a device-local (D2D same-GPU) DMA copy.
  DurationNs local_copy_latency{ns(500)};

  /// Strided-access efficiency: contiguous runs of at least
  /// `full_efficiency_run` bytes stream at peak HBM bandwidth; shorter runs
  /// degrade linearly down to `min_efficiency` (uncoalesced accesses).
  std::size_t full_efficiency_run{4096};
  double min_efficiency{0.10};

  std::size_t totalBlockSlots() const { return sm_count * blocks_per_sm; }

  /// Fraction of peak HBM bandwidth achieved for a mean contiguous run of
  /// `run_bytes`.
  double accessEfficiency(double run_bytes) const;
};

/// A node: CPUs + identical GPUs + one NIC.
struct NodeSpec {
  std::size_t gpus_per_node{4};
  GpuSpec gpu;
  LinkSpec cpu_gpu;   ///< host <-> device staging path (NVLink2 or PCIe)
  LinkSpec gpu_gpu;   ///< peer path between GPUs in the node (NVLink2)
  GdrCopySpec gdrcopy;
  BytesPerSecond host_memcpy_bandwidth{GBps(12)};
  DurationNs host_memcpy_latency{ns(300)};
};

/// A whole machine: homogeneous nodes over an InfiniBand fabric.
struct MachineSpec {
  std::string name;
  NodeSpec node;
  LinkSpec internode;            ///< per-direction IB EDR path
  DurationNs rdma_setup{ns(900)};  ///< verb post + completion handling
  DurationNs nic_per_message{ns(300)};
  std::size_t eager_threshold{8192};  ///< bytes; above this use rendezvous

  /// Effective bandwidth for GPUDirect RDMA: bounded by the slower of the
  /// NIC and the path from the NIC to device memory.
  BytesPerSecond gpuDirectBandwidth() const;
};

}  // namespace dkf::hw
