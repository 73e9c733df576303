#include "schemes/cpu_gpu_hybrid.hpp"

#include <cmath>

#include "ddt/pack.hpp"

namespace dkf::schemes {

CpuGpuHybridEngine::CpuGpuHybridEngine(sim::Engine& eng, sim::CpuTimeline& cpu,
                                       gpu::Gpu& gpu, Tuning tuning)
    : eng_(&eng),
      cpu_(&cpu),
      gpu_(&gpu),
      tuning_(tuning),
      gpu_path_(eng, cpu, gpu) {}

bool CpuGpuHybridEngine::usesCpuPath(const ddt::Layout& layout) const {
  if (!gpu_->nodeSpec().gdrcopy.available) return false;
  return layout.size() <= tuning_.cpu_max_bytes &&
         layout.blockCount() <= tuning_.cpu_max_blocks;
}

sim::Task<void> CpuGpuHybridEngine::cpuCopy(const ddt::Layout& layout,
                                            bool is_pack,
                                            std::span<const std::byte> src,
                                            std::span<std::byte> dst) {
  const auto& gdr = gpu_->nodeSpec().gdrcopy;
  // Model [24]'s pipelined load/store loop: one BAR1 transaction setup,
  // streaming at the write-combined bandwidth, plus a fixed per-block cost.
  const auto stream_time = static_cast<DurationNs>(
      std::ceil(static_cast<double>(layout.size()) /
                gdr.write_bandwidth.bytesPerNs()));
  const DurationNs total =
      gdr.latency + stream_time +
      tuning_.per_block_cost * static_cast<DurationNs>(layout.blockCount());
  co_await cpu_->busy(total);
  breakdown_.pack_unpack += total;
  if (is_pack) {
    ddt::packCpu(layout, src, dst);
  } else {
    ddt::unpackCpu(layout, src, dst);
  }
}

sim::Task<Ticket> CpuGpuHybridEngine::submitPack(ddt::LayoutPtr layout,
                                                 gpu::MemSpan origin,
                                                 gpu::MemSpan packed) {
  ++submissions_;
  if (usesCpuPath(*layout)) {
    ++cpu_ops_;
    co_await cpuCopy(*layout, /*is_pack=*/true, origin.bytes, packed.bytes);
    co_return Ticket{next_id_++};
  }
  ++gpu_ops_;
  co_await gpu_path_.submitPack(std::move(layout), origin, packed);
  breakdown_ += gpu_path_.breakdown();
  gpu_path_.breakdown().reset();
  co_return Ticket{next_id_++};
}

sim::Task<Ticket> CpuGpuHybridEngine::submitUnpack(ddt::LayoutPtr layout,
                                                   gpu::MemSpan packed,
                                                   gpu::MemSpan origin) {
  ++submissions_;
  if (usesCpuPath(*layout)) {
    ++cpu_ops_;
    co_await cpuCopy(*layout, /*is_pack=*/false, packed.bytes, origin.bytes);
    co_return Ticket{next_id_++};
  }
  ++gpu_ops_;
  co_await gpu_path_.submitUnpack(std::move(layout), packed, origin);
  breakdown_ += gpu_path_.breakdown();
  gpu_path_.breakdown().reset();
  co_return Ticket{next_id_++};
}

bool CpuGpuHybridEngine::done(const Ticket& t) {
  return t.valid();  // both paths complete before returning
}

}  // namespace dkf::schemes
