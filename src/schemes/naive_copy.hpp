// NaiveCopy: the production-library baseline (SpectrumMPI, OpenMPI+UCX).
//
// These libraries have no optimized GPU datatype engine: they walk the
// flattened layout and issue one cudaMemcpyAsync per contiguous run, staging
// through the CPU-GPU link, then synchronize. Every run costs a driver call
// on the CPU and a full link round on the device side — for sparse layouts
// with thousands of blocks this is catastrophically slow, which is exactly
// the "orders of magnitude" gap Fig. 14 reports.
//
// The per-run copies are folded into one analytic completion event rather
// than thousands of simulator events; the modeled time is identical
// (the copies serialize on the same link) and the benchmark stays fast.
#pragma once

#include "gpu/gpu.hpp"
#include "sim/cpu.hpp"
#include "schemes/ddt_engine.hpp"
#include "sim/engine.hpp"

namespace dkf::schemes {

class NaiveCopyEngine final : public DdtEngine {
 public:
  NaiveCopyEngine(sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu);

  std::string_view name() const override { return "NaiveCopy(SpectrumMPI/OpenMPI)"; }

  sim::Task<Ticket> submitPack(ddt::LayoutPtr layout, gpu::MemSpan origin,
                               gpu::MemSpan packed) override;
  sim::Task<Ticket> submitUnpack(ddt::LayoutPtr layout, gpu::MemSpan packed,
                                 gpu::MemSpan origin) override;
  bool done(const Ticket& t) override;

  std::size_t copyCallsIssued() const { return copy_calls_; }

 private:
  sim::Task<void> perBlockCopies(const ddt::Layout& layout, bool is_pack,
                                 std::span<const std::byte> src,
                                 std::span<std::byte> dst);

  sim::Engine* eng_;
  sim::CpuTimeline* cpu_;
  gpu::Gpu* gpu_;
  std::size_t copy_calls_{0};
  std::int64_t next_id_{0};
};

}  // namespace dkf::schemes
