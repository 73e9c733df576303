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

#include "schemes/ddt_engine.hpp"

namespace dkf::schemes {

class NaiveCopyEngine final : public DdtEngine {
 public:
  NaiveCopyEngine(sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu)
      : DdtEngine(eng, cpu, gpu) {}

  std::string_view name() const override { return "NaiveCopy(SpectrumMPI/OpenMPI)"; }

  /// Returns kFinished: the copies have landed by then.
  sim::Task<Ticket> submit(core::FusionRequest req) override;

  std::size_t copyCallsIssued() const { return copy_calls_; }

 private:
  std::size_t copy_calls_{0};
};

}  // namespace dkf::schemes
