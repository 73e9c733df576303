// GPU-Async [23]: every operation gets its own kernel on a round-robin
// stream pool; completion is tracked with cudaEventRecord at submit time and
// polled with cudaEventQuery from the progress loop — the ASYNCHRONOUS lane
// of Fig. 2. Overlap is possible in principle, but each operation still
// pays a full kernel launch plus the event-management driver calls, which
// is exactly why the paper finds it can run *behind* GPU-Sync on fast
// machines (§V-B).
#pragma once

#include <unordered_map>
#include <vector>

#include "schemes/ddt_engine.hpp"

namespace dkf::schemes {

class GpuAsyncEngine final : public DdtEngine {
 public:
  GpuAsyncEngine(sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu,
                 std::size_t streams = 4);

  std::string_view name() const override { return "GPU-Async"; }

  sim::Task<Ticket> submit(core::FusionRequest req) override;
  DurationNs progress() override;

  std::size_t outstanding() const { return events_.size(); }

 private:
  bool query(const Ticket& t) override;

  std::vector<gpu::Gpu::StreamId> streams_;
  std::size_t next_stream_{0};
  std::unordered_map<std::int64_t, gpu::Gpu::EventId> events_;
  std::int64_t next_id_{0};
  DurationNs deferred_query_cost_{0};  ///< cudaEventQuery calls issued by
                                       ///< done(); owed at the next
                                       ///< progress() pass
};

}  // namespace dkf::schemes
