#include "schemes/adaptive_gdr.hpp"

#include <string>

namespace dkf::schemes {

namespace {
CpuGpuHybridEngine::Tuning productionTuning() {
  CpuGpuHybridEngine::Tuning t;
  // The production library switches to the CPU path only for genuinely
  // small-and-dense data, and its per-block loop carries more runtime
  // bookkeeping than the research prototype of [24].
  t.cpu_max_bytes = 64 * 1024;
  t.cpu_max_blocks = 128;
  t.per_block_cost = ns(75);
  return t;
}
}  // namespace

AdaptiveGdrEngine::AdaptiveGdrEngine(sim::Engine& eng, sim::CpuTimeline& cpu,
                                     gpu::Gpu& gpu)
    : eng_(&eng), inner_(eng, cpu, gpu, productionTuning()) {}

void AdaptiveGdrEngine::setTracer(sim::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ && tracer_->isEnabled()) {
    track_ = tracer_->track("MVAPICH2-GDR");
  }
}

void AdaptiveGdrEngine::traceRoute(const ddt::Layout& layout,
                                   const char* what) {
  if (!tracer_ || !tracer_->isEnabled()) return;
  const char* route = inner_.usesCpuPath(layout) ? "gdrcopy" : "gpu-sync";
  tracer_->instant(track_,
                   std::string(route) + " " + what + "[" +
                       std::to_string(layout.size()) + " B]",
                   eng_->now(), "adaptive");
}

sim::Task<Ticket> AdaptiveGdrEngine::submitPack(ddt::LayoutPtr layout,
                                                gpu::MemSpan origin,
                                                gpu::MemSpan packed) {
  ++submissions_;
  traceRoute(*layout, "pack");
  Ticket t = co_await inner_.submitPack(std::move(layout), origin, packed);
  breakdown_ += inner_.breakdown();
  inner_.breakdown().reset();
  co_return t;
}

sim::Task<Ticket> AdaptiveGdrEngine::submitUnpack(ddt::LayoutPtr layout,
                                                  gpu::MemSpan packed,
                                                  gpu::MemSpan origin) {
  ++submissions_;
  traceRoute(*layout, "unpack");
  Ticket t = co_await inner_.submitUnpack(std::move(layout), packed, origin);
  breakdown_ += inner_.breakdown();
  inner_.breakdown().reset();
  co_return t;
}

bool AdaptiveGdrEngine::done(const Ticket& t) { return inner_.done(t); }

}  // namespace dkf::schemes
