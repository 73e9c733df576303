#include "schemes/solver.hpp"

#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "schemes/cpu_gpu_hybrid.hpp"
#include "schemes/fusion_engine.hpp"
#include "schemes/gpu_async.hpp"
#include "schemes/gpu_sync.hpp"
#include "schemes/hybrid_fusion.hpp"
#include "schemes/naive_copy.hpp"

namespace dkf::schemes {

namespace {

/// Pack/unpack-only solver over an engine constructible as (eng, cpu, gpu).
/// Covers every scheme whose engine has no DirectIPC path and no further
/// hardware requirement.
template <Scheme S, class EngineT>
class PackOnlySolver : public Solver {
 public:
  Scheme scheme() const override { return S; }
  bool isApplicable(const core::FusionPlan& plan,
                    const hw::NodeSpec&) const override {
    return !plan.empty() && !plan.needsDirect();
  }
  std::unique_ptr<DdtEngine> makeEngine(sim::Engine& eng,
                                        sim::CpuTimeline& cpu, gpu::Gpu& gpu,
                                        core::FusionPolicy) const override {
    return std::make_unique<EngineT>(eng, cpu, gpu);
  }
};

/// CPU-GPU-Hybrid [24]: additionally requires GDRCopy — without it the
/// engine exists but every op silently lands on its GPU-Sync escape hatch,
/// which the applicability contract forbids passing off as this scheme.
class CpuGpuHybridSolver final
    : public PackOnlySolver<Scheme::CpuGpuHybrid, CpuGpuHybridEngine> {
 public:
  bool isApplicable(const core::FusionPlan& plan,
                    const hw::NodeSpec& hw) const override {
    return PackOnlySolver::isApplicable(plan, hw) && hw.gdrcopy.available;
  }
};

/// MVAPICH2-GDR: CPU-GPU-Hybrid with the production library's switch-over
/// tuning. Unlike [24] it does not require GDRCopy: where there is none,
/// adaptively choosing GPU-Sync for every op IS the library's behaviour.
class AdaptiveGdrSolver final
    : public PackOnlySolver<Scheme::AdaptiveGdr, CpuGpuHybridEngine> {
 public:
  std::unique_ptr<DdtEngine> makeEngine(sim::Engine& eng,
                                        sim::CpuTimeline& cpu, gpu::Gpu& gpu,
                                        core::FusionPolicy) const override {
    CpuGpuHybridEngine::Tuning t;
    // The production library switches to the CPU path only for genuinely
    // small-and-dense data, and its per-block loop carries more runtime
    // bookkeeping than the research prototype of [24].
    t.cpu_max_bytes = 64 * 1024;
    t.cpu_max_blocks = 128;
    t.per_block_cost = ns(75);
    return std::make_unique<CpuGpuHybridEngine>(eng, cpu, gpu, t, name());
  }
};

/// The proposed fusion schemes: any non-empty op sequence, strided copies
/// included (FusionEngine::supportsDirect()).
class ProposedSolver : public Solver {
 public:
  explicit ProposedSolver(Scheme s) : scheme_(s) {}
  Scheme scheme() const override { return scheme_; }
  bool isApplicable(const core::FusionPlan& plan,
                    const hw::NodeSpec&) const override {
    return !plan.empty();
  }
  std::unique_ptr<DdtEngine> makeEngine(
      sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu,
      core::FusionPolicy tuned_policy) const override {
    switch (scheme_) {
      case Scheme::Proposed:
        return std::make_unique<FusionEngine>(eng, cpu, gpu,
                                              core::FusionPolicy{}, "Proposed");
      case Scheme::ProposedTuned:
        return std::make_unique<FusionEngine>(eng, cpu, gpu, tuned_policy,
                                              "Proposed-Tuned");
      case Scheme::ProposedHybrid:
        return std::make_unique<HybridFusionEngine>(eng, cpu, gpu);
      default:
        DKF_FAIL("ProposedSolver built for non-fusion scheme");
    }
  }

 private:
  Scheme scheme_;
};

}  // namespace

SolverRegistry::SolverRegistry() {
  solvers_.push_back(
      std::make_unique<PackOnlySolver<Scheme::GpuSync, GpuSyncEngine>>());
  solvers_.push_back(
      std::make_unique<PackOnlySolver<Scheme::GpuAsync, GpuAsyncEngine>>());
  solvers_.push_back(std::make_unique<CpuGpuHybridSolver>());
  solvers_.push_back(
      std::make_unique<PackOnlySolver<Scheme::NaiveCopy, NaiveCopyEngine>>());
  solvers_.push_back(std::make_unique<AdaptiveGdrSolver>());
  solvers_.push_back(std::make_unique<ProposedSolver>(Scheme::Proposed));
  solvers_.push_back(std::make_unique<ProposedSolver>(Scheme::ProposedTuned));
  solvers_.push_back(std::make_unique<ProposedSolver>(Scheme::ProposedHybrid));
  view_.reserve(solvers_.size());
  for (const auto& s : solvers_) view_.push_back(s.get());
}

const SolverRegistry& SolverRegistry::instance() {
  static const SolverRegistry registry;
  return registry;
}

const Solver& SolverRegistry::at(Scheme s) const {
  for (const Solver* solver : view_) {
    if (solver->scheme() == s) return *solver;
  }
  DKF_FAIL("unknown scheme");
}

const Solver* SolverRegistry::firstApplicable(const core::FusionPlan& plan,
                                              const hw::NodeSpec& hw) const {
  for (const Solver* solver : view_) {
    if (solver->isApplicable(plan, hw)) return solver;
  }
  return nullptr;
}

std::uint64_t hwSignature(const hw::NodeSpec& hw) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(hw.gdrcopy.available ? 1 : 0);
  mix(hw.gpus_per_node);
  mix(hw.gpu.sm_count);
  mix(hw.gpu.blocks_per_sm);
  return h;
}

core::CompiledPlanPtr compilePlan(const core::FusionPlan& plan,
                                  Scheme preferred, const hw::NodeSpec& hw) {
  const SolverRegistry& registry = SolverRegistry::instance();
  auto compiled = std::make_shared<core::CompiledPlan>();
  compiled->plan_signature = plan.signature();

  const Solver& wanted = registry.at(preferred);
  const Solver* chosen = nullptr;
  if (wanted.isApplicable(plan, hw)) {
    chosen = &wanted;
  } else {
    compiled->fallback = true;
    chosen = registry.firstApplicable(plan, hw);
    std::ostringstream why;
    why << wanted.name() << " not applicable to this plan on this hardware";
    if (chosen != nullptr) {
      why << "; rerouted to " << chosen->name();
    } else {
      why << "; no registered solver applies — engine degraded path";
    }
    compiled->fallback_reason = why.str();
  }
  if (chosen != nullptr) {
    compiled->solver_scheme = static_cast<int>(chosen->scheme());
    compiled->solver_name = std::string(chosen->name());
  }

  compiled->steps.reserve(plan.ops().size());
  for (const core::PlanOp& op : plan.ops()) {
    compiled->steps.push_back(
        core::CompiledStep{op.op, op.layout, op.target_layout});
  }
  return compiled;
}

core::CompiledPlanPtr compilePlanCached(core::PlanCache& cache,
                                        const core::FusionPlan& plan,
                                        Scheme preferred,
                                        const hw::NodeSpec& hw,
                                        TenantId tenant) {
  const core::PlanKey key{plan.signature(), hwSignature(hw),
                          static_cast<int>(preferred)};
  if (auto cached = cache.find(key, tenant)) return cached;
  auto compiled = compilePlan(plan, preferred, hw);
  cache.insert(key, compiled, tenant);
  return compiled;
}

}  // namespace dkf::schemes
