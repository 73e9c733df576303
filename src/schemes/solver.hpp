// The solver registry: every scheme as a pluggable FusionPlan solver.
//
// Modeled on MIOpen's fusion-plan solver machinery: a plan is *compiled* by
// asking each registered solver whether it applies (`isApplicable`), and
// unsupported combinations are reported rather than silently degraded. Each
// solver wraps one scheme from `factory.hpp` and owns its engine factory,
// so `makeEngine` is now a registry lookup instead of a switch.
//
// Applicability contract (MODEL.md §11): a solver accepts a plan only if
// its engine executes every declared op on the given hardware through the
// scheme's *defining* data path —
//   - non-direct engines reject plans containing strided-copy (DirectIPC)
//     steps (their submit would decline the op back to the caller);
//   - CPU-GPU-Hybrid rejects hardware without GDRCopy (its defining
//     host-driven path does not exist there; the engine would silently run
//     everything on its GPU-Sync escape hatch);
//   - every solver rejects the empty plan (nothing to solve).
// Applicability is *structural*: it reads layouts' canonical form, never
// their count, so one verdict is valid for every message a cached compiled
// plan serves.
//
// `compilePlan` resolves the preferred scheme first; if its solver declines
// it scans the registry in the paper's figure order and reports the switch
// in `CompiledPlan::fallback_reason`. When no solver applies at all, the
// compiled plan still executes (the engine's own degraded path) but carries
// solver_scheme == -1 and the reason — the reported fallback.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/fusion_plan.hpp"
#include "hw/spec.hpp"
#include "schemes/factory.hpp"

namespace dkf::schemes {

class Solver {
 public:
  virtual ~Solver() = default;

  virtual Scheme scheme() const = 0;
  std::string_view name() const { return schemeName(scheme()); }

  /// True if this solver's engine can execute every op of `plan` on `hw`
  /// through its defining data path (see the contract above).
  virtual bool isApplicable(const core::FusionPlan& plan,
                            const hw::NodeSpec& hw) const = 0;

  /// Construct this solver's engine. `tuned_policy` only affects
  /// ProposedTuned, exactly as the old factory switch did.
  virtual std::unique_ptr<DdtEngine> makeEngine(
      sim::Engine& eng, sim::CpuTimeline& cpu, gpu::Gpu& gpu,
      core::FusionPolicy tuned_policy) const = 0;
};

/// All eight scheme solvers, in the paper's figure order (kAllSchemes).
class SolverRegistry {
 public:
  static const SolverRegistry& instance();

  const Solver& at(Scheme s) const;
  const std::vector<const Solver*>& all() const { return view_; }
  /// First applicable solver in registration order, or nullptr.
  const Solver* firstApplicable(const core::FusionPlan& plan,
                                const hw::NodeSpec& hw) const;

 private:
  SolverRegistry();

  std::vector<std::unique_ptr<Solver>> solvers_;
  std::vector<const Solver*> view_;
};

/// Hash of the NodeSpec fields solver applicability reads — the hardware
/// component of core::PlanKey. Two nodes with equal signatures compile any
/// plan identically.
std::uint64_t hwSignature(const hw::NodeSpec& hw);

/// Compile: resolve `plan` to a solver (preferred first, then registry
/// order) and lower each declared op to its request template. Never fails —
/// an unsolvable plan compiles to a reported fallback.
core::CompiledPlanPtr compilePlan(const core::FusionPlan& plan,
                                  Scheme preferred, const hw::NodeSpec& hw);

/// Memoized compilePlan through `cache`, keyed by
/// (plan.signature(), hwSignature(hw), preferred). `tenant` only
/// attributes the hit/miss to that tenant's cache counters — compiled
/// plans themselves are shared across tenants (same key, same plan).
core::CompiledPlanPtr compilePlanCached(core::PlanCache& cache,
                                        const core::FusionPlan& plan,
                                        Scheme preferred,
                                        const hw::NodeSpec& hw,
                                        TenantId tenant = kDefaultTenant);

}  // namespace dkf::schemes
