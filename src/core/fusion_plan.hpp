// Compiled fusion plans (ROADMAP item 1) — the decide-once/execute-many
// API the paper's amortization argument rests on.
//
// The persistent communicators the evaluation targets replay the same
// derived datatypes every iteration, so the per-message decisions — which
// scheme can serve this op sequence on this hardware, what kernel op each
// step lowers to — are loop-invariant. A `FusionPlan` *declares* the op
// sequence (one pack/unpack/strided-copy per destination, the MIOpen
// fusion-plan idiom: create plan, add operators, compile, execute);
// compilation resolves it once against the solver registry in
// `schemes/solver.hpp`; the resulting immutable `CompiledPlan` is executed
// per message with the live buffers bound at execution time, exactly like
// MIOpen's SetArgs — so one compiled plan serves every message and every
// count of the same canonical layout structure.
//
// Compiled plans are memoized in a `PlanCache` keyed by
// (plan signature, scheme, hw signature). The plan signature is built from
// `ddt::Layout::signature()`, which is count-independent for periodic
// layouts: a count sweep over one datatype compiles exactly once. The cache
// mirrors `ddt::LayoutCache` operationally — single LRU, entry/byte
// budgets, hit/miss/eviction counters, optional tracer series.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/tenant.hpp"
#include "core/request_list.hpp"
#include "ddt/layout.hpp"

namespace dkf::sim {
class Tracer;
class Engine;
}  // namespace dkf::sim

namespace dkf::core {

/// One declared operation of a plan (one destination of a bulk transfer).
struct PlanOp {
  FusionOp op{FusionOp::Packing};
  ddt::LayoutPtr layout{};         ///< layout of the non-contiguous side
  ddt::LayoutPtr target_layout{};  ///< DirectIPC only: destination layout
};

/// The declaration stage: an ordered op sequence over canonical layouts.
/// Cheap value type; all the expensive work happens at compile time.
class FusionPlan {
 public:
  FusionPlan& addPack(ddt::LayoutPtr layout);
  FusionPlan& addUnpack(ddt::LayoutPtr layout);
  FusionPlan& addStridedCopy(ddt::LayoutPtr src_layout,
                             ddt::LayoutPtr dst_layout);

  const std::vector<PlanOp>& ops() const { return ops_; }
  std::size_t opCount() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  /// Any strided-copy (DirectIPC) step — only direct-capable solvers apply.
  bool needsDirect() const;

  /// Canonical signature: op kinds x layout signatures, order-sensitive.
  /// Inherits the count-independence of ddt::Layout::signature().
  std::uint64_t signature() const;

 private:
  std::vector<PlanOp> ops_;
};

/// One executable step of a compiled plan. The layouts stored here are the
/// *declared* (representative) ones; `bind` produces the request for the
/// live message, which may carry a same-signature layout of another count.
struct CompiledStep {
  FusionOp op{FusionOp::Packing};
  ddt::LayoutPtr layout{};
  ddt::LayoutPtr target_layout{};

  /// Instantiate the request template with this message's layouts/buffers —
  /// the only per-execution work left after compilation.
  FusionRequest bind(ddt::LayoutPtr live_layout, ddt::LayoutPtr live_target,
                     gpu::MemSpan origin, gpu::MemSpan target) const;
};

/// The immutable result of compiling a FusionPlan against the solver
/// registry. `solver_scheme` is the scheme whose solver accepted the plan
/// (as an int to keep core/ independent of schemes/); -1 with `fallback`
/// set means no registered solver applies and execution takes the engine's
/// own degraded path — the "reported fallback" of the solver contract.
struct CompiledPlan {
  std::uint64_t plan_signature{0};
  int solver_scheme{-1};
  std::string solver_name;
  bool fallback{false};
  std::string fallback_reason;
  std::vector<CompiledStep> steps;

  std::size_t heapBytes() const {
    return steps.capacity() * sizeof(CompiledStep) +
           solver_name.capacity() + fallback_reason.capacity();
  }
};

using CompiledPlanPtr = std::shared_ptr<const CompiledPlan>;

/// Cache key: what the compilation result depends on — the plan's canonical
/// structure, the preferred scheme, and the hardware context.
struct PlanKey {
  std::uint64_t plan_sig{0};
  std::uint64_t hw_sig{0};
  int scheme{-1};
  friend auto operator<=>(const PlanKey&, const PlanKey&) = default;
};

/// Entry/byte budget for the plan cache (see PlanCache).
struct PlanCacheLimits {
  /// Max resident compiled plans. 0 = unbounded.
  std::size_t max_entries{1024};
  /// Max resident compiled-plan heap bytes. 0 = unbounded.
  std::size_t max_bytes{2u << 20};
};

/// Lifetime counters. A *fallback* counts an inserted plan that no solver
/// accepted (CompiledPlan::fallback with solver_scheme < 0 reports why).
struct PlanCacheCounters {
  std::size_t hits{0};
  std::size_t misses{0};
  std::size_t evictions{0};
  std::size_t fallbacks{0};

  /// Summing across ranks (benches report whole-world cache traffic).
  PlanCacheCounters& operator+=(const PlanCacheCounters& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    fallbacks += o.fallbacks;
    return *this;
  }

  double hitRate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// LRU memo of compiled plans, operationally modeled on ddt::LayoutCache:
/// one LRU list, entry/byte budgets, counters always on, tracer optional.
/// Compilation itself lives in schemes/solver.hpp (it needs the registry);
/// the cache only stores results, so core/ stays scheme-agnostic.
class PlanCache {
 public:
  PlanCache() : PlanCache(PlanCacheLimits{}) {}
  explicit PlanCache(PlanCacheLimits limits);

  /// Cached plan for `key`, or nullptr. Counts a hit or a miss (globally
  /// and against `tenant`'s counters) and refreshes LRU order on hit.
  CompiledPlanPtr find(const PlanKey& key, TenantId tenant = kDefaultTenant);

  /// Insert a freshly compiled plan and enforce the budgets (the new entry
  /// itself is never the victim). Re-inserting an existing key replaces it.
  void insert(const PlanKey& key, CompiledPlanPtr plan,
              TenantId tenant = kDefaultTenant);

  const PlanCacheCounters& counters() const { return counters_; }
  /// Per-tenant hit/miss/fallback attribution (index = tenant id; evictions
  /// are a shared-budget effect and stay global-only). May be shorter than
  /// the tenant count if high tenants never compiled.
  const std::vector<PlanCacheCounters>& tenantCounters() const {
    return tenant_counters_;
  }
  std::size_t hits() const { return counters_.hits; }
  std::size_t misses() const { return counters_.misses; }
  std::size_t evictions() const { return counters_.evictions; }
  std::size_t entries() const { return cache_.size(); }
  std::size_t residentBytes() const { return resident_bytes_; }
  const PlanCacheLimits& limits() const { return limits_; }

  /// Drop all entries and reset the counters.
  void clear();

  /// Zero the counters, keeping the resident entries — benches call this
  /// after a warmup pass so the reported hit rate covers only measured
  /// traffic (compiled plans stay hot).
  void resetCounters() {
    counters_ = PlanCacheCounters{};
    tenant_counters_.clear();
  }

  /// Attach a tracer (nullptr detaches): resident entries/bytes and the
  /// hit/miss counts become counter series named "<name>.*" sampled at
  /// `clock`'s current time. `clock` outlives the cache.
  void setTracer(sim::Tracer* tracer, const sim::Engine* clock,
                 const std::string& name = "plan_cache");

 private:
  struct Entry {
    CompiledPlanPtr plan;
    std::size_t bytes{0};
    std::list<PlanKey>::iterator lru;
  };

  void enforceBudget(const PlanKey& keep);
  void sampleTrace();
  PlanCacheCounters& tenantSlot(TenantId t);

  PlanCacheLimits limits_;
  std::map<PlanKey, Entry> cache_;
  std::list<PlanKey> lru_;  // front = most recently used
  PlanCacheCounters counters_;
  std::vector<PlanCacheCounters> tenant_counters_;
  std::size_t resident_bytes_{0};

  sim::Tracer* tracer_{nullptr};
  const sim::Engine* clock_{nullptr};
  std::string trace_name_;
};

}  // namespace dkf::core
