#include "core/fusion_plan.hpp"

#include <utility>

#include "common/check.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace dkf::core {

// ----------------------------------------------------------- FusionPlan ----

FusionPlan& FusionPlan::addPack(ddt::LayoutPtr layout) {
  DKF_CHECK(layout != nullptr);
  ops_.push_back(PlanOp{FusionOp::Packing, std::move(layout), nullptr});
  return *this;
}

FusionPlan& FusionPlan::addUnpack(ddt::LayoutPtr layout) {
  DKF_CHECK(layout != nullptr);
  ops_.push_back(PlanOp{FusionOp::Unpacking, std::move(layout), nullptr});
  return *this;
}

FusionPlan& FusionPlan::addStridedCopy(ddt::LayoutPtr src_layout,
                                       ddt::LayoutPtr dst_layout) {
  DKF_CHECK(src_layout != nullptr);
  DKF_CHECK(dst_layout != nullptr);
  ops_.push_back(PlanOp{FusionOp::DirectIPC, std::move(src_layout),
                        std::move(dst_layout)});
  return *this;
}

bool FusionPlan::needsDirect() const {
  for (const PlanOp& op : ops_) {
    if (op.op == FusionOp::DirectIPC) return true;
  }
  return false;
}

std::uint64_t FusionPlan::signature() const {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(ops_.size());
  for (const PlanOp& op : ops_) {
    mix(static_cast<std::uint64_t>(op.op));
    mix(op.layout ? op.layout->signature() : 0);
    mix(op.target_layout ? op.target_layout->signature() : 0);
  }
  return h;
}

// --------------------------------------------------------- CompiledStep ----

FusionRequest CompiledStep::bind(ddt::LayoutPtr live_layout,
                                 ddt::LayoutPtr live_target,
                                 gpu::MemSpan origin,
                                 gpu::MemSpan target) const {
  DKF_CHECK(live_layout != nullptr);
  DKF_CHECK((live_target != nullptr) == (op == FusionOp::DirectIPC));
  FusionRequest req;
  req.op = op;
  req.layout = std::move(live_layout);
  req.target_layout = std::move(live_target);
  req.origin = origin;
  req.target = target;
  return req;
}

// ------------------------------------------------------------ PlanCache ----

PlanCache::PlanCache(PlanCacheLimits limits) : limits_(limits) {}

PlanCacheCounters& PlanCache::tenantSlot(TenantId t) {
  if (t >= tenant_counters_.size()) tenant_counters_.resize(t + 1);
  return tenant_counters_[t];
}

CompiledPlanPtr PlanCache::find(const PlanKey& key, TenantId tenant) {
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++counters_.misses;
    ++tenantSlot(tenant).misses;
    return nullptr;
  }
  ++counters_.hits;
  ++tenantSlot(tenant).hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  sampleTrace();
  return it->second.plan;
}

void PlanCache::insert(const PlanKey& key, CompiledPlanPtr plan,
                       TenantId tenant) {
  DKF_CHECK(plan != nullptr);
  if (plan->fallback && plan->solver_scheme < 0) {
    ++counters_.fallbacks;
    ++tenantSlot(tenant).fallbacks;
  }
  if (const auto it = cache_.find(key); it != cache_.end()) {
    resident_bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru);
    cache_.erase(it);
  }
  Entry e;
  e.bytes = plan->heapBytes();
  e.plan = std::move(plan);
  lru_.push_front(key);
  e.lru = lru_.begin();
  resident_bytes_ += e.bytes;
  cache_.emplace(key, std::move(e));
  enforceBudget(key);
  sampleTrace();
}

void PlanCache::enforceBudget(const PlanKey& keep) {
  const auto overBudget = [&] {
    return (limits_.max_entries != 0 && cache_.size() > limits_.max_entries) ||
           (limits_.max_bytes != 0 && resident_bytes_ > limits_.max_bytes);
  };
  auto victim = lru_.end();
  while (overBudget() && victim != lru_.begin()) {
    --victim;
    if (*victim == keep) continue;
    const PlanKey key = *victim;
    const auto it = cache_.find(key);
    victim = lru_.erase(victim);
    resident_bytes_ -= it->second.bytes;
    cache_.erase(it);
    ++counters_.evictions;
    if (tracer_ && tracer_->isEnabled()) {
      tracer_->counter(trace_name_ + ".evictions", clock_->now(),
                       static_cast<double>(counters_.evictions));
    }
  }
}

void PlanCache::sampleTrace() {
  if (!tracer_ || !tracer_->isEnabled()) return;
  const TimeNs now = clock_->now();
  tracer_->counter(trace_name_ + ".entries", now,
                   static_cast<double>(cache_.size()));
  tracer_->counter(trace_name_ + ".resident_bytes", now,
                   static_cast<double>(resident_bytes_));
  tracer_->counter(trace_name_ + ".hits", now,
                   static_cast<double>(counters_.hits));
  tracer_->counter(trace_name_ + ".misses", now,
                   static_cast<double>(counters_.misses));
}

void PlanCache::clear() {
  cache_.clear();
  lru_.clear();
  counters_ = PlanCacheCounters{};
  tenant_counters_.clear();
  resident_bytes_ = 0;
}

void PlanCache::setTracer(sim::Tracer* tracer, const sim::Engine* clock,
                          const std::string& name) {
  tracer_ = tracer;
  clock_ = clock;
  trace_name_ = name;
}

}  // namespace dkf::core
