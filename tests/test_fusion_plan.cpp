// Compiled FusionPlan API (ROADMAP item 1): plan signatures, the solver
// registry's applicability contract, compile/fallback reporting, the
// PlanCache's LRU/budget/counter behaviour, and the end-to-end property
// the whole layer exists for — repeat-layout traffic through mpi::Runtime
// compiles each structure once and serves the rest from cache.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fusion_plan.hpp"
#include "ddt/datatype.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/runtime.hpp"
#include "schemes/solver.hpp"
#include "workloads/workloads.hpp"

namespace dkf {
namespace {

ddt::LayoutPtr layoutOf(const ddt::DatatypePtr& type, std::size_t count) {
  return std::make_shared<const ddt::Layout>(ddt::flatten(type, count));
}

/// A periodic strided type: counts >= 1 all share one layout signature.
ddt::DatatypePtr stridedType() {
  return ddt::Datatype::vector(8, 2, 5, ddt::Datatype::float64());
}

// ---- FusionPlan signatures ----

TEST(FusionPlanSignature, CountIndependentForPeriodicLayouts) {
  const auto type = stridedType();
  core::FusionPlan a, b;
  a.addPack(layoutOf(type, 2));
  b.addPack(layoutOf(type, 7));
  EXPECT_EQ(a.signature(), b.signature());
}

TEST(FusionPlanSignature, OpKindAndOrderChangeTheSignature) {
  const auto l = layoutOf(stridedType(), 4);
  core::FusionPlan pack, unpack, both;
  pack.addPack(l);
  unpack.addUnpack(l);
  both.addPack(l);
  both.addUnpack(l);
  EXPECT_NE(pack.signature(), unpack.signature());
  EXPECT_NE(pack.signature(), both.signature());

  core::FusionPlan reversed;
  reversed.addUnpack(l);
  reversed.addPack(l);
  EXPECT_NE(both.signature(), reversed.signature());
}

TEST(FusionPlanSignature, DistinctStructuresDiverge) {
  core::FusionPlan a, b;
  a.addPack(layoutOf(stridedType(), 2));
  b.addPack(layoutOf(
      ddt::Datatype::vector(8, 3, 5, ddt::Datatype::float64()), 2));
  EXPECT_NE(a.signature(), b.signature());
}

// ---- Solver applicability contract ----

TEST(SolverRegistry, EveryschemeHasASolverInFigureOrder) {
  const auto& reg = schemes::SolverRegistry::instance();
  ASSERT_EQ(reg.all().size(), std::size(schemes::kAllSchemes));
  for (const auto scheme : schemes::kAllSchemes) {
    EXPECT_EQ(reg.at(scheme).scheme(), scheme);
  }
}

TEST(SolverRegistry, NoSolverAcceptsTheEmptyPlan) {
  const core::FusionPlan empty;
  const auto hw = hw::lassen().node;
  for (const auto* s : schemes::SolverRegistry::instance().all()) {
    EXPECT_FALSE(s->isApplicable(empty, hw)) << s->name();
  }
  EXPECT_EQ(schemes::SolverRegistry::instance().firstApplicable(empty, hw),
            nullptr);
}

TEST(SolverRegistry, NonDirectSolversRejectStridedCopyPlans) {
  const auto l = layoutOf(stridedType(), 2);
  core::FusionPlan direct;
  direct.addStridedCopy(l, l);
  const auto hw = hw::lassen().node;
  const auto& reg = schemes::SolverRegistry::instance();
  EXPECT_FALSE(reg.at(schemes::Scheme::GpuSync).isApplicable(direct, hw));
  EXPECT_FALSE(reg.at(schemes::Scheme::NaiveCopy).isApplicable(direct, hw));
  EXPECT_TRUE(reg.at(schemes::Scheme::Proposed).isApplicable(direct, hw));
}

TEST(SolverRegistry, HybridSolverNeedsGdrcopyHardware) {
  core::FusionPlan plan;
  plan.addPack(layoutOf(stridedType(), 2));
  const auto& hybrid =
      schemes::SolverRegistry::instance().at(schemes::Scheme::CpuGpuHybrid);
  EXPECT_TRUE(hybrid.isApplicable(plan, hw::lassen().node));
  EXPECT_FALSE(hybrid.isApplicable(plan, hw::abci().node));  // no GDRCopy
}

TEST(SolverRegistry, HwSignatureSeparatesGdrcopyCapability) {
  EXPECT_NE(schemes::hwSignature(hw::lassen().node),
            schemes::hwSignature(hw::abci().node));
}

// ---- compilePlan: resolution and reported fallback ----

TEST(CompilePlan, PreferredSolverWinsWhenApplicable) {
  core::FusionPlan plan;
  plan.addPack(layoutOf(stridedType(), 3));
  plan.addUnpack(layoutOf(stridedType(), 3));
  const auto compiled =
      schemes::compilePlan(plan, schemes::Scheme::GpuSync, hw::lassen().node);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->solver_scheme,
            static_cast<int>(schemes::Scheme::GpuSync));
  EXPECT_FALSE(compiled->fallback);
  EXPECT_TRUE(compiled->fallback_reason.empty());
  ASSERT_EQ(compiled->steps.size(), 2u);
  EXPECT_EQ(compiled->steps[0].op, core::FusionOp::Packing);
  EXPECT_EQ(compiled->steps[1].op, core::FusionOp::Unpacking);
  EXPECT_EQ(compiled->plan_signature, plan.signature());
}

TEST(CompilePlan, InapplicablePreferredReroutesAndReports) {
  const auto l = layoutOf(stridedType(), 2);
  core::FusionPlan direct;
  direct.addStridedCopy(l, l);
  const auto compiled =
      schemes::compilePlan(direct, schemes::Scheme::GpuSync, hw::lassen().node);
  ASSERT_NE(compiled, nullptr);
  EXPECT_TRUE(compiled->fallback);
  // First applicable in figure order: the strided-copy-capable Proposed.
  EXPECT_EQ(compiled->solver_scheme,
            static_cast<int>(schemes::Scheme::Proposed));
  EXPECT_NE(compiled->fallback_reason.find("GPU-Sync"), std::string::npos);
}

TEST(CompilePlan, UnsolvablePlanIsAReportedFallback) {
  const core::FusionPlan empty;
  const auto compiled =
      schemes::compilePlan(empty, schemes::Scheme::Proposed, hw::lassen().node);
  ASSERT_NE(compiled, nullptr);
  EXPECT_TRUE(compiled->fallback);
  EXPECT_EQ(compiled->solver_scheme, -1);
  EXPECT_FALSE(compiled->fallback_reason.empty());
  EXPECT_TRUE(compiled->steps.empty());
}

// ---- PlanCache: hit/miss/LRU/budgets ----

core::CompiledPlanPtr dummyPlan(std::uint64_t sig) {
  auto p = std::make_shared<core::CompiledPlan>();
  p->plan_signature = sig;
  p->solver_scheme = static_cast<int>(schemes::Scheme::Proposed);
  return p;
}

TEST(PlanCache, FindCountsMissesAndHits) {
  core::PlanCache cache;
  const core::PlanKey key{1, 2, 3};
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  auto plan = dummyPlan(1);
  cache.insert(key, plan);
  EXPECT_EQ(cache.find(key), plan);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(PlanCache, EntryBudgetEvictsLeastRecentlyUsed) {
  core::PlanCache cache(core::PlanCacheLimits{.max_entries = 2,
                                              .max_bytes = 0});
  const core::PlanKey a{1, 0, 0}, b{2, 0, 0}, c{3, 0, 0};
  cache.insert(a, dummyPlan(1));
  cache.insert(b, dummyPlan(2));
  EXPECT_NE(cache.find(a), nullptr);  // refresh a: b becomes LRU
  cache.insert(c, dummyPlan(3));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(b), nullptr);  // the LRU victim
  EXPECT_NE(cache.find(a), nullptr);
  EXPECT_NE(cache.find(c), nullptr);
}

TEST(PlanCache, ByteBudgetEvictsButKeepsTheNewEntry) {
  core::PlanCache cache(core::PlanCacheLimits{.max_entries = 0,
                                              .max_bytes = 1});
  const core::PlanKey a{1, 0, 0}, b{2, 0, 0};
  auto big = std::make_shared<core::CompiledPlan>();
  big->solver_name = "a-name-long-enough-to-out-heap-the-budget";
  big->steps.resize(4);
  cache.insert(a, big);
  EXPECT_EQ(cache.entries(), 1u);  // over budget, but never evict the insert
  auto big2 = std::make_shared<core::CompiledPlan>();
  big2->steps.resize(4);
  cache.insert(b, big2);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(a), nullptr);
  EXPECT_NE(cache.find(b), nullptr);
}

TEST(PlanCache, FallbackInsertsAreCounted) {
  core::PlanCache cache;
  const auto compiled = schemes::compilePlan(
      core::FusionPlan{}, schemes::Scheme::Proposed, hw::lassen().node);
  cache.insert(core::PlanKey{compiled->plan_signature, 0,
                             static_cast<int>(schemes::Scheme::Proposed)},
               compiled);
  EXPECT_EQ(cache.counters().fallbacks, 1u);
}

TEST(PlanCache, ClearResetsEntriesAndCounters) {
  core::PlanCache cache;
  cache.insert(core::PlanKey{1, 0, 0}, dummyPlan(1));
  (void)cache.find(core::PlanKey{1, 0, 0});
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.residentBytes(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

// ---- compilePlanCached: one compile serves a count sweep ----

TEST(CompilePlanCached, CountSweepOverOneTypeCompilesOnce) {
  core::PlanCache cache;
  const auto type = stridedType();
  const auto hw = hw::lassen().node;
  core::CompiledPlanPtr first;
  for (const std::size_t count : {2u, 3u, 5u, 9u}) {
    core::FusionPlan plan;
    plan.addPack(layoutOf(type, count));
    const auto compiled =
        schemes::compilePlanCached(cache, plan, schemes::Scheme::Proposed, hw);
    if (!first) first = compiled;
    EXPECT_EQ(compiled, first);  // the same cached object every count
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
}

TEST(CompilePlanCached, SchemeAndHardwareAreCacheDimensions) {
  core::PlanCache cache;
  core::FusionPlan plan;
  plan.addPack(layoutOf(stridedType(), 2));
  const auto a = schemes::compilePlanCached(cache, plan,
                                            schemes::Scheme::Proposed,
                                            hw::lassen().node);
  const auto b = schemes::compilePlanCached(cache, plan,
                                            schemes::Scheme::GpuSync,
                                            hw::lassen().node);
  const auto c = schemes::compilePlanCached(cache, plan,
                                            schemes::Scheme::Proposed,
                                            hw::abci().node);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.entries(), 3u);
}

// ---- End to end: the runtime's plan cache on repeat-layout traffic ----

TEST(RuntimePlanCache, RepeatTrafficHitsAfterFirstCompile) {
  sim::Engine eng;
  hw::Cluster cluster(eng, hw::lassen(), 2);
  mpi::RuntimeConfig config;
  config.scheme = schemes::Scheme::Proposed;
  mpi::Runtime runtime(cluster, config);

  auto& a = runtime.proc(0);
  auto& b = runtime.proc(4);  // other node: the inter-node bulk path

  const auto wl = workloads::milcZdown(16);
  constexpr int kRounds = 6;
  const std::size_t region = wl.regionBytes();
  auto sa = a.allocDevice(region), ra = a.allocDevice(region);
  auto sb = b.allocDevice(region), rb = b.allocDevice(region);

  auto body = [](mpi::Proc& p, gpu::MemSpan send, gpu::MemSpan recv,
                 const workloads::Workload& w, int peer) -> sim::Task<void> {
    for (int round = 0; round < kRounds; ++round) {
      auto rr = co_await p.irecv(recv, w.type, w.count, peer, round);
      auto sr = co_await p.isend(send, w.type, w.count, peer, round);
      co_await p.wait(rr);
      co_await p.wait(sr);
    }
  };
  eng.spawn(body(a, sa, ra, wl, 4));
  eng.spawn(body(b, sb, rb, wl, 0));
  eng.run();

  // Same layout every round: each rank compiles its pack and unpack plan
  // once, every later message is a hit.
  for (auto* p : {&a, &b}) {
    EXPECT_LE(p->planCache().misses(), 2u);
    EXPECT_GT(p->planCache().hits(), p->planCache().misses());
    EXPECT_EQ(p->planCache().counters().fallbacks, 0u);
  }
}

}  // namespace
}  // namespace dkf
