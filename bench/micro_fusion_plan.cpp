// Micro-benchmark for the compiled FusionPlan API (ROADMAP item 1): the
// decide-once/execute-many amortization argument, measured on the HOST.
//
// Part 1 — plan *resolution* per message over repeat-layout traffic (the
// four paper workloads, each at three counts so the count-independent
// layout signature is doing real work):
//
//   per_message: every message declares a FusionPlan and compiles it
//                through the solver registry from scratch — the
//                decide-every-message baseline;
//   compiled:    every message resolves through one PlanCache
//                (compilePlanCached) — after the first sight of each
//                structure, compilation is a cache hit.
//
// This is a host-only tight loop (no simulation), so the comparison is
// deterministic: the cached path does a strict subset of the per-message
// path's work. The claim: compiled/cached ns/message <= per-message
// ns/message, with a hit rate approaching 1 on repeat-layout traffic.
//
// Part 2 — the same A/B embedded in full engine traffic (submit of the
// bound step, flush, done-polling): shows the plan slice is a small
// fraction of the ~2 us/message scheduling machinery, i.e. plan handling is
// never the bottleneck on either path.
//
// Part 3 — end-to-end: a two-rank bulk exchange through mpi::Runtime
// (whose submit sites all route through compiled plans) and the per-Proc
// plan-cache counters it leaves behind.
//
// Writes the record to BENCH_fusion_plan.json (or argv[1]).
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/record.hpp"
#include "bench_util/table.hpp"
#include "common/check.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/runtime.hpp"
#include "schemes/solver.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace dkf;

enum class Path { PerMessage, Compiled };

struct PathResult {
  std::size_t messages{0};
  double wall_ns_per_msg{0.0};
  std::size_t hits{0};
  std::size_t misses{0};
  double hitRate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// One traffic unit: a live layout (some count of some workload type) and
/// device buffers sized for it.
struct Msg {
  ddt::LayoutPtr layout;
  gpu::MemSpan origin;
  gpu::MemSpan packed;
};

/// Host-only resolution loop: `rounds` passes over the repeat-layout pool,
/// each message declaring its plan and resolving it (fresh compile vs one
/// shared PlanCache). No simulation — isolates the per-message decision
/// cost the compiled API exists to amortize.
PathResult runResolution(Path path, std::size_t rounds) {
  const auto hw = hw::lassen().node;
  std::vector<ddt::LayoutPtr> pool;
  for (const auto& wl : workloads::paperWorkloads(8)) {
    for (const std::size_t count : {1u, 2u, 4u}) {
      pool.push_back(
          std::make_shared<const ddt::Layout>(ddt::flatten(wl.type, count)));
    }
  }

  core::PlanCache cache;
  std::size_t live = 0;  // defeat dead-code elimination of the loop body
  const double wall_ns = bench::wallNs([&] {
    for (std::size_t round = 0; round < rounds; ++round) {
      for (const ddt::LayoutPtr& layout : pool) {
        core::FusionPlan plan;
        plan.addPack(layout);
        const core::CompiledPlanPtr compiled =
            path == Path::Compiled
                ? schemes::compilePlanCached(cache, plan,
                                             schemes::Scheme::Proposed, hw)
                : schemes::compilePlan(plan, schemes::Scheme::Proposed, hw);
        live += compiled->steps.size();
      }
    }
  });
  DKF_CHECK(live == rounds * pool.size());

  PathResult r;
  r.messages = rounds * pool.size();
  r.wall_ns_per_msg = wall_ns / static_cast<double>(r.messages);
  r.hits = cache.hits();
  r.misses = cache.misses();
  return r;
}

/// Drive `rounds` passes over the repeat-layout pool through one engine,
/// compiling per message or through a shared PlanCache.
PathResult runPath(Path path, std::size_t rounds) {
  sim::Engine eng;
  auto machine = hw::lassen();
  sim::CpuTimeline cpu(eng);
  gpu::Gpu gpu(eng, machine.node, 0);
  auto engine = schemes::SolverRegistry::instance()
                    .at(schemes::Scheme::Proposed)
                    .makeEngine(eng, cpu, gpu, core::FusionPolicy{});

  // Twelve distinct live layouts but few distinct signatures: each paper
  // workload flattened at three counts. The cached path compiles at most
  // twice per workload (boundary-coalescing types hash count 1 apart from
  // counts >= 2), not once per (workload, count).
  std::vector<Msg> pool;
  for (const auto& wl : workloads::paperWorkloads(8)) {
    for (const std::size_t count : {1u, 2u, 4u}) {
      Msg m;
      m.layout = std::make_shared<const ddt::Layout>(ddt::flatten(wl.type, count));
      m.origin = gpu.memory().allocate(
          static_cast<std::size_t>(m.layout->endOffset()));
      m.packed = gpu.memory().allocate(m.layout->size());
      pool.push_back(std::move(m));
    }
  }

  core::PlanCache cache;
  eng.spawn([](sim::Engine& e, schemes::DdtEngine& ddt_engine, gpu::Gpu& g,
               core::PlanCache& c, Path p, const std::vector<Msg>& msgs,
               std::size_t rnds) -> sim::Task<void> {
    const hw::NodeSpec& hw = g.nodeSpec();
    for (std::size_t round = 0; round < rnds; ++round) {
      std::vector<schemes::Ticket> tickets;
      tickets.reserve(msgs.size());
      for (const Msg& m : msgs) {
        core::FusionPlan plan;
        plan.addPack(m.layout);
        const core::CompiledPlanPtr compiled =
            p == Path::Compiled
                ? schemes::compilePlanCached(c, plan, schemes::Scheme::Proposed,
                                             hw)
                : schemes::compilePlan(plan, schemes::Scheme::Proposed, hw);
        tickets.push_back(co_await ddt_engine.submit(
            compiled->steps.front().bind(m.layout, nullptr, m.origin,
                                         m.packed)));
      }
      co_await ddt_engine.flush();
      for (const schemes::Ticket& t : tickets) {
        while (!ddt_engine.done(t)) {
          co_await e.delay(us(1));  // progress-engine poll period
        }
      }
    }
  }(eng, *engine, gpu, cache, path, pool, rounds));

  const double wall_ns = bench::wallNs([&] { eng.run(); });

  PathResult r;
  r.messages = rounds * pool.size();
  r.wall_ns_per_msg = wall_ns / static_cast<double>(r.messages);
  r.hits = cache.hits();
  r.misses = cache.misses();
  return r;
}

/// End-to-end: bulk isend/irecv rounds through the runtime (whose submit
/// sites all execute via compiled plans) with the count varying per op —
/// returns the plan-cache counters summed over both ranks.
PathResult runRuntimeExchange() {
  sim::Engine eng;
  hw::Cluster cluster(eng, hw::lassen(), 2);
  mpi::RuntimeConfig config;
  config.scheme = schemes::Scheme::Proposed;
  mpi::Runtime runtime(cluster, config);

  const auto wl = workloads::specfem3dCm(16);
  constexpr std::size_t kMaxCount = 4;
  constexpr int kOps = 16;
  constexpr int kRounds = 8;
  const std::size_t region = wl.type->extent() * kMaxCount;

  auto& a = runtime.proc(0);
  auto& b = runtime.proc(4);  // other node: inter-node bulk path
  std::vector<gpu::MemSpan> sa, ra, sb, rb;
  for (int i = 0; i < kOps; ++i) {
    sa.push_back(a.allocDevice(region));
    ra.push_back(a.allocDevice(region));
    sb.push_back(b.allocDevice(region));
    rb.push_back(b.allocDevice(region));
  }

  auto body = [](mpi::Proc& p, std::vector<gpu::MemSpan>& sends,
                 std::vector<gpu::MemSpan>& recvs, ddt::DatatypePtr type,
                 int peer) -> sim::Task<void> {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<mpi::RequestPtr> reqs;
      for (int i = 0; i < kOps; ++i) {
        // Counts cycle 1..kMaxCount: live layouts differ but collapse to
        // two signatures (count 1, counts >= 2), so each rank compiles at
        // most two pack and two unpack plans; everything else hits.
        const std::size_t count = 1 + (i % kMaxCount);
        reqs.push_back(co_await p.irecv(recvs[i], type, count, peer, i));
        reqs.push_back(co_await p.isend(sends[i], type, count, peer, i));
      }
      co_await p.waitall(std::move(reqs));
    }
  };
  eng.spawn(body(a, sa, ra, wl.type, 4));
  eng.spawn(body(b, sb, rb, wl.type, 0));
  eng.run();

  PathResult r;
  r.messages = static_cast<std::size_t>(2 * 2 * kOps * kRounds);
  r.hits = a.planCache().hits() + b.planCache().hits();
  r.misses = a.planCache().misses() + b.planCache().misses();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(std::cout,
                "Micro — Compiled FusionPlan: cached-plan vs per-message "
                "compile (host wall-clock per message)");

  const auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return std::string(buf);
  };

  // ---- Part 1: plan resolution, host-only ----
  constexpr std::size_t kResolutionRounds = 32768;
  constexpr int kTrials = 5;
  // Warm-up absorbs first-touch allocation noise; measured passes count.
  (void)runResolution(Path::PerMessage, 256);
  (void)runResolution(Path::Compiled, 256);
  // Alternate the paths and print each one's best trial: the cached path
  // does a strict subset of the per-message path's work, so the minima
  // order deterministically.
  PathResult per_message, compiled;
  SampleSet per_message_ns, compiled_ns;
  for (int trial = 0; trial < kTrials; ++trial) {
    per_message = runResolution(Path::PerMessage, kResolutionRounds);
    compiled = runResolution(Path::Compiled, kResolutionRounds);
    per_message_ns.add(per_message.wall_ns_per_msg);
    compiled_ns.add(compiled.wall_ns_per_msg);
  }
  const bench::Spread per_message_wall = bench::spreadOf(per_message_ns);
  const bench::Spread compiled_wall = bench::spreadOf(compiled_ns);

  bench::Table table(
      {"Path", "Messages", "Wall ns/msg", "Plan hits", "Plan misses",
       "Hit rate"});
  table.addRow({"per-message compile", std::to_string(per_message.messages),
                fmt(per_message_wall.min), "-", "-", "-"});
  table.addRow({"compiled (PlanCache)", std::to_string(compiled.messages),
                fmt(compiled_wall.min), std::to_string(compiled.hits),
                std::to_string(compiled.misses), fmt(compiled.hitRate())});
  table.print(std::cout);

  const double speedup = compiled_wall.min > 0.0
                             ? per_message_wall.min / compiled_wall.min
                             : 0.0;
  std::cout << "\nShape: the cached path resolves each layout structure once "
               "(8 misses across a 12-layout, 3-count pool: two signatures "
               "per workload, count 1 vs counts >= 2) and serves the rest "
               "from the PlanCache — host ns/message at or below the "
               "per-message compile path (speedup here: "
            << fmt(speedup) << "x).\n";

  // ---- Part 2: the same A/B embedded in full engine traffic ----
  bench::banner(std::cout,
                "Micro — Plan slice inside full engine traffic (submit + "
                "flush + done-poll)");
  constexpr std::size_t kEngineRounds = 4096;
  (void)runPath(Path::PerMessage, 64);
  (void)runPath(Path::Compiled, 64);
  PathResult e2e_per_message, e2e_compiled;
  SampleSet e2e_per_message_ns, e2e_compiled_ns;
  for (std::size_t trial = 0; trial < bench::kMinReps; ++trial) {
    e2e_per_message = runPath(Path::PerMessage, kEngineRounds);
    e2e_compiled = runPath(Path::Compiled, kEngineRounds);
    e2e_per_message_ns.add(e2e_per_message.wall_ns_per_msg);
    e2e_compiled_ns.add(e2e_compiled.wall_ns_per_msg);
  }
  const bench::Spread e2e_per_message_wall =
      bench::spreadOf(e2e_per_message_ns);
  const bench::Spread e2e_compiled_wall = bench::spreadOf(e2e_compiled_ns);
  bench::Table e2e_table({"Path", "Messages", "Wall ns/msg"});
  e2e_table.addRow({"per-message compile",
                    std::to_string(e2e_per_message.messages),
                    fmt(e2e_per_message_wall.median)});
  e2e_table.addRow({"compiled (PlanCache)",
                    std::to_string(e2e_compiled.messages),
                    fmt(e2e_compiled_wall.median)});
  e2e_table.print(std::cout);
  std::cout << "\nShape: both paths sit within noise of each other — plan "
               "handling is a ~"
            << fmt(100.0 * (per_message_wall.min - compiled_wall.min) /
                   e2e_compiled_wall.median)
            << "% slice of the ~2 us/message scheduling machinery, i.e. "
               "never the bottleneck on either path.\n";

  bench::banner(std::cout,
                "Micro — Plan-cache hit rate through mpi::Runtime (bulk "
                "exchange, counts cycling 1..4)");
  const PathResult runtime = runRuntimeExchange();
  bench::Table rt_table(
      {"Messages", "Plan hits", "Plan misses", "Hit rate"});
  rt_table.addRow({std::to_string(runtime.messages),
                   std::to_string(runtime.hits),
                   std::to_string(runtime.misses), fmt(runtime.hitRate())});
  rt_table.print(std::cout);
  std::cout << "\nShape: one compile per (op kind, layout structure) per "
               "rank; every further message — any count — is a hit.\n";

  bench::Record record(
      "micro_fusion_plan",
      "repeat-layout traffic through the PlanCache runs at or below the "
      "per-message compile path's host ns/message, with a hit rate "
      "approaching 1");
  record.config() = bench::Json::object(
      {{"resolution_rounds", kResolutionRounds},
       {"engine_rounds", kEngineRounds}});
  record.deterministic() = bench::Json::object(
      {{"resolution",
        bench::Json::object({{"messages", compiled.messages},
                             {"plan_hits", compiled.hits},
                             {"plan_misses", compiled.misses},
                             {"hit_rate", compiled.hitRate()}})},
       {"engine_traffic_messages", e2e_compiled.messages},
       {"runtime_exchange",
        bench::Json::object({{"messages", runtime.messages},
                             {"plan_hits", runtime.hits},
                             {"plan_misses", runtime.misses},
                             {"hit_rate", runtime.hitRate()}})}});
  record.wall() = bench::Json::object(
      {{"resolution_ns_per_msg",
        bench::Json::object({{"per_message", per_message_wall},
                             {"compiled", compiled_wall}})},
       {"engine_traffic_ns_per_msg",
        bench::Json::object({{"per_message", e2e_per_message_wall},
                             {"compiled", e2e_compiled_wall}})}});
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_fusion_plan.json";
  if (!record.write(json_path)) return 1;
  std::cout << "\nfusion-plan record written to " << json_path << "\n";
  return 0;
}
