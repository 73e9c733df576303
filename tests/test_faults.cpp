// Fault-injection subsystem tests: watchdog semantics, FaultPlan
// determinism/replay, end-to-end reproducibility of lossy runs, the
// liveness guarantee (a hung run trips the watchdog instead of spinning),
// graceful-degradation paths (CPU pack fallback, host staging fallback),
// and a seeded fuzz sweep asserting byte-correctness under sustained loss.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/experiment.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/runtime.hpp"
#include "schemes/factory.hpp"
#include "schemes/fusion_engine.hpp"
#include "sim/trace.hpp"
#include "workloads/workloads.hpp"

namespace dkf {
namespace {

// ---------------------------------------------------------------- watchdog

TEST(Watchdog, TripsWhenVirtualTimeExceedsDeadline) {
  sim::Engine eng;
  eng.setWatchdog(us(10));
  eng.schedule(us(20), [] {});
  EXPECT_THROW(eng.run(), CheckFailure);
}

TEST(Watchdog, ClearDisarms) {
  sim::Engine eng;
  eng.setWatchdog(us(10));
  eng.clearWatchdog();
  EXPECT_FALSE(eng.watchdogArmed());
  bool ran = false;
  eng.schedule(us(20), [&] { ran = true; });
  EXPECT_NO_THROW(eng.run());
  EXPECT_TRUE(ran);
}

TEST(Watchdog, EventsBeforeDeadlineRunNormally) {
  sim::Engine eng;
  eng.setWatchdog(us(100));
  int ticks = 0;
  eng.schedule(us(10), [&] { ++ticks; });
  eng.schedule(us(50), [&] { ++ticks; });
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(ticks, 2);
}

// ------------------------------------------------------ plan determinism

std::vector<bool> drawSequence(fault::FaultPlan& plan, int n) {
  std::vector<bool> seq;
  for (int i = 0; i < n; ++i) {
    seq.push_back(plan.dropData());
    seq.push_back(plan.dropControl());
    seq.push_back(plan.nicStallDelay() > 0);
    seq.push_back(plan.failLaunch());
    seq.push_back(plan.failAlloc());
  }
  return seq;
}

TEST(FaultPlanDeterminism, SameSeedSameDrawsAndLog) {
  fault::FaultSpec fs;
  fs.seed = 0xDECAF;
  fs.data_loss = 0.3;
  fs.control_loss = 0.2;
  fs.nic_stall_prob = 0.25;
  fs.launch_failure = 0.15;
  fs.alloc_failure = 0.1;

  sim::Engine eng_a, eng_b;
  fault::FaultPlan a(eng_a, fs), b(eng_b, fs);
  // Tracing only observes: the traced plan draws exactly as the untraced
  // one, and emits one instant per logged fault on its "faults" track.
  auto tracer = sim::Tracer::enabled();
  a.setTracer(&tracer);
  EXPECT_EQ(drawSequence(a, 200), drawSequence(b, 200));
  EXPECT_EQ(a.counters(), b.counters());
  EXPECT_EQ(a.log(), b.log());
  EXPECT_GT(a.counters().total(), 0u);
  EXPECT_EQ(tracer.eventCount(), a.log().size());
  std::ostringstream json;
  tracer.exportJson(json);
  for (const char* name : {"\"faults\"", "data_drop", "control_drop",
                           "nic_stall", "launch_failure", "alloc_failure"}) {
    EXPECT_NE(json.str().find(name), std::string::npos) << name;
  }
}

TEST(FaultPlanDeterminism, DistinctSeedsDiverge) {
  fault::FaultSpec fs;
  fs.data_loss = 0.3;
  fs.control_loss = 0.3;
  fs.seed = 1;
  sim::Engine eng_a, eng_b;
  fault::FaultPlan a(eng_a, fs);
  fs.seed = 2;
  fault::FaultPlan b(eng_b, fs);
  EXPECT_NE(drawSequence(a, 200), drawSequence(b, 200));
}

TEST(FaultPlanDeterminism, CategoryStreamsAreIndependent) {
  // Adding a launch-failure rate must not change which packets drop.
  fault::FaultSpec fs;
  fs.seed = 0xABCD;
  fs.data_loss = 0.3;
  sim::Engine eng_a, eng_b;
  fault::FaultPlan a(eng_a, fs);
  fs.launch_failure = 0.9;
  fault::FaultPlan b(eng_b, fs);
  std::vector<bool> drops_a, drops_b;
  for (int i = 0; i < 200; ++i) {
    drops_a.push_back(a.dropData());
    (void)b.failLaunch();  // interleave draws from the other stream
    drops_b.push_back(b.dropData());
  }
  EXPECT_EQ(drops_a, drops_b);
}

// ------------------------------------------------- end-to-end replayability

bench::ExchangeConfig lossyExchange(std::uint64_t seed) {
  bench::ExchangeConfig cfg;
  cfg.machine = hw::lassen();
  cfg.scheme = schemes::Scheme::Proposed;
  cfg.workload = workloads::milcZdown(32);
  cfg.n_ops = 8;
  cfg.iterations = 5;
  cfg.warmup = 1;
  cfg.inject_faults = true;
  cfg.faults.seed = seed;
  cfg.faults.data_loss = 0.1;
  cfg.faults.control_loss = 0.1;
  cfg.faults.nic_stall_prob = 0.05;
  cfg.faults.nic_stall = us(3);
  cfg.reliability.enabled = true;
  cfg.reliability.base_timeout = us(40);
  cfg.reliability.max_timeout = us(2000);
  cfg.reliability.max_retries = 60;
  cfg.watchdog = sec(2);
  return cfg;
}

TEST(Replay, SameSeedReproducesTimestampsAndCounters) {
  const auto a = bench::runBulkExchange(lossyExchange(0x1234));
  const auto b = bench::runBulkExchange(lossyExchange(0x1234));
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
  EXPECT_EQ(a.transport.retransmissions, b.transport.retransmissions);
  EXPECT_EQ(a.transport.acks_sent, b.transport.acks_sent);
  EXPECT_EQ(a.transport.duplicates_ignored, b.transport.duplicates_ignored);
  EXPECT_EQ(a.meanLatencyUs(), b.meanLatencyUs());
  EXPECT_GT(a.fault_counters.total(), 0u) << "faults should actually fire";
}

TEST(Replay, DistinctSeedsProduceDistinctFaultTraces) {
  const auto a = bench::runBulkExchange(lossyExchange(0x1234));
  const auto c = bench::runBulkExchange(lossyExchange(0x9999));
  EXPECT_TRUE(a.end_time != c.end_time ||
              !(a.fault_counters == c.fault_counters))
      << "different fault seeds should perturb the run";
}

// ----------------------------------------------------------------- liveness

TEST(Liveness, TotalControlLossWithoutRetransmissionTripsWatchdog) {
  // 100% control loss kills every RTS, so the rendezvous never matches.
  // Without the reliability layer this is a livelock: the progress engine
  // polls forever. The engine watchdog must convert it into a clean error.
  auto cfg = lossyExchange(0x77);
  cfg.faults.data_loss = 0.0;
  cfg.faults.control_loss = 1.0;
  cfg.faults.nic_stall_prob = 0.0;
  cfg.reliability = {};  // retransmission disabled
  cfg.watchdog = ms(50);
  EXPECT_THROW(bench::runBulkExchange(cfg), CheckFailure);
}

TEST(Liveness, SameLossHealsWithRetransmissionEnabled) {
  // The same world, but only the first 25 control packets are lost and the
  // reliability layer is on: the run must complete (and must have actually
  // retransmitted something to do so).
  auto cfg = lossyExchange(0x77);
  cfg.faults.data_loss = 0.0;
  cfg.faults.control_loss = 1.0;
  cfg.faults.max_control_drops = 25;
  cfg.faults.nic_stall_prob = 0.0;
  const auto r = bench::runBulkExchange(cfg);
  EXPECT_EQ(r.fault_counters.control_drops, 25u);
  EXPECT_GT(r.transport.retransmissions, 0u);
}

// ----------------------------------------------- graceful degradation paths

/// One 2-rank, byte-verified exchange under an arbitrary FaultSpec.
struct FaultedWorld {
  explicit FaultedWorld(schemes::Scheme scheme, workloads::Workload workload,
                        const fault::FaultSpec& fs,
                        mpi::ReliabilityConfig rel = {},
                        mpi::Protocol rendezvous = mpi::Protocol::RGet)
      : wl(std::move(workload)) {
    hw::MachineSpec machine = hw::lassen();
    region = std::max<std::size_t>(wl.regionBytes(), 64);
    machine.node.gpu.arena_bytes =
        std::max(machine.node.gpu.arena_bytes, region * 8 + (8u << 20));
    machine.node.gpus_per_node = 1;
    cluster.emplace(eng, machine, 2);
    plan.emplace(eng, fs);
    cluster->setFaultPlan(&*plan);
    mpi::RuntimeConfig cfg;
    cfg.scheme = scheme;
    cfg.rendezvous = rendezvous;
    cfg.reliability = rel;
    rt.emplace(*cluster, cfg);
    eng.setWatchdog(sec(1));
  }

  /// Rank 0 sends one workload datatype to rank 1; returns true when the
  /// unpacked bytes match the flattened layout exactly.
  bool exchangeAndVerify(std::uint64_t fill_seed = 7) {
    auto& p0 = rt->proc(0);
    auto& p1 = rt->proc(1);
    auto sbuf = p0.allocDevice(region);
    auto rbuf = p1.allocDevice(region);
    Rng fill(fill_seed);
    for (auto& b : sbuf.bytes) b = static_cast<std::byte>(fill.below(256));
    std::memset(rbuf.bytes.data(), 0xAA, region);

    eng.spawn([](mpi::Proc& p, gpu::MemSpan b, const workloads::Workload& w)
                  -> sim::Task<void> {
      auto req = co_await p.isend(b, w.type, w.count, 1, 0);
      co_await p.wait(req);
    }(p0, sbuf, wl));
    eng.spawn([](mpi::Proc& p, gpu::MemSpan b, const workloads::Workload& w)
                  -> sim::Task<void> {
      auto req = co_await p.irecv(b, w.type, w.count, 0, 0);
      co_await p.wait(req);
    }(p1, rbuf, wl));
    eng.run();
    if (eng.unfinishedTasks() != 0) return false;

    const auto layout = ddt::flatten(wl.type, wl.count);
    std::vector<std::byte> expect(region, std::byte{0xAA});
    for (const auto& seg : layout.materialize()) {
      std::memcpy(expect.data() + seg.offset, sbuf.bytes.data() + seg.offset,
                  seg.len);
    }
    return std::memcmp(rbuf.bytes.data(), expect.data(), region) == 0;
  }

  workloads::Workload wl;
  std::size_t region{0};
  sim::Engine eng;
  std::optional<hw::Cluster> cluster;
  std::optional<fault::FaultPlan> plan;
  std::optional<mpi::Runtime> rt;
};

TEST(Degradation, FusionSchedulerFallsBackToCpuPack) {
  fault::FaultSpec fs;
  fs.launch_failure = 1.0;  // every launch attempt fails, forever
  FaultedWorld w(schemes::Scheme::Proposed, workloads::milcZdown(32), fs);
  EXPECT_TRUE(w.exchangeAndVerify());
  auto* fe =
      dynamic_cast<schemes::FusionEngine*>(&w.rt->proc(0).ddtEngine());
  ASSERT_NE(fe, nullptr);
  EXPECT_GT(fe->scheduler().counters().cpu_fallback_batches, 0u);
  EXPECT_GT(w.plan->counters().launch_failures, 0u);
}

TEST(Degradation, StagingAllocFailureFallsBackToHostMemory) {
  fault::FaultSpec fs;
  fs.alloc_failure = 1.0;
  FaultedWorld w(schemes::Scheme::GpuAsync, workloads::milcZdown(32), fs);
  EXPECT_TRUE(w.exchangeAndVerify());
  const auto& t0 = w.rt->proc(0).transport();
  const auto& t1 = w.rt->proc(1).transport();
  EXPECT_GT(t0.host_staging_fallbacks + t1.host_staging_fallbacks, 0u);
  EXPECT_GT(w.plan->counters().alloc_failures, 0u);
}

TEST(Degradation, SingleEagerDropRecoveredByOneRetransmission) {
  fault::FaultSpec fs;
  fs.data_loss = 1.0;
  fs.max_data_drops = 1;  // drop exactly the first payload, then heal
  mpi::ReliabilityConfig rel;
  rel.enabled = true;
  rel.base_timeout = ms(1);  // generously past worst-case delivery
  FaultedWorld w(schemes::Scheme::GpuAsync, workloads::specfem3dOc(8), fs,
                 rel);
  EXPECT_TRUE(w.exchangeAndVerify());
  EXPECT_EQ(w.plan->counters().data_drops, 1u);
  const auto& t0 = w.rt->proc(0).transport();
  EXPECT_EQ(t0.retransmissions, 1u);
}

TEST(Degradation, NicStallsDelayButDoNotBreakTransfers) {
  fault::FaultSpec fs;
  fs.nic_stall_prob = 1.0;
  fs.nic_stall = us(5);
  FaultedWorld w(schemes::Scheme::Proposed, workloads::nasMgFace(48), fs);
  EXPECT_TRUE(w.exchangeAndVerify());
  EXPECT_GT(w.plan->counters().nic_stalls, 0u);
}

TEST(Degradation, DegradedLinkWindowSlowsButCompletes) {
  fault::FaultSpec fs;
  fs.link_windows.push_back({ns(0), sec(10), 0.5});
  FaultedWorld w(schemes::Scheme::Proposed, workloads::milcZdown(32), fs);
  EXPECT_TRUE(w.exchangeAndVerify());
  EXPECT_GT(w.plan->counters().degraded_transfers, 0u);
}

TEST(Degradation, LinkFlapHealsWithRetransmission) {
  // Link fully down for the first 200 us (every packet in the window is
  // lost), then back up: the retransmission layer must ride it out.
  fault::FaultSpec fs;
  fs.link_windows.push_back({ns(0), us(200), 0.0});
  mpi::ReliabilityConfig rel;
  rel.enabled = true;
  rel.base_timeout = us(40);
  rel.max_timeout = us(2000);
  rel.max_retries = 60;
  FaultedWorld w(schemes::Scheme::Proposed, workloads::milcZdown(32), fs,
                 rel);
  EXPECT_TRUE(w.exchangeAndVerify());
  EXPECT_GT(w.plan->counters().degraded_transfers, 0u);
}

// --------------------------------------------------------------- fault fuzz

TEST(FaultFuzz, SeededLossSweepStaysByteCorrect) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    fault::FaultSpec fs;
    fs.seed = seed * 0x9E3779B97F4A7C15ull;
    fs.data_loss = 0.15;
    fs.control_loss = 0.15;
    fs.nic_stall_prob = 0.1;
    fs.nic_stall = us(2);
    mpi::ReliabilityConfig rel;
    rel.enabled = true;
    rel.base_timeout = us(40);
    rel.max_timeout = us(2000);
    rel.max_retries = 60;
    const auto proto =
        seed % 2 == 0 ? mpi::Protocol::RPut : mpi::Protocol::RGet;
    FaultedWorld w(schemes::Scheme::Proposed, workloads::milcZdown(24), fs,
                   rel, proto);
    EXPECT_TRUE(w.exchangeAndVerify(seed)) << "corrupted or hung exchange";
  }
}

}  // namespace
}  // namespace dkf
