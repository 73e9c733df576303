#include "bench_util/experiment.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "ddt/layout.hpp"
#include "hw/cluster.hpp"
#include "schemes/fusion_engine.hpp"

namespace dkf::bench {

DurationNs ExchangeResult::observedCommunication() const {
  // CPU-attributed categories only: (Un)Pack is GPU-side kernel time that
  // overlaps the CPU timeline (and, for synchronous schemes, is already
  // covered by the Sync. busy-wait).
  const DurationNs attributed = breakdown.launching + breakdown.scheduling +
                                breakdown.synchronize;
  return total_elapsed > attributed ? total_elapsed - attributed : 0;
}

namespace {

struct RankState {
  std::vector<gpu::MemSpan> send_bufs;
  std::vector<gpu::MemSpan> recv_bufs;
};

sim::Task<void> rankBody(mpi::Proc& proc, const ExchangeConfig& cfg,
                         RankState& bufs, int peer, bool timing_rank,
                         ExchangeResult& result) {
  const int total_iters = cfg.warmup + cfg.iterations;

  for (int iter = 0; iter < total_iters; ++iter) {
    co_await proc.barrier(2);
    if (timing_rank && iter == cfg.warmup) {
      // Discard warmup costs from the breakdown and the clock.
      proc.ddtEngine().breakdown().reset();
      result.total_elapsed = 0;
    }
    const TimeNs t0 = proc.engine().now();

    std::vector<mpi::RequestPtr> reqs;
    reqs.reserve(static_cast<std::size_t>(2 * cfg.n_ops));
    for (int i = 0; i < cfg.n_ops; ++i) {
      reqs.push_back(co_await proc.irecv(bufs.recv_bufs[i], cfg.workload.type,
                                         cfg.workload.count, peer, i));
    }
    for (int i = 0; i < cfg.n_ops; ++i) {
      reqs.push_back(co_await proc.isend(bufs.send_bufs[i], cfg.workload.type,
                                         cfg.workload.count, peer, i));
    }
    co_await proc.waitall(std::move(reqs));

    const TimeNs t1 = proc.engine().now();
    if (timing_rank && iter >= cfg.warmup) {
      result.latency_us.add(toUs(t1 - t0));
      result.total_elapsed += (t1 - t0);
    }
  }
}

}  // namespace

ExchangeResult runBulkExchange(const ExchangeConfig& cfg) {
  DKF_CHECK(cfg.n_ops > 0 && cfg.iterations > 0);

  sim::Engine eng;
  hw::MachineSpec machine = cfg.machine;

  // Size the device arenas to the experiment: each rank keeps n_ops send +
  // n_ops recv regions plus packing staging and headroom.
  const std::size_t region =
      std::max<std::size_t>(cfg.workload.regionBytes(), 64);
  const std::size_t needed =
      region * static_cast<std::size_t>(cfg.n_ops) * 3 + (8u << 20);
  machine.node.gpu.arena_bytes = std::max(machine.node.gpu.arena_bytes, needed);

  // Only two ranks take part, so provision one GPU per node (two for the
  // intra-node case).
  machine.node.gpus_per_node = cfg.intra_node ? 2 : 1;
  hw::Cluster cluster(eng, machine, cfg.intra_node ? 1 : 2);

  std::optional<fault::FaultPlan> plan;
  if (cfg.inject_faults) {
    plan.emplace(eng, cfg.faults);
    cluster.setFaultPlan(&*plan);
  }
  if (cfg.watchdog > 0) eng.setWatchdog(cfg.watchdog);

  mpi::RuntimeConfig rt_cfg;
  rt_cfg.scheme = cfg.scheme;
  rt_cfg.tuned_threshold = cfg.tuned_threshold;
  rt_cfg.tuned_list_capacity = cfg.list_capacity;
  rt_cfg.tuned_max_requests = cfg.max_requests_per_kernel;
  rt_cfg.enable_direct_ipc = cfg.enable_direct_ipc;
  rt_cfg.rendezvous = cfg.rendezvous;
  rt_cfg.reliability = cfg.reliability;
  mpi::Runtime rt(cluster, rt_cfg);

  const int rank_a = 0;
  const int rank_b = 1;

  // Allocate and fill the exchange buffers once, outside the timed loop.
  // A send carries only the layout's runs, so only those bytes are filled.
  const ddt::Layout layout =
      ddt::flatten(cfg.workload.type, cfg.workload.count);
  DKF_CHECK(layout.minOffset() >= 0 &&
            static_cast<std::size_t>(layout.endOffset()) <= region);
  std::array<RankState, 2> states;
  std::array<mpi::Proc*, 2> procs{&rt.proc(rank_a), &rt.proc(rank_b)};
  Rng rng(0xBEEF);
  for (int side = 0; side < 2; ++side) {
    for (int i = 0; i < cfg.n_ops; ++i) {
      auto s = procs[side]->allocDevice(region);
      auto r = procs[side]->allocDevice(region);
      layout.forEachRun([&](std::int64_t off, std::size_t len) {
        for (auto& b : s.bytes.subspan(static_cast<std::size_t>(off), len))
          b = static_cast<std::byte>(rng.below(256));
      });
      states[side].send_bufs.push_back(s);
      states[side].recv_bufs.push_back(r);
    }
  }

  ExchangeResult result;
  eng.spawn(rankBody(*procs[0], cfg, states[0], rank_b, /*timing_rank=*/true,
                     result));
  eng.spawn(rankBody(*procs[1], cfg, states[1], rank_a, /*timing_rank=*/false,
                     result));
  eng.run();
  DKF_CHECK_MSG(eng.unfinishedTasks() == 0,
                "experiment deadlocked with " << eng.unfinishedTasks()
                                              << " suspended rank task(s)");

  result.breakdown = procs[0]->ddtEngine().breakdown();
  // Per-iteration averages (the paper reports mean latency of the loop).
  if (cfg.iterations > 0) {
    const auto n = static_cast<DurationNs>(cfg.iterations);
    result.breakdown.pack_unpack /= n;
    result.breakdown.launching /= n;
    result.breakdown.scheduling /= n;
    result.breakdown.synchronize /= n;
    result.breakdown.communication /= n;
    result.total_elapsed /= n;
  }
  result.breakdown.communication = result.observedCommunication();
  if (auto* fe =
          dynamic_cast<schemes::FusionEngine*>(&procs[0]->ddtEngine())) {
    result.fused_kernels = fe->scheduler().fusedKernelsLaunched();
    result.fallbacks = fe->fallbacks();
  }
  if (plan) result.fault_counters = plan->counters();
  for (const mpi::Proc* p : procs) {
    result.transport.retransmissions += p->transport().retransmissions;
    result.transport.acks_sent += p->transport().acks_sent;
    result.transport.duplicates_ignored += p->transport().duplicates_ignored;
    result.transport.host_staging_fallbacks +=
        p->transport().host_staging_fallbacks;
  }
  for (mpi::Proc* p : procs) {
    result.plan_cache.hits += p->planCache().hits();
    result.plan_cache.misses += p->planCache().misses();
    result.plan_cache.evictions += p->planCache().evictions();
    result.plan_cache.fallbacks += p->planCache().counters().fallbacks;
  }
  result.end_time = eng.now();
  return result;
}

}  // namespace dkf::bench
