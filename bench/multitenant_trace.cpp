// Multi-tenant serving-plane bench (MODEL.md §14) — the isolation headline.
//
// Two lassen nodes, one shared internode link. Tenant 0 (the victim)
// serves a paced stream of small eager messages — mostly contiguous 1 KiB,
// every 8th a non-contiguous vector layout so the fusion/plan-cache path
// sees per-tenant traffic. Tenant 1 (the adversary) floods the same link
// with bulk 4 KiB eager bursts from the same rank pair. Per-round, the
// receiver samples every victim message's end-to-end latency
// (completed_at - posted_at on the recv).
//
// Modes over the same trace shape:
//
//   fifo_solo       victim alone, seed FIFO wire              (baseline)
//   fifo_adversary  victim + adversary, FIFO wire: the victim queues
//                   behind the adversary's entire backlog — unbounded
//                   p99 inflation (the failure mode)
//   drr_solo        victim alone, contention model on         (baseline)
//   drr_adversary   weighted wire sharing (4:1) + DRR delivery
//                   arbitration + per-tenant admission (256): victim p99
//                   inflation ≤ 2x
//   drr_faulted     drr_adversary under link-degradation windows
//                   (noisy-neighbor FaultPlan; reported, not asserted)
//
// The trace totals ~1M messages across modes. Writes its record to
// BENCH_multitenant.json (or argv[1]); the claim is in virtual time, so the
// record holds no wall time. `--smoke` shrinks round counts only —
// per-round shape (and therefore the isolation ratios) is unchanged, so CI
// asserts the same bounds.
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util/percentiles.hpp"
#include "bench_util/record.hpp"
#include "bench_util/table.hpp"
#include "common/alloc_count.hpp"
#include "common/check.hpp"
#include "core/fusion_plan.hpp"
#include "ddt/datatype.hpp"
#include "fault/fault_plan.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/runtime.hpp"
#include "schemes/fusion_engine.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dkf;

constexpr TenantId kVictim = 0;
constexpr TenantId kAdversary = 1;

constexpr std::size_t kVictimWindow = 256;  // victim messages per round
constexpr std::size_t kVictimBytes = 1024;  // contiguous victim payload
constexpr std::size_t kVictimRegion = 2048; // slot stride (fits the vector)
constexpr std::size_t kAdvBytes = 4096;     // adversary payload (still eager)
constexpr std::size_t kAdvWindow = 3072;    // adversary messages per round
// Small on purpose: wire sharing alone cannot help the victim once a flood
// is already issued into the plane — admission caps how much of the
// adversary occupies it at a time, and backpressure holds the rest.
constexpr std::size_t kInflightLimit = 256;
constexpr int kAdvTagBase = 1 << 15;        // below kCollectiveTagBase

struct ModeCfg {
  std::string name;
  bool adversary{false};
  bool drr{false};     // contention + DRR arbitration + admission
  bool faulted{false};
  int rounds{0};
};

struct TenantReport {
  std::size_t messages{0};
  bench::PercentileSummary latency_us;
  double mean_us{0.0};
  // Admission counters summed over both ranks.
  std::size_t admitted{0};
  std::size_t peak_inflight{0};
  std::size_t throttle_waits{0};
  double throttled_us{0.0};
  std::size_t deliveries{0};  // LinkBatcher DRR deliveries (0 under FIFO)
  core::PlanCacheCounters plan_cache{};
  std::size_t fused_requests{0};
};

struct ModeResult {
  std::string name;
  std::size_t messages{0};
  double wall_s{0.0};
  TimeNs vtime{0};
  std::size_t events{0};
  std::size_t peak_pending{0};
  std::size_t degraded_transfers{0};
  // Whole-run allocation accounting (zeros unless DKF_COUNT_ALLOCS) and
  // payload-pool telemetry (net/payload.hpp).
  std::size_t total_allocs{0};
  net::PayloadPoolCounters pool{};
  double pool_hit_rate{1.0};
  std::size_t pool_peak_live_buffers{0};
  std::size_t pool_peak_live_bytes{0};
  std::size_t pool_live_end{0};
  TenantReport tenants[2];
  double allocsPerMsg() const {
    return messages > 0
               ? static_cast<double>(total_allocs) /
                     static_cast<double>(messages)
               : 0.0;
  }
};

/// The victim's datatype for message `i`: mostly contiguous bytes, every
/// 8th a strided vector (32 blocks x 32 B, stride 64) so the pack/unpack
/// path, the plan cache and the fusion scheduler carry tenant traffic.
bool victimStrided(std::size_t i) { return i % 8 == 7; }

// Each tenant submits from its own coroutine, as independent serving-plane
// clients would: the adversary blocking on admission backpressure must not
// stall the victim's submissions. The adversary task is spawned first so
// under FIFO its whole flood reserves the wire ahead of the victim.
sim::Task<void> victimSender(mpi::Proc& p, const ModeCfg& m,
                             int participants, gpu::MemSpan buf) {
  auto byte_t = ddt::Datatype::byte();
  auto vec_t = ddt::Datatype::vector(32, 32, 64, ddt::Datatype::byte());
  for (int round = 0; round < m.rounds; ++round) {
    co_await p.barrier(participants);
    std::vector<mpi::Proc::SendSpec> vic;
    vic.reserve(kVictimWindow);
    for (std::size_t i = 0; i < kVictimWindow; ++i) {
      const bool strided = victimStrided(i);
      vic.push_back({buf.subspan(i * kVictimRegion,
                                 strided ? kVictimRegion : kVictimBytes),
                     strided ? vec_t : byte_t, strided ? 1u : kVictimBytes,
                     1, static_cast<int>(i), kVictim});
    }
    co_await p.waitall(co_await p.isendBatch(std::move(vic)));
  }
}

sim::Task<void> adversarySender(mpi::Proc& p, const ModeCfg& m,
                                int participants, gpu::MemSpan buf) {
  auto byte_t = ddt::Datatype::byte();
  for (int round = 0; round < m.rounds; ++round) {
    co_await p.barrier(participants);
    std::vector<mpi::Proc::SendSpec> adv;
    adv.reserve(kAdvWindow);
    for (std::size_t j = 0; j < kAdvWindow; ++j) {
      adv.push_back({buf.subspan(j * kAdvBytes, kAdvBytes), byte_t,
                     kAdvBytes, 1, kAdvTagBase + static_cast<int>(j),
                     kAdversary});
    }
    co_await p.waitall(co_await p.isendBatch(std::move(adv)));
  }
}

sim::Task<void> receiverBody(mpi::Proc& p, const ModeCfg& m,
                             int participants, gpu::MemSpan vic_buf,
                             gpu::MemSpan adv_buf,
                             std::vector<double>& vic_lat,
                             std::vector<double>& adv_lat) {
  auto byte_t = ddt::Datatype::byte();
  auto vec_t = ddt::Datatype::vector(32, 32, 64, ddt::Datatype::byte());

  for (int round = 0; round < m.rounds; ++round) {
    co_await p.barrier(participants);
    std::vector<mpi::Proc::RecvSpec> vic;
    vic.reserve(kVictimWindow);
    for (std::size_t i = 0; i < kVictimWindow; ++i) {
      const bool strided = victimStrided(i);
      vic.push_back({vic_buf.subspan(i * kVictimRegion,
                                     strided ? kVictimRegion : kVictimBytes),
                     strided ? vec_t : byte_t, strided ? 1u : kVictimBytes,
                     0, static_cast<int>(i), kVictim});
    }
    std::vector<mpi::RequestPtr> reqs = co_await p.irecvBatch(std::move(vic));
    std::vector<mpi::RequestPtr> vic_keep = reqs;
    std::vector<mpi::RequestPtr> adv_keep;
    if (m.adversary) {
      std::vector<mpi::Proc::RecvSpec> adv;
      adv.reserve(kAdvWindow);
      for (std::size_t j = 0; j < kAdvWindow; ++j) {
        adv.push_back({adv_buf.subspan(j * kAdvBytes, kAdvBytes), byte_t,
                       kAdvBytes, 0, kAdvTagBase + static_cast<int>(j),
                       kAdversary});
      }
      adv_keep = co_await p.irecvBatch(std::move(adv));
      reqs.insert(reqs.end(), adv_keep.begin(), adv_keep.end());
    }
    co_await p.waitall(std::move(reqs));
    for (const mpi::RequestPtr& r : vic_keep) {
      vic_lat.push_back(toUs(r->completed_at - r->posted_at));
    }
    for (const mpi::RequestPtr& r : adv_keep) {
      adv_lat.push_back(toUs(r->completed_at - r->posted_at));
    }
  }
}

ModeResult runMode(const ModeCfg& m) {
  sim::Engine eng;
  hw::MachineSpec machine = hw::lassen();
  const std::size_t needed = kVictimWindow * kVictimRegion * 2 +
                             (m.adversary ? kAdvWindow * kAdvBytes * 2 : 0) +
                             (16u << 20);
  machine.node.gpu.arena_bytes =
      std::max(machine.node.gpu.arena_bytes, needed);
  machine.node.gpus_per_node = 1;
  hw::Cluster cluster(eng, machine, 2);

  std::optional<fault::FaultPlan> plan;
  if (m.faulted) {
    // Noisy-neighbor degradation: periodic windows where the shared link
    // streams at 35% — capacity loss, never packet loss (admission tokens
    // are released at delivery, so loss would need the reliability layer).
    fault::FaultSpec spec;
    for (int k = 0; k < 40; ++k) {
      spec.link_windows.push_back({us(500) + k * ms(2) + k * us(500),
                                   us(500) + k * ms(2) + k * us(500) +
                                       us(800),
                                   0.35});
    }
    plan.emplace(eng, spec);
    cluster.setFaultPlan(&*plan);
  }

  mpi::RuntimeConfig cfg;
  cfg.poll_interval = us(1);
  if (m.drr) {
    cfg.contention.enabled = true;
    cfg.contention.weights.set(kVictim, 4.0);
    cfg.contention.weights.set(kAdversary, 1.0);
    cfg.tenant_inflight_limit = kInflightLimit;
  }
  mpi::Runtime rt(cluster, cfg);

  std::array<gpu::MemSpan, 2> vic_bufs;
  std::array<gpu::MemSpan, 2> adv_bufs;
  for (int side = 0; side < 2; ++side) {
    vic_bufs[side] =
        rt.proc(side).allocDevice(kVictimWindow * kVictimRegion);
    if (m.adversary) {
      adv_bufs[side] = rt.proc(side).allocDevice(kAdvWindow * kAdvBytes);
    }
  }

  std::vector<double> vic_lat, adv_lat;
  vic_lat.reserve(static_cast<std::size_t>(m.rounds) * kVictimWindow);

  const int participants = m.adversary ? 3 : 2;
  const std::uint64_t allocs0 = allocCount();
  const double wall_ns = bench::wallNs([&] {
    if (m.adversary) {
      eng.spawn(adversarySender(rt.proc(0), m, participants, adv_bufs[0]));
    }
    eng.spawn(victimSender(rt.proc(0), m, participants, vic_bufs[0]));
    eng.spawn(receiverBody(rt.proc(1), m, participants, vic_bufs[1],
                           adv_bufs[1], vic_lat, adv_lat));
    eng.run();
  });
  DKF_CHECK_MSG(eng.unfinishedTasks() == 0,
                "multitenant trace deadlocked with "
                    << eng.unfinishedTasks() << " suspended task(s)");

  ModeResult r;
  r.name = m.name;
  r.wall_s = wall_ns / 1e9;
  r.vtime = eng.now();
  r.events = eng.processedEvents();
  r.peak_pending = eng.peakPending();
  if (plan) r.degraded_transfers = plan->counters().degraded_transfers;
  r.messages = vic_lat.size() + adv_lat.size();
  r.total_allocs = static_cast<std::size_t>(allocCount() - allocs0);
  const net::PayloadPool& pool = cluster.fabric().payloadPool();
  r.pool = pool.counters();
  r.pool_hit_rate = pool.hitRate();
  r.pool_peak_live_buffers = pool.peakLiveBuffers();
  r.pool_peak_live_bytes = pool.peakLiveBytes();
  r.pool_live_end = pool.liveBuffers();

  r.tenants[kVictim].messages = vic_lat.size();
  r.tenants[kAdversary].messages = adv_lat.size();
  if (!vic_lat.empty()) {
    double sum = 0.0;
    for (double v : vic_lat) sum += v;
    r.tenants[kVictim].mean_us = sum / static_cast<double>(vic_lat.size());
    r.tenants[kVictim].latency_us =
        bench::summarizePercentiles(std::move(vic_lat));
  }
  if (!adv_lat.empty()) {
    double sum = 0.0;
    for (double v : adv_lat) sum += v;
    r.tenants[kAdversary].mean_us =
        sum / static_cast<double>(adv_lat.size());
    r.tenants[kAdversary].latency_us =
        bench::summarizePercentiles(std::move(adv_lat));
  }

  const auto deliveries = cluster.fabric().tenantDeliveries();
  for (int side = 0; side < 2; ++side) {
    mpi::Proc& p = rt.proc(side);
    const auto& stats = p.tenantStats();
    for (std::size_t t = 0; t < stats.size() && t < 2; ++t) {
      r.tenants[t].admitted += stats[t].admitted;
      r.tenants[t].peak_inflight =
          std::max(r.tenants[t].peak_inflight, stats[t].peak_inflight);
      r.tenants[t].throttle_waits += stats[t].throttle_waits;
      r.tenants[t].throttled_us += toUs(stats[t].throttled_ns);
    }
    const auto& pc = p.planCache().tenantCounters();
    for (std::size_t t = 0; t < pc.size() && t < 2; ++t) {
      r.tenants[t].plan_cache += pc[t];
    }
    if (auto* fe = dynamic_cast<schemes::FusionEngine*>(&p.ddtEngine())) {
      const auto& fused = fe->scheduler().counters().tenant_fused;
      for (std::size_t t = 0; t < fused.size() && t < 2; ++t) {
        r.tenants[t].fused_requests += fused[t];
      }
    }
  }
  for (std::size_t t = 0; t < deliveries.size() && t < 2; ++t) {
    r.tenants[t].deliveries = deliveries[t];
  }
  return r;
}

std::string fmt(double v, int prec = 2) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

bench::Json tenantJson(const TenantReport& t) {
  return bench::Json::object(
      {{"messages", t.messages},
       {"latency_us", bench::Json::object({{"mean", t.mean_us},
                                           {"p50", t.latency_us.p50},
                                           {"p99", t.latency_us.p99},
                                           {"p999", t.latency_us.p999}})},
       {"admitted", t.admitted},
       {"peak_inflight", t.peak_inflight},
       {"throttle_waits", t.throttle_waits},
       {"throttled_us", t.throttled_us},
       {"drr_deliveries", t.deliveries},
       {"fused_requests", t.fused_requests},
       {"plan_cache", bench::Json::object({{"hits", t.plan_cache.hits},
                                           {"misses", t.plan_cache.misses},
                                           {"fallbacks",
                                            t.plan_cache.fallbacks}})}});
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_multitenant.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  const int solo_rounds = smoke ? 10 : 200;
  const int adv_rounds = smoke ? 8 : 120;
  const int fault_rounds = smoke ? 4 : 40;
  const std::vector<ModeCfg> modes = {
      {"fifo_solo", false, false, false, solo_rounds},
      {"fifo_adversary", true, false, false, adv_rounds},
      {"drr_solo", false, true, false, solo_rounds},
      {"drr_adversary", true, true, false, adv_rounds},
      {"drr_faulted", true, true, true, fault_rounds},
  };

  bench::banner(std::cout,
                "Multi-tenant serving plane — victim tail latency under an "
                "adversarial neighbor (2 lassen nodes, shared link)",
                "victim: 256-msg windows of 1 KiB eager (1/8 strided); "
                "adversary: 3072-msg 4 KiB floods; DRR weights 4:1, "
                "admission window 256");

  std::vector<ModeResult> results;
  std::size_t total_messages = 0;
  for (const ModeCfg& m : modes) {
    results.push_back(runMode(m));
    total_messages += results.back().messages;
    std::cout << "  [" << m.name << "] done: "
              << results.back().messages << " msgs, "
              << fmt(results.back().wall_s) << " s\n";
  }

  bench::Table table({"Mode", "Msgs", "Victim p50", "p99", "p999 us",
                      "Adv p99", "PeakPend", "Throttled", "Wall s"});
  for (const ModeResult& r : results) {
    table.addRow({r.name, std::to_string(r.messages),
                  fmt(r.tenants[kVictim].latency_us.p50, 1),
                  fmt(r.tenants[kVictim].latency_us.p99, 1),
                  fmt(r.tenants[kVictim].latency_us.p999, 1),
                  fmt(r.tenants[kAdversary].latency_us.p99, 1),
                  std::to_string(r.peak_pending),
                  std::to_string(r.tenants[kAdversary].throttle_waits),
                  fmt(r.wall_s)});
  }
  table.print(std::cout);

  const ModeResult& fifo_solo = results[0];
  const ModeResult& fifo_adv = results[1];
  const ModeResult& drr_solo = results[2];
  const ModeResult& drr_adv = results[3];

  const double fifo_ratio = fifo_adv.tenants[kVictim].latency_us.p99 /
                            fifo_solo.tenants[kVictim].latency_us.p99;
  const double drr_ratio = drr_adv.tenants[kVictim].latency_us.p99 /
                           drr_solo.tenants[kVictim].latency_us.p99;
  const double solo_vtime_ratio = static_cast<double>(drr_solo.vtime) /
                                  static_cast<double>(fifo_solo.vtime);

  std::cout << "\nIsolation (victim p99 inflation, adversary vs solo):"
            << "\n  FIFO wire: " << fmt(fifo_ratio, 1)
            << "x   (unbounded — the victim queues behind the whole flood)"
            << "\n  DRR+contention+admission: " << fmt(drr_ratio, 2)
            << "x   (bounded by the 4:1 wire share)"
            << "\nSingle-tenant cost of the serving plane (drr_solo vs "
               "fifo_solo virtual time): "
            << fmt(solo_vtime_ratio, 4) << "x\n";

  bench::Record record(
      "multitenant_trace",
      "weighted wire sharing + DRR delivery arbitration + per-tenant "
      "admission bound victim p99 inflation under an adversarial neighbor "
      "to <= 2x, where the FIFO wire inflates it without bound; the "
      "single-tenant serving plane costs nothing measurable");
  record.config() = bench::Json::object(
      {{"smoke", smoke},
       {"victim_window", kVictimWindow},
       {"adversary_window", kAdvWindow},
       {"tenant_weights", std::vector<int>{4, 1}},
       {"tenant_inflight_limit", kInflightLimit},
       {"alloc_counting", allocCountingEnabled()}});
  bench::Json& det = record.deterministic();
  det["total_messages"] = total_messages;
  for (const ModeResult& r : results) {
    det["modes"].push(bench::Json::object(
        {{"mode", r.name},
         {"messages", r.messages},
         {"virtual_end_ns", r.vtime},
         {"events", r.events},
         {"peak_pending", r.peak_pending},
         {"degraded_transfers", r.degraded_transfers},
         {"allocs_per_msg", r.allocsPerMsg()},
         {"total_allocs", r.total_allocs},
         {"payload_pool",
          bench::Json::object(
              {{"captures", r.pool.captures},
               {"inline_captures", r.pool.inline_captures},
               {"slab_allocs", r.pool.slab_allocs},
               {"slab_reuses", r.pool.slab_reuses},
               {"oversize_allocs", r.pool.oversize_allocs},
               {"trims", r.pool.trims},
               {"hit_rate", r.pool_hit_rate},
               {"peak_live_buffers", r.pool_peak_live_buffers},
               {"peak_live_bytes", r.pool_peak_live_bytes},
               {"live_at_end", r.pool_live_end}})},
         {"tenants",
          bench::Json::object({{"victim", tenantJson(r.tenants[kVictim])},
                               {"adversary",
                                tenantJson(r.tenants[kAdversary])}})}}));
  }
  det["isolation"] = bench::Json::object(
      {{"fifo_victim_p99_inflation", fifo_ratio},
       {"drr_victim_p99_inflation", drr_ratio},
       {"single_tenant_vtime_ratio", solo_vtime_ratio}});
  if (!record.write(json_path)) return 1;
  std::cout << "record written to " << json_path << "\n";

  bool ok = true;
  if (drr_ratio > 2.0) {
    std::cerr << "error: DRR victim p99 inflation " << drr_ratio
              << "x exceeds the 2x isolation bound\n";
    ok = false;
  }
  if (fifo_ratio < 5.0) {
    std::cerr << "error: FIFO victim p99 inflation " << fifo_ratio
              << "x below 5x — the adversary is not adversarial enough\n";
    ok = false;
  }
  if (solo_vtime_ratio < 0.98 || solo_vtime_ratio > 1.02) {
    std::cerr << "error: single-tenant serving plane changed virtual time "
              << "by " << solo_vtime_ratio << "x\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
