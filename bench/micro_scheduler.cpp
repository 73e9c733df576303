// Micro-benchmark for the §V-B claim: "The scheduling overhead of the
// proposed scheduler has insignificant overhead, as low as 2 us per
// message." Enqueues batches of pack requests through the fusion scheduler
// and reports scheduling + query cost per message, plus launch amortization
// (launch overhead per message as batches grow).
//
// Second part: a request-list capacity sweep (64 ... 8192) measuring HOST
// wall-clock per enqueue+query. The request list is the simulator's own hot
// path — the seed implementation scanned O(capacity) on enqueue, claim and
// query, so host time per message grew linearly with list capacity and
// dominated bulk-transfer runs (Figs. 9-10 regime). With the O(1)
// structures it must stay roughly flat. The sweep writes its record
// (wall-clock + virtual-time per message) to BENCH_scheduler.json (or the
// path given as argv[1]).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/record.hpp"
#include "bench_util/table.hpp"
#include "common/check.hpp"
#include "core/scheduler.hpp"
#include "hw/machines.hpp"

namespace {

struct SweepRow {
  std::size_t capacity;
  std::size_t messages;
  double wall_ns_per_msg;       // host time per enqueue+flush+query cycle
  double virt_sched_ns_per_msg; // modeled scheduling+query time per message
  std::size_t fused_kernels;
};

/// One capacity point: fill the list, flush, retire everything — repeated
/// until ~`total_messages` messages have passed through. Returns host and
/// virtual per-message costs.
SweepRow runCapacityPoint(std::size_t capacity, std::size_t total_messages) {
  using namespace dkf;
  sim::Engine eng;
  auto machine = hw::lassen();
  sim::CpuTimeline cpu(eng);
  gpu::Gpu gpu(eng, machine.node, 0);
  core::FusionPolicy policy;
  policy.threshold_bytes = 1u << 30;  // flush-driven batching
  policy.max_requests_per_kernel = 256;
  policy.list_capacity = capacity;
  core::FusionScheduler sched(eng, cpu, gpu, policy);

  auto layout = std::make_shared<const ddt::Layout>(ddt::flatten(
      ddt::Datatype::contiguous(4096, ddt::Datatype::byte()), 1));
  auto src = gpu.memory().allocate(4096);
  auto dst = gpu.memory().allocate(4096);

  const std::size_t rounds = std::max<std::size_t>(1, total_messages / capacity);
  eng.spawn([](sim::Engine& e, core::FusionScheduler& s, std::size_t cap,
               std::size_t rnds, ddt::LayoutPtr l, gpu::MemSpan a,
               gpu::MemSpan d) -> sim::Task<void> {
    std::vector<std::int64_t> uids;
    uids.reserve(cap);
    for (std::size_t round = 0; round < rnds; ++round) {
      uids.clear();
      // Fill the list to capacity: every enqueue lands in an ever-fuller
      // ring, the worst case for the seed's tail/claim/query scans.
      for (std::size_t i = 0; i < cap; ++i) {
        core::FusionRequest req;
        req.op = core::FusionOp::Packing;
        req.layout = l;
        req.origin = a;
        req.target = d;
        const auto uid = co_await s.enqueue(std::move(req));
        DKF_CHECK(uid >= 0);
        uids.push_back(uid);
      }
      co_await s.flush();
      for (const auto uid : uids) {
        while (!s.query(uid)) {
          co_await e.delay(us(1));  // progress-engine poll period
        }
      }
    }
  }(eng, sched, capacity, rounds, layout, src, dst));

  const double wall_ns = bench::wallNs([&] { eng.run(); });

  const double msgs = static_cast<double>(rounds * capacity);
  return SweepRow{
      capacity, rounds * capacity, wall_ns / msgs,
      static_cast<double>(sched.breakdown().scheduling +
                          sched.breakdown().synchronize) /
          msgs,
      sched.fusedKernelsLaunched()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dkf;
  bench::banner(std::cout,
                "Micro — Fusion scheduler overhead per message (§V-B claim: "
                "<= 2 us/message)");

  bench::Table table({"Batch size", "Scheduling/msg", "Sync(query)/msg",
                      "Launch/msg", "Fused kernels"});

  for (const std::size_t batch : {1u, 4u, 16u, 64u, 128u}) {
    sim::Engine eng;
    auto machine = hw::lassen();
    sim::CpuTimeline cpu(eng);
    gpu::Gpu gpu(eng, machine.node, 0);
    core::FusionPolicy policy;
    policy.threshold_bytes = 1u << 30;  // flush-driven batching
    policy.max_requests_per_kernel = 256;
    policy.list_capacity = 512;
    core::FusionScheduler sched(eng, cpu, gpu, policy);

    auto layout = std::make_shared<const ddt::Layout>(ddt::flatten(
        ddt::Datatype::contiguous(4096, ddt::Datatype::byte()), 1));
    auto src = gpu.memory().allocate(4096);
    auto dst = gpu.memory().allocate(4096);

    constexpr std::size_t kRounds = 16;
    eng.spawn([](sim::Engine& e, core::FusionScheduler& s, std::size_t b,
                 ddt::LayoutPtr l, gpu::MemSpan a,
                 gpu::MemSpan d) -> sim::Task<void> {
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::vector<std::int64_t> uids;
        for (std::size_t i = 0; i < b; ++i) {
          core::FusionRequest req;
          req.op = core::FusionOp::Packing;
          req.layout = l;
          req.origin = a;
          req.target = d;
          const auto uid = co_await s.enqueue(std::move(req));
          DKF_CHECK(uid >= 0);
          uids.push_back(uid);
        }
        co_await s.flush();
        // Retire every request, as the progress engine would.
        for (const auto uid : uids) {
          while (!s.query(uid)) {
            co_await e.delay(us(1));  // progress-engine poll period
          }
        }
      }
    }(eng, sched, batch, layout, src, dst));
    eng.run();

    const double msgs = static_cast<double>(batch * kRounds);
    table.addRow({std::to_string(batch),
                  bench::cellUs(toUs(sched.breakdown().scheduling) / msgs),
                  bench::cellUs(toUs(sched.breakdown().synchronize) / msgs),
                  bench::cellUs(toUs(sched.breakdown().launching) / msgs),
                  std::to_string(sched.fusedKernelsLaunched())});
  }
  table.print(std::cout);
  std::cout << "\nShape: scheduling cost flat (~1 us enqueue + query), "
               "launch overhead per message shrinks ~1/batch as fusion "
               "amortizes the single 9.5 us launch.\n";

  // ---- Request-list capacity sweep (host wall-clock scaling) ----
  bench::banner(std::cout,
                "Micro — Request-list capacity sweep (host wall-clock per "
                "enqueue+query must stay ~flat in capacity)");

  constexpr std::size_t kTotalMessages = 32768;
  constexpr std::size_t kReps = 5;
  bench::Record record(
      "micro_scheduler",
      "wall-clock per enqueue+flush+query stays ~flat in request-list "
      "capacity (seed was linear: O(capacity) scans on enqueue, claim and "
      "query)");
  record.config() = bench::Json::object(
      {{"messages_per_point", kTotalMessages}, {"reps", kReps}});
  bench::Table sweep_table({"Capacity", "Messages", "Wall ns/msg",
                            "Virtual sched ns/msg", "Fused kernels"});
  for (const std::size_t capacity :
       {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
    // Warm-up pass absorbs first-touch allocation noise; measured passes
    // count. The virtual columns are the same on every pass.
    (void)runCapacityPoint(capacity, capacity);
    SweepRow r{};
    SampleSet wall_ns;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      r = runCapacityPoint(capacity, kTotalMessages);
      wall_ns.add(r.wall_ns_per_msg);
    }
    const bench::Spread wall = bench::spreadOf(wall_ns);
    char wall_cell[32], virt[32];
    std::snprintf(wall_cell, sizeof wall_cell, "%.1f", wall.median);
    std::snprintf(virt, sizeof virt, "%.1f", r.virt_sched_ns_per_msg);
    sweep_table.addRow({std::to_string(r.capacity), std::to_string(r.messages),
                        wall_cell, virt, std::to_string(r.fused_kernels)});
    record.deterministic()["capacity_sweep"].push(bench::Json::object(
        {{"capacity", r.capacity},
         {"messages", r.messages},
         {"virtual_scheduling_ns_per_msg", r.virt_sched_ns_per_msg},
         {"fused_kernels", r.fused_kernels}}));
    record.wall()["capacity_sweep"][std::to_string(r.capacity)] =
        bench::Json::object({{"wall_ns_per_msg", wall}});
  }
  sweep_table.print(std::cout);

  const std::string json_path = argc > 1 ? argv[1] : "BENCH_scheduler.json";
  if (!record.write(json_path)) return 1;
  std::cout << "\ncapacity-sweep record written to " << json_path << "\n";
  return 0;
}
