// Node-count scaling — the paper's motivating "running at scale" scenario
// (§VII: bulk non-contiguous transfer "dominates the overall communication
// time" at scale).
//
// Part 1 — the original 3-D halo sweep: rank grids from 8 to 64 ranks (one
// GPU per node, periodic torus), per-iteration halo latency for GPU-Sync
// vs the fusion engine. The fusion advantage must persist: the per-rank
// message count is constant (6 faces), so the win comes from batching each
// rank's 12 operations, independent of scale.
//
// Part 2 — collective scaling to hundreds/thousands of simulated ranks:
// alltoallv, allgatherv and derived-datatype allreduce over every
// algorithm (flat / ring / tree radix 2 / tree radix 8) at 64, 256 and
// 1024 ranks (4 GPUs per node). Every cell runs one warm-up invocation,
// resets the per-rank PlanCache counters, then measures one invocation:
// after warm-up every pack/unpack plan lookup must be a cache hit (the
// "compile once per hop" contract), so the summed post-warm-up hit rate
// is reported and expected to be ~1.
//
// Caps (logged, never silent): the flat algorithm posts n-1 concurrent
// requests per rank and the ring alltoallv moves O(n^2) messages, so both
// are swept only to 256 ranks; tree covers 1024.
//
// Writes its record to BENCH_collectives.json (or argv[1]); every value is
// in virtual time or a count, so the record holds no wall time. `--smoke`
// restricts the collective sweep to {64, 256} ranks for CI.
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/record.hpp"
#include "bench_util/table.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/collectives.hpp"
#include "workloads/halo_exchanger.hpp"

namespace {

using namespace dkf;

constexpr std::size_t kN = 16;
constexpr std::size_t kGhost = 1;
constexpr std::size_t kTotal = kN + 2 * kGhost;
constexpr int kIters = 8;

TimeNs runGrid(schemes::Scheme scheme, std::array<int, 3> grid) {
  const int ranks = grid[0] * grid[1] * grid[2];
  sim::Engine engine;
  auto machine = hw::lassen();
  machine.node.gpus_per_node = 1;  // one rank per node: all traffic inter-node
  machine.node.gpu.arena_bytes = kTotal * kTotal * kTotal * 8 + (8u << 20);
  hw::Cluster cluster(engine, machine, static_cast<std::size_t>(ranks));
  mpi::RuntimeConfig config;
  config.scheme = scheme;
  mpi::Runtime rt(cluster, config);

  std::vector<std::unique_ptr<workloads::HaloExchanger>> exchangers;
  TimeNs per_iter = 0;
  for (int r = 0; r < ranks; ++r) {
    auto block = rt.proc(r).allocDevice(kTotal * kTotal * kTotal * 8);
    exchangers.push_back(std::make_unique<workloads::HaloExchanger>(
        rt.proc(r), block, workloads::HaloExchanger::Config{kN, kGhost, grid}));
    engine.spawn([](mpi::Proc& p, workloads::HaloExchanger& ex,
                    TimeNs& out) -> sim::Task<void> {
      TimeNs total = 0;
      for (int i = 0; i < kIters; ++i) {
        co_await p.barrier();
        const TimeNs t0 = p.engine().now();
        co_await ex.exchange();
        total += p.engine().now() - t0;
      }
      if (p.rank() == 0) out = total / kIters;
    }(rt.proc(r), *exchangers.back(), per_iter));
  }
  engine.run();
  DKF_CHECK_MSG(engine.unfinishedTasks() == 0, "scaling run deadlocked");
  return per_iter;
}

// ---- Collective scaling ---------------------------------------------------

enum class Coll { Alltoallv, Allgatherv, Allreduce };

const char* collName(Coll c) {
  switch (c) {
    case Coll::Alltoallv:
      return "alltoallv";
    case Coll::Allgatherv:
      return "allgatherv";
    default:
      return "allreduce";
  }
}

struct CollCell {
  Coll coll{Coll::Alltoallv};
  mpi::CollTuning tuning{};
  int ranks{0};
  // outputs
  TimeNs virtual_time{0};
  core::PlanCacheCounters counters;
  std::size_t fabric_bytes{0};
  std::size_t fabric_messages{0};
};

/// One warm-up invocation, counter reset, one measured invocation. The
/// payload is a small gappy float64 layout (the same signature for every
/// destination), so the measured pass must resolve every pack/unpack plan
/// from the cache.
void runCollCell(CollCell& cell) {
  const int n = cell.ranks;
  const auto type = ddt::Datatype::vector(2, 1, 2, ddt::Datatype::float64());
  const auto ext = static_cast<std::size_t>(ddt::flatten(type, 1).endOffset());

  sim::Engine eng;
  hw::MachineSpec machine = hw::lassen();
  machine.node.gpus_per_node = 4;
  machine.node.gpu.arena_bytes =
      2 * static_cast<std::size_t>(n) * ext * 4 + (128u << 10);
  hw::Cluster cluster(eng, machine, static_cast<std::size_t>(n) / 4);
  mpi::RuntimeConfig cfg;
  cfg.scheme = schemes::Scheme::Proposed;
  mpi::Runtime rt(cluster, cfg);
  DKF_CHECK(rt.worldSize() == n);

  std::vector<mpi::VBlock> blocks;
  for (int r = 0; r < n; ++r) {
    blocks.push_back({type, 1, static_cast<std::size_t>(r) * ext});
  }
  struct Bufs {
    gpu::MemSpan send, recv;
  };
  std::vector<Bufs> bufs(static_cast<std::size_t>(n));
  const std::size_t region = static_cast<std::size_t>(n) * ext;
  constexpr std::size_t kRedCount = 4;
  for (int r = 0; r < n; ++r) {
    auto& p = rt.proc(r);
    auto& b = bufs[static_cast<std::size_t>(r)];
    switch (cell.coll) {
      case Coll::Alltoallv:
      case Coll::Allgatherv:
        b.send = p.allocDevice(region);
        b.recv = p.allocDevice(region);
        std::memset(b.send.bytes.data(), 0x3C, region);
        break;
      case Coll::Allreduce: {
        b.send = p.allocDevice(
            static_cast<std::size_t>(ddt::flatten(type, kRedCount)
                                         .endOffset()));
        auto* vals = reinterpret_cast<double*>(b.send.bytes.data());
        for (std::size_t i = 0; i < b.send.size() / 8; ++i) {
          vals[i] = static_cast<double>(r % 17) + 0.5;
        }
        break;
      }
    }
  }

  auto pass = [&] {
    rt.runAll([&](mpi::Proc& p) -> sim::Task<void> {
      auto& b = bufs[static_cast<std::size_t>(p.rank())];
      switch (cell.coll) {
        case Coll::Alltoallv:
          co_await mpi::alltoallv(p, b.send, b.recv, blocks, blocks,
                                  cell.tuning);
          break;
        case Coll::Allgatherv:
          co_await mpi::allgatherv(p, b.send, b.recv, blocks, cell.tuning);
          break;
        case Coll::Allreduce:
          co_await mpi::allreduceDdt(p, b.send, type, kRedCount,
                                     mpi::ReduceType::Float64,
                                     mpi::ReduceOp::Sum, cell.tuning);
          break;
      }
    });
    DKF_CHECK_MSG(eng.unfinishedTasks() == 0, "collective cell deadlocked");
  };

  pass();  // warm-up: populates every PlanCache entry
  for (int r = 0; r < n; ++r) {
    rt.proc(r).planCache().resetCounters();
  }
  const std::size_t bytes0 = cluster.fabric().totalBytesCarried();
  const std::size_t msgs0 = cluster.fabric().totalMessages();
  const TimeNs t0 = eng.now();
  pass();  // measured
  cell.virtual_time = eng.now() - t0;
  for (int r = 0; r < n; ++r) {
    cell.counters += rt.proc(r).planCache().counters();
  }
  cell.fabric_bytes = cluster.fabric().totalBytesCarried() - bytes0;
  cell.fabric_messages = cluster.fabric().totalMessages() - msgs0;
}

struct AlgoSpec {
  mpi::CollTuning tuning;
  std::string label;
  int max_ranks;  ///< explicit cap; cells above it are logged as skipped
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dkf;
  std::string json_path = "BENCH_collectives.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  bench::banner(std::cout,
                "Scaling — 3-D halo exchange latency vs node count "
                "(16^3 doubles per rank, 1 GPU/node, Lassen fabric)",
                "per-iteration rank-0 latency; fusion advantage should be "
                "scale-independent");

  struct HaloRow {
    int ranks;
    TimeNs sync;
    TimeNs fused;
  };
  std::vector<HaloRow> halo_rows;
  bench::Table table({"Grid", "Ranks", "GPU-Sync", "Proposed", "Speedup"});
  const std::array<std::array<int, 3>, 4> grids = {
      std::array<int, 3>{2, 2, 2}, {4, 2, 2}, {4, 4, 2}, {4, 4, 4}};
  for (const auto& grid : grids) {
    const TimeNs sync = runGrid(schemes::Scheme::GpuSync, grid);
    const TimeNs fused = runGrid(schemes::Scheme::Proposed, grid);
    halo_rows.push_back({grid[0] * grid[1] * grid[2], sync, fused});
    table.addRow({std::to_string(grid[0]) + "x" + std::to_string(grid[1]) +
                      "x" + std::to_string(grid[2]),
                  std::to_string(grid[0] * grid[1] * grid[2]),
                  bench::cellUs(toUs(sync)), bench::cellUs(toUs(fused)),
                  bench::cell(static_cast<double>(sync) /
                                  static_cast<double>(fused),
                              2) +
                      "x"});
  }
  table.print(std::cout);
  std::cout << "\nShape: per-rank latency is scale-flat (each neighbor "
               "pair has a dedicated channel; no shared-switch contention "
               "is modeled) and the fusion speedup is constant across node "
               "counts — each rank amortizes its own 12 launches "
               "regardless of scale, which is why the paper's per-pair "
               "evaluation generalizes.\n";

  bench::banner(
      std::cout,
      smoke ? "Collective scaling — flat/ring/tree at 64 and 256 ranks "
              "(smoke)"
            : "Collective scaling — flat/ring/tree to 1024 ranks",
      "one warmed invocation per cell; post-warm-up plan-cache hit rate "
      "must be ~1 (compile once per hop)");

  const std::vector<int> rank_counts =
      smoke ? std::vector<int>{64, 256} : std::vector<int>{64, 256, 1024};
  const std::vector<AlgoSpec> algos = {
      {{mpi::CollAlgo::Flat, 2}, "flat", 256},
      {{mpi::CollAlgo::Ring, 2}, "ring", 1024},
      {{mpi::CollAlgo::Tree, 2}, "tree2", 1024},
      {{mpi::CollAlgo::Tree, 8}, "tree8", 1024},
  };
  std::vector<CollCell> cells;
  for (const Coll coll : {Coll::Alltoallv, Coll::Allgatherv, Coll::Allreduce}) {
    bench::Table ct({"Algorithm", "Ranks", "Virtual time", "Fabric msgs",
                     "Plan hits", "Plan misses", "Hit rate"});
    for (const AlgoSpec& algo : algos) {
      for (const int ranks : rank_counts) {
        if (ranks > algo.max_ranks ||
            (coll == Coll::Alltoallv && algo.tuning.algo == mpi::CollAlgo::Ring &&
             ranks > 256)) {
          std::cout << "  capped: " << collName(coll) << "/" << algo.label
                    << " skipped at " << ranks << " ranks ("
                    << (algo.tuning.algo == mpi::CollAlgo::Flat
                            ? "n-1 concurrent requests per rank"
                            : "O(n^2) pairwise messages")
                    << ")\n";
          continue;
        }
        CollCell cell;
        cell.coll = coll;
        cell.tuning = algo.tuning;
        cell.ranks = ranks;
        runCollCell(cell);
        ct.addRow({algo.label, std::to_string(ranks),
                   bench::cellUs(toUs(cell.virtual_time)),
                   std::to_string(cell.fabric_messages),
                   std::to_string(cell.counters.hits),
                   std::to_string(cell.counters.misses),
                   bench::cell(cell.counters.hitRate(), 3)});
        cells.push_back(cell);
      }
    }
    std::cout << "\n" << collName(coll) << ":\n";
    ct.print(std::cout);
  }
  std::cout << "\nShape: tree virtual time grows ~log(n) per hop count "
               "while flat grows with the serialized request fan-out; the "
               "post-warm-up hit rate column must read 1.000 everywhere — "
               "every destination of a collective shares one layout "
               "signature, so the pack/unpack plan compiles once and every "
               "further hop is a cache hit.\n";

  bench::Record record(
      "scaling_nodes",
      "collectives scale to 1024 simulated ranks with a post-warm-up "
      "plan-cache hit rate of ~1 on every algorithm");
  record.config() = bench::Json::object(
      {{"smoke", smoke}, {"rank_counts", rank_counts}});
  bench::Json& det = record.deterministic();
  for (const HaloRow& h : halo_rows) {
    det["halo"].push(bench::Json::object({{"ranks", h.ranks},
                                          {"gpu_sync_ns", h.sync},
                                          {"proposed_ns", h.fused}}));
  }
  for (const CollCell& c : cells) {
    det["collectives"].push(bench::Json::object(
        {{"coll", collName(c.coll)},
         {"algo", mpi::collAlgoName(c.tuning.algo)},
         {"radix", c.tuning.radix},
         {"ranks", c.ranks},
         {"virtual_ns", c.virtual_time},
         {"fabric_bytes", c.fabric_bytes},
         {"fabric_messages", c.fabric_messages},
         {"plan_hits", c.counters.hits},
         {"plan_misses", c.counters.misses},
         {"hit_rate", c.counters.hitRate()}}));
  }
  if (!record.write(json_path)) return 1;
  std::cout << "\ncollective scaling record written to " << json_path << "\n";
  return 0;
}
