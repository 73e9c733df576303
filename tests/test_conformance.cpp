// Cross-scheme conformance: every registered DdtEngine must produce
// byte-identical unpacked receive buffers for all four ddtbench workloads,
// across seeds and buffer counts — in a fault-free world AND under a lossy
// FaultPlan with the retransmission layer enabled. The expected image is
// built on the host from the flattened layout: segment bytes equal the
// sender's buffer, every other byte keeps the 0xAA sentinel (no scheme may
// scribble outside the datatype's footprint).
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <optional>
#include <vector>

#include "collective_timing.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "schemes/factory.hpp"
#include "workloads/workloads.hpp"

namespace dkf {
namespace {

constexpr std::byte kSentinel{0xAA};

struct RunSpec {
  schemes::Scheme scheme;
  workloads::Workload wl;
  int n_bufs{1};
  std::uint64_t seed{1};
  bool lossy{false};
  mpi::Protocol rendezvous{mpi::Protocol::RGet};
  bool intra_node{false};
};

/// The lossy environment every scheme must survive: ~12% loss on both data
/// and control packets plus occasional NIC stalls, with retransmission on
/// and a watchdog that turns any livelock into a loud test failure.
fault::FaultSpec lossySpec(std::uint64_t seed) {
  fault::FaultSpec fs;
  fs.seed = seed * 0x9E3779B9ull + 11;
  fs.data_loss = 0.12;
  fs.control_loss = 0.12;
  fs.nic_stall_prob = 0.05;
  fs.nic_stall = us(3);
  return fs;
}

void runConformance(const RunSpec& rs) {
  SCOPED_TRACE(std::string(schemes::schemeName(rs.scheme)) + " / " +
               rs.wl.name + " / bufs=" + std::to_string(rs.n_bufs) +
               " / seed=" + std::to_string(rs.seed) +
               (rs.lossy ? " / lossy" : " / fault-free") +
               (rs.rendezvous == mpi::Protocol::RPut ? " / rput" : "") +
               (rs.intra_node ? " / intra" : ""));

  sim::Engine eng;
  hw::MachineSpec machine = hw::lassen();
  const std::size_t region = std::max<std::size_t>(rs.wl.regionBytes(), 64);
  const std::size_t needed =
      region * static_cast<std::size_t>(rs.n_bufs) * 3 + (8u << 20);
  machine.node.gpu.arena_bytes =
      std::max(machine.node.gpu.arena_bytes, needed);
  machine.node.gpus_per_node = rs.intra_node ? 2 : 1;
  hw::Cluster cluster(eng, machine, rs.intra_node ? 1 : 2);

  std::optional<fault::FaultPlan> plan;
  mpi::RuntimeConfig cfg;
  cfg.scheme = rs.scheme;
  cfg.rendezvous = rs.rendezvous;
  if (rs.lossy) {
    plan.emplace(eng, lossySpec(rs.seed));
    cluster.setFaultPlan(&*plan);
    cfg.reliability.enabled = true;
    cfg.reliability.base_timeout = us(40);
    cfg.reliability.max_timeout = us(2000);
    cfg.reliability.max_retries = 60;
    eng.setWatchdog(sec(1));  // a hang must trip loudly, not time out
  }
  mpi::Runtime rt(cluster, cfg);
  auto& p0 = rt.proc(0);
  auto& p1 = rt.proc(1);

  Rng fill(rs.seed);
  std::vector<gpu::MemSpan> send0, recv0, send1, recv1;
  for (int i = 0; i < rs.n_bufs; ++i) {
    auto s0 = p0.allocDevice(region);
    auto r0 = p0.allocDevice(region);
    auto s1 = p1.allocDevice(region);
    auto r1 = p1.allocDevice(region);
    for (auto& b : s0.bytes) b = static_cast<std::byte>(fill.below(256));
    for (auto& b : s1.bytes) b = static_cast<std::byte>(fill.below(256));
    std::memset(r0.bytes.data(), 0xAA, region);
    std::memset(r1.bytes.data(), 0xAA, region);
    send0.push_back(s0);
    recv0.push_back(r0);
    send1.push_back(s1);
    recv1.push_back(r1);
  }

  auto body = [](mpi::Proc& p, std::vector<gpu::MemSpan>& sends,
                 std::vector<gpu::MemSpan>& recvs,
                 const workloads::Workload& wl, int peer) -> sim::Task<void> {
    std::vector<mpi::RequestPtr> reqs;
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      reqs.push_back(co_await p.irecv(recvs[i], wl.type, wl.count, peer,
                                      static_cast<int>(i)));
    }
    for (std::size_t i = 0; i < sends.size(); ++i) {
      reqs.push_back(co_await p.isend(sends[i], wl.type, wl.count, peer,
                                      static_cast<int>(i)));
    }
    co_await p.waitall(std::move(reqs));
  };
  eng.spawn(body(p0, send0, recv0, rs.wl, 1));
  eng.spawn(body(p1, send1, recv1, rs.wl, 0));
  eng.run();
  ASSERT_EQ(eng.unfinishedTasks(), 0u) << "exchange deadlocked";

  const auto layout = ddt::flatten(rs.wl.type, rs.wl.count);
  std::vector<std::byte> expect(region);
  auto verify = [&](const gpu::MemSpan& recv, const gpu::MemSpan& send) {
    std::memset(expect.data(), 0xAA, region);
    for (const auto& seg : layout.materialize()) {
      std::memcpy(expect.data() + seg.offset, send.bytes.data() + seg.offset,
                  seg.len);
    }
    ASSERT_EQ(std::memcmp(recv.bytes.data(), expect.data(), region), 0);
  };
  for (int i = 0; i < rs.n_bufs; ++i) {
    verify(recv1[i], send0[i]);
    verify(recv0[i], send1[i]);
  }
  (void)kSentinel;
}

/// The four ddtbench workloads at sizes straddling the eager/rendezvous
/// boundary: oc/cm are eager (~1-1.5 KB packed), MILC/NAS rendezvous
/// (24/18 KB packed).
std::vector<workloads::Workload> conformanceWorkloads() {
  return {workloads::specfem3dOc(8), workloads::specfem3dCm(8),
          workloads::milcZdown(32), workloads::nasMgFace(48)};
}

class SchemeConformance : public ::testing::TestWithParam<schemes::Scheme> {};

TEST_P(SchemeConformance, ByteIdenticalFaultFree) {
  for (const auto& wl : conformanceWorkloads()) {
    for (const std::uint64_t seed : {0x11ull, 0x22ull}) {
      for (const int n_bufs : {1, 3}) {
        RunSpec rs;
        rs.scheme = GetParam();
        rs.wl = wl;
        rs.n_bufs = n_bufs;
        rs.seed = seed;
        runConformance(rs);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(SchemeConformance, ByteIdenticalUnderLossWithRetransmission) {
  for (const auto& wl : conformanceWorkloads()) {
    for (const std::uint64_t seed : {0x11ull, 0x22ull}) {
      for (const int n_bufs : {1, 3}) {
        RunSpec rs;
        rs.scheme = GetParam();
        rs.wl = wl;
        rs.n_bufs = n_bufs;
        rs.seed = seed;
        rs.lossy = true;
        runConformance(rs);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(SchemeConformance, ByteIdenticalUnderLossRPut) {
  // The RPut handshake has its own loss-recovery paths (lost CTS, dropped
  // RDMA write); exercise them with the rendezvous-sized workloads.
  for (const auto& wl :
       {workloads::milcZdown(32), workloads::nasMgFace(48)}) {
    for (const std::uint64_t seed : {0x33ull, 0x44ull}) {
      RunSpec rs;
      rs.scheme = GetParam();
      rs.wl = wl;
      rs.n_bufs = 2;
      rs.seed = seed;
      rs.lossy = true;
      rs.rendezvous = mpi::Protocol::RPut;
      runConformance(rs);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(SchemeConformance, ByteIdenticalIntraNodeUnderLoss) {
  // Intra-node: DirectIPC for the schemes that support it, the pack path
  // for the rest — both must survive lost RTS/FIN control packets.
  RunSpec rs;
  rs.scheme = GetParam();
  rs.wl = workloads::specfem3dCm(8);
  rs.n_bufs = 2;
  rs.seed = 0x55;
  rs.lossy = true;
  rs.intra_node = true;
  runConformance(rs);
}

INSTANTIATE_TEST_SUITE_P(
    All, SchemeConformance, ::testing::ValuesIn(schemes::kAllSchemes),
    [](const ::testing::TestParamInfo<schemes::Scheme>& param_info) {
      std::string name{schemes::schemeName(param_info.param)};
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Collective dimension: the ring and tree algorithms must reproduce the
// flat (seed) algorithm byte-for-byte on the same inputs — alltoallv and
// allgatherv with per-rank varying counts of a sparse derived datatype,
// plus a Float64 derived-datatype allreduce (the canonical rank-order fold
// makes the sum independent of which topology carried the contributions).
// Checked per scheme, fault-free and under the same 12% lossy FaultPlan the
// point-to-point conformance runs use.
// ---------------------------------------------------------------------------

/// The frozen virtual end time and fabric traffic of one collective world
/// (collective_timing.hpp), by scheme, tuning and loss.
struct WorldGolden {
  schemes::Scheme scheme;
  mpi::CollAlgo algo;
  int radix;
  bool lossy;
  CollTiming timing;
};

using schemes::Scheme;
constexpr mpi::CollAlgo kFlat = mpi::CollAlgo::Flat;
constexpr mpi::CollAlgo kRing = mpi::CollAlgo::Ring;
constexpr mpi::CollAlgo kTree = mpi::CollAlgo::Tree;

constexpr WorldGolden kWorldGoldens[] = {
    {Scheme::GpuSync, kFlat, 2, false, {379182, 168, 82432}},
    {Scheme::GpuSync, kRing, 2, false, {357154, 168, 82432}},
    {Scheme::GpuSync, kTree, 2, false, {345242, 76, 91072}},
    {Scheme::GpuSync, kTree, 3, false, {340518, 92, 81920}},
    {Scheme::GpuAsync, kFlat, 2, false, {364061, 168, 82432}},
    {Scheme::GpuAsync, kRing, 2, false, {369400, 168, 82432}},
    {Scheme::GpuAsync, kTree, 2, false, {359200, 76, 91072}},
    {Scheme::GpuAsync, kTree, 3, false, {357700, 92, 81920}},
    {Scheme::CpuGpuHybrid, kFlat, 2, false, {237481, 168, 82432}},
    {Scheme::CpuGpuHybrid, kRing, 2, false, {259944, 168, 82432}},
    {Scheme::CpuGpuHybrid, kTree, 2, false, {239285, 76, 91072}},
    {Scheme::CpuGpuHybrid, kTree, 3, false, {237607, 92, 81920}},
    {Scheme::NaiveCopy, kFlat, 2, false, {4513891, 168, 82432}},
    {Scheme::NaiveCopy, kRing, 2, false, {4993098, 168, 82432}},
    {Scheme::NaiveCopy, kTree, 2, false, {4415210, 76, 91072}},
    {Scheme::NaiveCopy, kTree, 3, false, {4413137, 92, 81920}},
    {Scheme::AdaptiveGdr, kFlat, 2, false, {272477, 168, 82432}},
    {Scheme::AdaptiveGdr, kRing, 2, false, {332809, 168, 82432}},
    {Scheme::AdaptiveGdr, kTree, 2, false, {272681, 76, 91072}},
    {Scheme::AdaptiveGdr, kTree, 3, false, {271343, 92, 81920}},
    {Scheme::Proposed, kFlat, 2, false, {215700, 192, 73984}},
    {Scheme::Proposed, kRing, 2, false, {364400, 192, 73984}},
    {Scheme::Proposed, kTree, 2, false, {346500, 76, 91072}},
    {Scheme::Proposed, kTree, 3, false, {341750, 92, 81920}},
    {Scheme::ProposedTuned, kFlat, 2, false, {215700, 192, 73984}},
    {Scheme::ProposedTuned, kRing, 2, false, {364400, 192, 73984}},
    {Scheme::ProposedTuned, kTree, 2, false, {346500, 76, 91072}},
    {Scheme::ProposedTuned, kTree, 3, false, {341750, 92, 81920}},
    {Scheme::ProposedHybrid, kFlat, 2, false, {197108, 192, 73984}},
    {Scheme::ProposedHybrid, kRing, 2, false, {313817, 192, 73984}},
    {Scheme::ProposedHybrid, kTree, 2, false, {278297, 76, 91072}},
    {Scheme::ProposedHybrid, kTree, 3, false, {274380, 92, 81920}},
    {Scheme::GpuSync, kFlat, 2, true, {770052, 400, 115840}},
    {Scheme::GpuSync, kRing, 2, true, {1144040, 400, 116608}},
    {Scheme::GpuSync, kTree, 2, true, {662494, 181, 126072}},
    {Scheme::GpuAsync, kFlat, 2, true, {964900, 400, 118144}},
    {Scheme::GpuAsync, kRing, 2, true, {1458950, 400, 118400}},
    {Scheme::GpuAsync, kTree, 2, true, {643800, 181, 127464}},
    {Scheme::CpuGpuHybrid, kFlat, 2, true, {529744, 400, 114816}},
    {Scheme::CpuGpuHybrid, kRing, 2, true, {1234120, 400, 118400}},
    {Scheme::CpuGpuHybrid, kTree, 2, true, {978370, 181, 122432}},
    {Scheme::NaiveCopy, kFlat, 2, true, {4774254, 400, 117120}},
    {Scheme::NaiveCopy, kRing, 2, true, {5599629, 400, 117632}},
    {Scheme::NaiveCopy, kTree, 2, true, {4655773, 181, 125872}},
    {Scheme::AdaptiveGdr, kFlat, 2, true, {719354, 400, 117888}},
    {Scheme::AdaptiveGdr, kRing, 2, true, {1254309, 400, 116608}},
    {Scheme::AdaptiveGdr, kTree, 2, true, {1010552, 181, 121096}},
    {Scheme::Proposed, kFlat, 2, true, {2998200, 409, 105792}},
    {Scheme::Proposed, kRing, 2, true, {1353400, 403, 105664}},
    {Scheme::Proposed, kTree, 2, true, {635700, 181, 127664}},
    {Scheme::ProposedTuned, kFlat, 2, true, {2998200, 409, 105792}},
    {Scheme::ProposedTuned, kRing, 2, true, {1353400, 403, 105664}},
    {Scheme::ProposedTuned, kTree, 2, true, {635700, 181, 127664}},
    {Scheme::ProposedHybrid, kFlat, 2, true, {431895, 402, 102016}},
    {Scheme::ProposedHybrid, kRing, 2, true, {979317, 405, 105280}},
    {Scheme::ProposedHybrid, kTree, 2, true, {646580, 181, 137392}},
};

const CollTiming* findWorldGolden(schemes::Scheme scheme,
                                  mpi::CollTuning tuning, bool lossy) {
  for (const WorldGolden& g : kWorldGoldens) {
    if (g.scheme == scheme && g.algo == tuning.algo &&
        g.radix == tuning.radix && g.lossy == lossy) {
      return &g.timing;
    }
  }
  return nullptr;
}

/// Runs one 8-rank world through alltoallv + allgatherv + allreduceDdt with
/// the given tuning and returns the concatenated receive/result images of
/// every rank. Inputs depend only on `seed`, never on the tuning, so two
/// snapshots with the same seed are comparable byte-for-byte.
std::vector<std::byte> runCollectiveWorld(schemes::Scheme scheme,
                                          mpi::CollTuning tuning, bool lossy,
                                          std::uint64_t seed) {
  constexpr int kRanks = 8;
  const workloads::Workload blk = workloads::specfem3dOc(2);
  const workloads::Workload red = workloads::nasMgFace(8);
  const std::size_t ext1 = blk.type->extent();
  // Per-pair v-counts: 1..3 elements of the sparse type, asymmetric in
  // (src, dst) so every rank sends and receives differently sized blocks.
  auto cnt = [](int s, int d) {
    return static_cast<std::size_t>(1 + (s * 3 + d) % 3);
  };
  auto gcnt = [](int r) { return static_cast<std::size_t>(1 + r % 3); };

  std::size_t ag_total = 0;
  for (int r = 0; r < kRanks; ++r) ag_total += gcnt(r) * ext1;
  const std::size_t red_region = red.regionBytes();

  sim::Engine eng;
  hw::MachineSpec machine = hw::lassen();
  machine.node.gpus_per_node = 4;
  const std::size_t per_rank =
      kRanks * 3 * ext1 * 2 + ag_total * 2 + red_region + (2u << 20);
  machine.node.gpu.arena_bytes = std::max<std::size_t>(per_rank, 4u << 20);
  hw::Cluster cluster(eng, machine, 2);

  std::optional<fault::FaultPlan> plan;
  mpi::RuntimeConfig cfg;
  cfg.scheme = scheme;
  if (lossy) {
    plan.emplace(eng, lossySpec(seed));
    cluster.setFaultPlan(&*plan);
    cfg.reliability.enabled = true;
    cfg.reliability.base_timeout = us(40);
    cfg.reliability.max_timeout = us(2000);
    cfg.reliability.max_retries = 60;
    eng.setWatchdog(sec(2));
  }
  mpi::Runtime rt(cluster, cfg);

  struct RankBufs {
    gpu::MemSpan a2a_send, a2a_recv, ag_send, ag_recv, red_buf;
    std::vector<mpi::VBlock> sblocks, rblocks, gblocks;
  };
  std::vector<RankBufs> bufs(kRanks);
  for (int me = 0; me < kRanks; ++me) {
    auto& p = rt.proc(me);
    auto& b = bufs[me];
    std::size_t soff = 0;
    std::size_t roff = 0;
    for (int peer = 0; peer < kRanks; ++peer) {
      b.sblocks.push_back({blk.type, cnt(me, peer), soff});
      soff += cnt(me, peer) * ext1;
      b.rblocks.push_back({blk.type, cnt(peer, me), roff});
      roff += cnt(peer, me) * ext1;
    }
    std::size_t goff = 0;
    for (int r = 0; r < kRanks; ++r) {
      b.gblocks.push_back({blk.type, gcnt(r), goff});
      goff += gcnt(r) * ext1;
    }
    b.a2a_send = p.allocDevice(soff);
    b.a2a_recv = p.allocDevice(roff);
    b.ag_send = p.allocDevice(ag_total);
    b.ag_recv = p.allocDevice(ag_total);
    b.red_buf = p.allocDevice(red_region);

    Rng fill(seed * 0x100000001b3ull + static_cast<std::uint64_t>(me));
    for (auto& byte : b.a2a_send.bytes) {
      byte = static_cast<std::byte>(fill.below(256));
    }
    for (auto& byte : b.ag_send.bytes) {
      byte = static_cast<std::byte>(fill.below(256));
    }
    std::memset(b.a2a_recv.bytes.data(), 0xAA, b.a2a_recv.size());
    std::memset(b.ag_recv.bytes.data(), 0xAA, b.ag_recv.size());
    // Finite, rank-distinct doubles for the reduction (raw random bytes
    // could form NaNs, whose payload propagation is not worth pinning).
    std::memset(b.red_buf.bytes.data(), 0, red_region);
    auto* vals = reinterpret_cast<double*>(b.red_buf.bytes.data());
    for (std::size_t i = 0; i < red_region / 8; ++i) {
      vals[i] =
          static_cast<double>(me * 4096) + static_cast<double>(i) * 0.25;
    }
  }

  auto body = [&](mpi::Proc& p) -> sim::Task<void> {
    auto& b = bufs[static_cast<std::size_t>(p.rank())];
    co_await mpi::alltoallv(p, b.a2a_send, b.a2a_recv, b.sblocks, b.rblocks,
                            tuning);
    co_await mpi::allgatherv(p, b.ag_send, b.ag_recv, b.gblocks, tuning);
    co_await mpi::allreduceDdt(p, b.red_buf, red.type, red.count,
                               mpi::ReduceType::Float64, mpi::ReduceOp::Sum,
                               tuning);
  };
  rt.runAll(body);
  EXPECT_EQ(eng.unfinishedTasks(), 0u) << "collective deadlocked";
  const CollTiming actual = collTiming(eng, cluster);
  const CollTiming* golden = findWorldGolden(scheme, tuning, lossy);
  const std::string world = std::string(schemes::schemeName(scheme)) + " " +
                            mpi::collAlgoName(tuning.algo) + "/" +
                            std::to_string(tuning.radix) +
                            (lossy ? " lossy" : " fault-free");
  if (golden == nullptr) {
    ADD_FAILURE() << "no timing golden for " << world << "; actual " << actual;
  } else {
    EXPECT_EQ(actual, *golden) << world;
  }

  std::vector<std::byte> image;
  for (const auto& b : bufs) {
    image.insert(image.end(), b.a2a_recv.bytes.begin(), b.a2a_recv.bytes.end());
    image.insert(image.end(), b.ag_recv.bytes.begin(), b.ag_recv.bytes.end());
    image.insert(image.end(), b.red_buf.bytes.begin(), b.red_buf.bytes.end());
  }
  return image;
}

class CollectiveConformance
    : public ::testing::TestWithParam<schemes::Scheme> {};

TEST_P(CollectiveConformance, AlgorithmsByteIdenticalFaultFree) {
  const std::uint64_t seed = 0x77;
  const auto flat =
      runCollectiveWorld(GetParam(), {mpi::CollAlgo::Flat, 2}, false, seed);
  const auto ring =
      runCollectiveWorld(GetParam(), {mpi::CollAlgo::Ring, 2}, false, seed);
  const auto tree2 =
      runCollectiveWorld(GetParam(), {mpi::CollAlgo::Tree, 2}, false, seed);
  const auto tree3 =
      runCollectiveWorld(GetParam(), {mpi::CollAlgo::Tree, 3}, false, seed);
  ASSERT_EQ(flat.size(), ring.size());
  ASSERT_EQ(flat.size(), tree2.size());
  EXPECT_TRUE(ring == flat) << "ring diverges from the flat algorithm";
  EXPECT_TRUE(tree2 == flat) << "tree (radix 2) diverges from flat";
  EXPECT_TRUE(tree3 == flat) << "tree (radix 3) diverges from flat";
}

TEST_P(CollectiveConformance, AlgorithmsByteIdenticalUnderLoss) {
  const std::uint64_t seed = 0x99;
  const auto flat =
      runCollectiveWorld(GetParam(), {mpi::CollAlgo::Flat, 2}, true, seed);
  const auto ring =
      runCollectiveWorld(GetParam(), {mpi::CollAlgo::Ring, 2}, true, seed);
  const auto tree2 =
      runCollectiveWorld(GetParam(), {mpi::CollAlgo::Tree, 2}, true, seed);
  ASSERT_EQ(flat.size(), ring.size());
  EXPECT_TRUE(ring == flat) << "ring diverges from flat under 12% loss";
  EXPECT_TRUE(tree2 == flat) << "tree diverges from flat under 12% loss";
}

INSTANTIATE_TEST_SUITE_P(
    All, CollectiveConformance, ::testing::ValuesIn(schemes::kAllSchemes),
    [](const ::testing::TestParamInfo<schemes::Scheme>& param_info) {
      std::string name{schemes::schemeName(param_info.param)};
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dkf
