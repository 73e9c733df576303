// Collectives built on the runtime: bcast, reduce, allreduce, gather,
// alltoall, and the derived-datatype neighborhood alltoall-w — each
// validated against a host oracle across multiple roots and sizes, with its
// virtual end time and fabric traffic frozen (collective_timing.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/collectives.hpp"
#include "collective_timing.hpp"
#include "workloads/workloads.hpp"

namespace dkf::mpi {
namespace {

struct CollWorld {
  CollWorld()
      : cluster(eng, hw::lassen(), 2),
        rt(cluster, [] {
          RuntimeConfig cfg;
          cfg.scheme = schemes::Scheme::Proposed;
          return cfg;
        }()) {}

  CollTiming timing() { return collTiming(eng, cluster); }

  sim::Engine eng;
  hw::Cluster cluster;
  Runtime rt;
};

CollTiming bcastGolden(int root) {
  switch (root) {
    case 0: return {5700, 7, 28672};
    case 3: return {5950, 7, 28672};
    default: return {5950, 7, 28672};
  }
}

class BcastRoots : public ::testing::TestWithParam<int> {};

TEST_P(BcastRoots, AllRanksReceiveRootData) {
  const int root = GetParam();
  CollWorld w;
  const std::size_t bytes = 4096;
  std::vector<gpu::MemSpan> bufs;
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    auto b = w.rt.proc(r).allocDevice(bytes);
    std::memset(b.bytes.data(), r == root ? 0xCD : 0, bytes);
    bufs.push_back(b);
  }
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    w.eng.spawn([](Proc& p, gpu::MemSpan b, std::size_t n,
                   int rt_root) -> sim::Task<void> {
      co_await bcast(p, b, ddt::Datatype::byte(), n, rt_root);
    }(w.rt.proc(r), bufs[r], bytes, root));
  }
  w.eng.run();
  ASSERT_EQ(w.eng.unfinishedTasks(), 0u);
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    EXPECT_EQ(bufs[r].bytes[0], std::byte{0xCD}) << "rank " << r;
    EXPECT_EQ(bufs[r].bytes[bytes - 1], std::byte{0xCD}) << "rank " << r;
  }
  EXPECT_EQ(w.timing(), bcastGolden(root));
}

INSTANTIATE_TEST_SUITE_P(Roots, BcastRoots, ::testing::Values(0, 3, 7));

TEST(Reduce, SumLandsOnRoot) {
  CollWorld w;
  constexpr std::size_t kCount = 64;
  std::vector<gpu::MemSpan> bufs;
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    auto b = w.rt.proc(r).allocDevice(kCount * 8);
    auto* vals = reinterpret_cast<double*>(b.bytes.data());
    for (std::size_t i = 0; i < kCount; ++i) {
      vals[i] = static_cast<double>(r + 1);
    }
    bufs.push_back(b);
  }
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    w.eng.spawn([](Proc& p, gpu::MemSpan b) -> sim::Task<void> {
      co_await reduce(p, b, kCount, ReduceType::Float64, ReduceOp::Sum, 2);
    }(w.rt.proc(r), bufs[r]));
  }
  w.eng.run();
  ASSERT_EQ(w.eng.unfinishedTasks(), 0u);
  // sum(1..8) = 36 on root rank 2.
  const auto* result = reinterpret_cast<const double*>(bufs[2].bytes.data());
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_DOUBLE_EQ(result[i], 36.0);
  }
  EXPECT_EQ(w.timing(), (CollTiming{5450, 7, 6656}));
}

TEST(Allreduce, MaxEverywhere) {
  CollWorld w;
  constexpr std::size_t kCount = 16;
  std::vector<gpu::MemSpan> bufs;
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    auto b = w.rt.proc(r).allocDevice(kCount * 8);
    auto* vals = reinterpret_cast<std::int64_t*>(b.bytes.data());
    for (std::size_t i = 0; i < kCount; ++i) {
      vals[i] = (r * 7 + static_cast<int>(i)) % 13;
    }
    bufs.push_back(b);
  }
  // Oracle: element-wise max across ranks.
  std::vector<std::int64_t> expect(kCount, INT64_MIN);
  for (int r = 0; r < 8; ++r) {
    for (std::size_t i = 0; i < kCount; ++i) {
      expect[i] = std::max<std::int64_t>(expect[i],
                                         (r * 7 + static_cast<int>(i)) % 13);
    }
  }
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    w.eng.spawn([](Proc& p, gpu::MemSpan b) -> sim::Task<void> {
      co_await allreduce(p, b, kCount, ReduceType::Int64, ReduceOp::Max);
    }(w.rt.proc(r), bufs[r]));
  }
  w.eng.run();
  ASSERT_EQ(w.eng.unfinishedTasks(), 0u);
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    const auto* vals =
        reinterpret_cast<const std::int64_t*>(bufs[r].bytes.data());
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(vals[i], expect[i]) << "rank " << r << " elem " << i;
    }
  }
  EXPECT_EQ(w.timing(), (CollTiming{10150, 14, 2560}));
}

TEST(Gather, RankMajorAtRoot) {
  CollWorld w;
  constexpr std::size_t kBytes = 256;
  const int root = 1;
  std::vector<gpu::MemSpan> sends;
  gpu::MemSpan recv{};
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    auto s = w.rt.proc(r).allocDevice(kBytes);
    std::memset(s.bytes.data(), 0xA0 + r, kBytes);
    sends.push_back(s);
  }
  recv = w.rt.proc(root).allocDevice(kBytes * 8);
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    w.eng.spawn([](Proc& p, gpu::MemSpan s, gpu::MemSpan d,
                   int rt_root) -> sim::Task<void> {
      co_await gather(p, s, d, kBytes, rt_root);
    }(w.rt.proc(r), sends[r], recv, root));
  }
  w.eng.run();
  ASSERT_EQ(w.eng.unfinishedTasks(), 0u);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(recv.bytes[static_cast<std::size_t>(r) * kBytes],
              static_cast<std::byte>(0xA0 + r));
  }
  EXPECT_EQ(w.timing(), (CollTiming{1950, 7, 1792}));
}

TEST(Alltoall, FullPairwiseExchange) {
  CollWorld w;
  constexpr std::size_t kBytes = 128;
  const int n = w.rt.worldSize();
  std::vector<gpu::MemSpan> sends, recvs;
  for (int r = 0; r < n; ++r) {
    auto s = w.rt.proc(r).allocDevice(kBytes * static_cast<std::size_t>(n));
    auto d = w.rt.proc(r).allocDevice(kBytes * static_cast<std::size_t>(n));
    for (int peer = 0; peer < n; ++peer) {
      std::memset(s.bytes.data() + static_cast<std::size_t>(peer) * kBytes,
                  r * 16 + peer, kBytes);
    }
    sends.push_back(s);
    recvs.push_back(d);
  }
  for (int r = 0; r < n; ++r) {
    w.eng.spawn([](Proc& p, gpu::MemSpan s, gpu::MemSpan d) -> sim::Task<void> {
      co_await alltoall(p, s, d, kBytes);
    }(w.rt.proc(r), sends[r], recvs[r]));
  }
  w.eng.run();
  ASSERT_EQ(w.eng.unfinishedTasks(), 0u);
  for (int r = 0; r < n; ++r) {
    for (int peer = 0; peer < n; ++peer) {
      // recvs[r][peer] came from sends[peer][r].
      EXPECT_EQ(recvs[r].bytes[static_cast<std::size_t>(peer) * kBytes],
                static_cast<std::byte>(peer * 16 + r))
          << "rank " << r << " from " << peer;
    }
  }
  EXPECT_EQ(w.timing(), (CollTiming{3750, 56, 7168}));
}

TEST(NeighborAlltoallw, MatchesHaloExchangerSemantics) {
  // Build the 3-D halo as a neighborhood collective and verify the same
  // ghost-cell postcondition the HaloExchanger test checks.
  CollWorld w;
  constexpr std::size_t kN = 4, kGhost = 1, kTotal = kN + 2 * kGhost;
  const auto faces = workloads::halo3dFaces(kN, kGhost);

  auto rankOf = [](int x, int y, int z) {
    auto wrap = [](int v) { return (v + 2) % 2; };
    return (wrap(x) * 2 + wrap(y)) * 2 + wrap(z);
  };
  std::vector<gpu::MemSpan> blocks;
  for (int r = 0; r < 8; ++r) {
    auto b = w.rt.proc(r).allocDevice(kTotal * kTotal * kTotal * 8);
    auto* cells = reinterpret_cast<double*>(b.bytes.data());
    for (std::size_t i = 0; i < kTotal * kTotal * kTotal; ++i) cells[i] = r;
    blocks.push_back(b);
  }
  for (int r = 0; r < 8; ++r) {
    const int cx = r / 4, cy = (r / 2) % 2, cz = r % 2;
    std::vector<NeighborOp> ops;
    for (std::size_t f = 0; f < faces.size(); ++f) {
      NeighborOp op;
      op.neighbor = rankOf(cx + faces[f].neighbor_dx[0],
                           cy + faces[f].neighbor_dx[1],
                           cz + faces[f].neighbor_dx[2]);
      op.send_type = faces[f].send_type;
      op.recv_type = faces[f].recv_type;
      op.send_tag = static_cast<int>(f);
      op.recv_tag = static_cast<int>(f ^ 1);
      ops.push_back(std::move(op));
    }
    w.eng.spawn([](Proc& p, gpu::MemSpan b,
                   std::vector<NeighborOp> o) -> sim::Task<void> {
      co_await neighborAlltoallw(p, b, o);
    }(w.rt.proc(r), blocks[r], std::move(ops)));
  }
  w.eng.run();
  ASSERT_EQ(w.eng.unfinishedTasks(), 0u);

  // Spot check: rank 0's -x ghost face holds its x-neighbor's id.
  const auto* cells =
      reinterpret_cast<const double*>(blocks[0].bytes.data());
  const std::size_t mid = kGhost + kN / 2;
  EXPECT_EQ(cells[(0 * kTotal + mid) * kTotal + mid],
            static_cast<double>(rankOf(-1, 0, 0)));
  EXPECT_EQ(cells[((kTotal - 1) * kTotal + mid) * kTotal + mid],
            static_cast<double>(rankOf(1, 0, 0)));
  EXPECT_EQ(w.timing(), (CollTiming{51092, 80, 6144}));
}

}  // namespace
}  // namespace dkf::mpi

namespace dkf::mpi {
namespace {

// Collectives must be correct under every DDT engine, not just fusion.
class CollectiveScheme : public ::testing::TestWithParam<schemes::Scheme> {};

TEST_P(CollectiveScheme, AllreduceSumCorrectUnderScheme) {
  sim::Engine eng;
  hw::Cluster cluster(eng, hw::lassen(), 2);
  RuntimeConfig cfg;
  cfg.scheme = GetParam();
  Runtime rt(cluster, cfg);
  constexpr std::size_t kCount = 8;
  std::vector<gpu::MemSpan> bufs;
  for (int r = 0; r < rt.worldSize(); ++r) {
    auto b = rt.proc(r).allocDevice(kCount * 8);
    auto* vals = reinterpret_cast<double*>(b.bytes.data());
    for (std::size_t i = 0; i < kCount; ++i) vals[i] = r + 0.5;
    bufs.push_back(b);
  }
  for (int r = 0; r < rt.worldSize(); ++r) {
    eng.spawn([](Proc& p, gpu::MemSpan b) -> sim::Task<void> {
      co_await allreduce(p, b, kCount, ReduceType::Float64, ReduceOp::Sum);
    }(rt.proc(r), bufs[r]));
  }
  eng.run();
  ASSERT_EQ(eng.unfinishedTasks(), 0u);
  // sum over r of (r + 0.5) for r in 0..7 = 28 + 4 = 32.
  for (int r = 0; r < rt.worldSize(); ++r) {
    const auto* vals = reinterpret_cast<const double*>(bufs[r].bytes.data());
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_DOUBLE_EQ(vals[i], 32.0) << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CollectiveScheme,
    ::testing::Values(schemes::Scheme::GpuSync, schemes::Scheme::GpuAsync,
                      schemes::Scheme::CpuGpuHybrid,
                      schemes::Scheme::Proposed),
    [](const ::testing::TestParamInfo<schemes::Scheme>& pinfo) {
      std::string n{schemes::schemeName(pinfo.param)};
      for (auto& ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return n;
    });

// ---- Min/Max over both element types, reduce and allreduce ----
//
// Regression matrix for the silent-combine bug: `combine` returned `a` for
// any ReduceOp it did not handle, so Min/Max "succeeded" with rank-0 data.

/// Deterministic per-(rank, elem) value with negatives and, for Float64,
/// fractional parts — so Min/Max differ from Sum and from rank 0's data.
double sourceValue(int rank, std::size_t i, ReduceType type) {
  const double base = static_cast<double>((rank * 7 + static_cast<int>(i)) % 13) - 6.0;
  return type == ReduceType::Float64 ? base + 0.25 * rank : base;
}

enum class Collective { Reduce, Allreduce };  // reduce-to-root vs allreduce

// Three 4-byte enums, so no byte is padding: gtest names each case by
// dumping its bytes (ctest lists that dump), and a `bool` here left three
// indeterminate bytes that varied the names from build to build.
struct MinMaxCase {
  Collective coll{Collective::Reduce};
  ReduceOp op{ReduceOp::Min};
  ReduceType type{ReduceType::Float64};
};
static_assert(std::has_unique_object_representations_v<MinMaxCase>);

class ReduceMinMax : public ::testing::TestWithParam<MinMaxCase> {};

TEST_P(ReduceMinMax, MatchesElementwiseOracle) {
  const MinMaxCase c = GetParam();
  CollWorld w;
  constexpr std::size_t kCount = 24;
  constexpr int kRoot = 2;
  std::vector<gpu::MemSpan> bufs;
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    auto b = w.rt.proc(r).allocDevice(kCount * 8);
    for (std::size_t i = 0; i < kCount; ++i) {
      const double v = sourceValue(r, i, c.type);
      if (c.type == ReduceType::Float64) {
        reinterpret_cast<double*>(b.bytes.data())[i] = v;
      } else {
        reinterpret_cast<std::int64_t*>(b.bytes.data())[i] =
            static_cast<std::int64_t>(v);
      }
    }
    bufs.push_back(b);
  }
  std::vector<double> expect(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    double acc = sourceValue(0, i, c.type);
    for (int r = 1; r < 8; ++r) {
      const double v = sourceValue(r, i, c.type);
      acc = c.op == ReduceOp::Min ? std::min(acc, v) : std::max(acc, v);
    }
    expect[i] = acc;
  }
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    w.eng.spawn([](Proc& p, gpu::MemSpan b, MinMaxCase cs) -> sim::Task<void> {
      if (cs.coll == Collective::Allreduce) {
        co_await allreduce(p, b, kCount, cs.type, cs.op);
      } else {
        co_await reduce(p, b, kCount, cs.type, cs.op, kRoot);
      }
    }(w.rt.proc(r), bufs[r], c));
  }
  w.eng.run();
  ASSERT_EQ(w.eng.unfinishedTasks(), 0u);
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    // Reduce: the result lands only on the root.
    if (c.coll == Collective::Reduce && r != kRoot) continue;
    for (std::size_t i = 0; i < kCount; ++i) {
      const double got =
          c.type == ReduceType::Float64
              ? reinterpret_cast<const double*>(bufs[r].bytes.data())[i]
              : static_cast<double>(reinterpret_cast<const std::int64_t*>(
                    bufs[r].bytes.data())[i]);
      const double want = c.type == ReduceType::Float64
                              ? expect[i]
                              : std::trunc(expect[i]);
      ASSERT_DOUBLE_EQ(got, want) << "rank " << r << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndTypes, ReduceMinMax,
    ::testing::Values(
        MinMaxCase{Collective::Reduce, ReduceOp::Min, ReduceType::Float64},
        MinMaxCase{Collective::Reduce, ReduceOp::Min, ReduceType::Int64},
        MinMaxCase{Collective::Reduce, ReduceOp::Max, ReduceType::Float64},
        MinMaxCase{Collective::Reduce, ReduceOp::Max, ReduceType::Int64},
        MinMaxCase{Collective::Allreduce, ReduceOp::Min, ReduceType::Float64},
        MinMaxCase{Collective::Allreduce, ReduceOp::Min, ReduceType::Int64},
        MinMaxCase{Collective::Allreduce, ReduceOp::Max, ReduceType::Float64},
        MinMaxCase{Collective::Allreduce, ReduceOp::Max, ReduceType::Int64}),
    [](const ::testing::TestParamInfo<MinMaxCase>& pinfo) {
      const MinMaxCase& c = pinfo.param;
      std::string n = c.coll == Collective::Allreduce ? "Allreduce" : "Reduce";
      n += c.op == ReduceOp::Min ? "Min" : "Max";
      n += c.type == ReduceType::Float64 ? "Float64" : "Int64";
      return n;
    });

// ---- Guard rails: undersized buffers and unhandled enumerators fail loudly

TEST(Gather, UndersizedSendBufferFailsCheck) {
  // Regression: gather read `bytes_per_rank` from `send` with no size
  // check — an undersized span was silent out-of-bounds traffic.
  CollWorld w;
  constexpr std::size_t kBytes = 256;
  std::vector<gpu::MemSpan> sends;
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    sends.push_back(w.rt.proc(r).allocDevice(kBytes / 2));  // too small
  }
  auto recv = w.rt.proc(0).allocDevice(kBytes * 8);
  const auto drive = [&] {
    for (int r = 0; r < w.rt.worldSize(); ++r) {
      w.eng.spawn(
          [](Proc& p, gpu::MemSpan s, gpu::MemSpan d) -> sim::Task<void> {
            co_await gather(p, s, d, kBytes, 0);
          }(w.rt.proc(r), sends[r], recv));
    }
    w.eng.run();
  };
  EXPECT_THROW(drive(), CheckFailure);
}

TEST(Reduce, UnhandledReduceOpFailsCheck) {
  // Regression: `combine` silently returned `a` for ops outside its
  // switch; now every unhandled enumerator is a loud CheckFailure.
  CollWorld w;
  const auto drive = [&] {
    for (int r = 0; r < w.rt.worldSize(); ++r) {
      w.eng.spawn([](Proc& p, gpu::MemSpan b) -> sim::Task<void> {
        co_await allreduce(p, b, 8, ReduceType::Float64,
                           static_cast<ReduceOp>(99));
      }(w.rt.proc(r), w.rt.proc(r).allocDevice(64)));
    }
    w.eng.run();
  };
  EXPECT_THROW(drive(), CheckFailure);
}

TEST(Reduce, UnhandledReduceTypeFailsCheck) {
  CollWorld w;
  const auto drive = [&] {
    for (int r = 0; r < w.rt.worldSize(); ++r) {
      w.eng.spawn([](Proc& p, gpu::MemSpan b) -> sim::Task<void> {
        co_await reduce(p, b, 8, static_cast<ReduceType>(99), ReduceOp::Sum,
                        0);
      }(w.rt.proc(r), w.rt.proc(r).allocDevice(64)));
    }
    w.eng.run();
  };
  EXPECT_THROW(drive(), CheckFailure);
}

// ---- Per-collective tag allocator ---------------------------------------

TEST(CollectiveTags, SpansAreDisjointAndMonotone) {
  CollWorld w;
  auto& p = w.rt.proc(0);
  const int a = p.allocCollectiveTags(8);
  EXPECT_EQ(a, kCollectiveTagBase);
  const int b = p.allocCollectiveTags(16);
  EXPECT_EQ(b, a + 8);
  const int c = p.allocCollectiveTags(1);
  EXPECT_EQ(c, b + 16);
  // The allocator is per-rank state; rank 1 starts at the base too.
  EXPECT_EQ(w.rt.proc(1).allocCollectiveTags(4), kCollectiveTagBase);
}

TEST(CollectiveTags, ZeroSpanFailsCheck) {
  CollWorld w;
  EXPECT_THROW(w.rt.proc(0).allocCollectiveTags(0), CheckFailure);
}

TEST(CollectiveTags, ExhaustionFailsCheckInsteadOfWrapping) {
  CollWorld w;
  auto& p = w.rt.proc(0);
  const auto exhaust = [&] {
    for (int i = 0; i < 4096; ++i) {
      p.allocCollectiveTags(1 << 20);
    }
  };
  EXPECT_THROW(exhaust(), CheckFailure);
}

TEST(CollectiveTags, AllreducePastOldTagBoundary) {
  // Regression for the seed's fixed tag bases: allreduce gave its bcast
  // phase tags at `tag_base + (1 << 10)`, so past ~2k ranks the reduce
  // phase's `tag_base + rank` tags collided with them and payloads crossed
  // phases. 2304 ranks is past that boundary; with per-invocation tag
  // spans the result must still match the exact rank-order fold.
  constexpr int kRanks = 2304;
  sim::Engine eng;
  hw::MachineSpec machine = hw::lassen();
  machine.node.gpus_per_node = 32;  // 72 nodes
  machine.node.gpu.arena_bytes = 64u << 10;
  hw::Cluster cluster(eng, machine, kRanks / 32);
  Runtime rt(cluster, [] {
    RuntimeConfig cfg;
    cfg.scheme = schemes::Scheme::Proposed;
    return cfg;
  }());
  ASSERT_EQ(rt.worldSize(), kRanks);

  std::vector<gpu::MemSpan> bufs;
  bufs.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    auto b = rt.proc(r).allocDevice(8);
    *reinterpret_cast<double*>(b.bytes.data()) =
        static_cast<double>(r) + 0.25;
    bufs.push_back(b);
  }
  rt.runAll([&](Proc& p) -> sim::Task<void> {
    co_await allreduce(p, bufs[static_cast<std::size_t>(p.rank())], 1,
                       ReduceType::Float64, ReduceOp::Sum,
                       {CollAlgo::Tree, 2});
  });
  ASSERT_EQ(eng.unfinishedTasks(), 0u);
  // Sum of r + 0.25 over r in [0, 2304): every partial sum is an exact
  // multiple of 0.25 well under 2^52, so the fold is exact and the
  // comparison can demand equality.
  const double expect = static_cast<double>(kRanks) *
                            static_cast<double>(kRanks - 1) / 2.0 +
                        0.25 * static_cast<double>(kRanks);
  for (int r = 0; r < kRanks; r += 289) {
    EXPECT_EQ(*reinterpret_cast<const double*>(bufs[r].bytes.data()), expect)
        << "rank " << r;
  }
}

}  // namespace
}  // namespace dkf::mpi
