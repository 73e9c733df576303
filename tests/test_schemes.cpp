// Per-engine unit tests: data-movement correctness through the DdtEngine
// interface, path-selection heuristics, cost accounting, and the behaviours
// that differentiate the schemes in the paper's evaluation.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "ddt/pack.hpp"
#include "hw/machines.hpp"
#include "schemes/cpu_gpu_hybrid.hpp"
#include "schemes/factory.hpp"
#include "schemes/fusion_engine.hpp"
#include "schemes/gpu_async.hpp"
#include "schemes/gpu_sync.hpp"
#include "schemes/hybrid_fusion.hpp"
#include "schemes/naive_copy.hpp"
#include "sim/trace.hpp"

namespace dkf::schemes {
namespace {

core::FusionRequest packRequest(ddt::LayoutPtr layout, gpu::MemSpan origin,
                                gpu::MemSpan packed) {
  core::FusionRequest req;
  req.op = core::FusionOp::Packing;
  req.layout = std::move(layout);
  req.origin = origin;
  req.target = packed;
  return req;
}

core::FusionRequest unpackRequest(ddt::LayoutPtr layout, gpu::MemSpan packed,
                                  gpu::MemSpan origin) {
  core::FusionRequest req;
  req.op = core::FusionOp::Unpacking;
  req.layout = std::move(layout);
  req.origin = packed;
  req.target = origin;
  return req;
}

core::FusionRequest directRequest(ddt::LayoutPtr src_layout, gpu::MemSpan src,
                                  ddt::LayoutPtr dst_layout,
                                  gpu::MemSpan dst) {
  core::FusionRequest req;
  req.op = core::FusionOp::DirectIPC;
  req.layout = std::move(src_layout);
  req.target_layout = std::move(dst_layout);
  req.origin = src;
  req.target = dst;
  return req;
}

class SchemeFixture : public ::testing::Test {
 public:
  SchemeFixture()
      : machine_(hw::lassen()), cpu_(eng_), gpu_(eng_, machine_.node, 0) {}

  ddt::LayoutPtr makeLayout(std::size_t blocks, std::size_t blocklen,
                            std::size_t stride) {
    return std::make_shared<const ddt::Layout>(ddt::flatten(
        ddt::Datatype::vector(blocks, blocklen,
                              static_cast<std::int64_t>(stride),
                              ddt::Datatype::byte()),
        1));
  }

  gpu::MemSpan filled(std::size_t bytes, std::uint64_t seed) {
    auto span = gpu_.memory().allocate(bytes);
    Rng rng(seed);
    for (auto& b : span.bytes) b = static_cast<std::byte>(rng.below(256));
    return span;
  }

  /// Drive the engine until ticket completion (flush + poll loop).
  void completeTicket(DdtEngine& engine, Ticket t) {
    eng_.spawn([](sim::Engine& eng, sim::CpuTimeline& cpu, DdtEngine& e,
                  Ticket tk) -> sim::Task<void> {
      co_await e.flush();
      while (!e.done(tk)) {
        if (const DurationNs owed = e.progress()) co_await cpu.busy(owed);
        co_await e.flush();
        co_await eng.delay(200);
      }
    }(eng_, cpu_, engine, t));
    eng_.run();
  }

  /// Pack through `engine` and compare with the host reference.
  void verifyPackRoundTrip(DdtEngine& engine) {
    auto layout = makeLayout(32, 16, 48);
    auto origin = filled(static_cast<std::size_t>(layout->endOffset()), 1);
    auto packed = gpu_.memory().allocate(layout->size());

    Ticket ticket;
    eng_.spawn([](DdtEngine& e, ddt::LayoutPtr l, gpu::MemSpan o,
                  gpu::MemSpan p, Ticket& out) -> sim::Task<void> {
      out = co_await e.submit(packRequest(std::move(l), o, p));
    }(engine, layout, origin, packed, ticket));
    eng_.run();
    completeTicket(engine, ticket);

    std::vector<std::byte> expect(layout->size());
    ddt::packCpu(*layout, origin.bytes, expect);
    ASSERT_EQ(std::memcmp(packed.bytes.data(), expect.data(), expect.size()),
              0)
        << engine.name();
    EXPECT_EQ(engine.submissions(), 1u);
  }

  sim::Engine eng_;
  hw::MachineSpec machine_;
  sim::CpuTimeline cpu_;
  gpu::Gpu gpu_;
};

// ---- Cross-scheme correctness ----

class EveryScheme : public SchemeFixture,
                    public ::testing::WithParamInterface<Scheme> {};

TEST_P(EveryScheme, PackMatchesHostReference) {
  auto engine = makeEngine(GetParam(), eng_, cpu_, gpu_);
  SCOPED_TRACE(std::string(engine->name()));
  // Tracing only observes: a traced engine packs the same bytes.
  auto tracer = sim::Tracer::enabled();
  engine->setTracer(&tracer);
  verifyPackRoundTrip(*engine);
  if (!engine->supportsDirect()) {
    // An engine without DirectIPC declines with an invalid ticket, so a
    // caller can fall back to pack + transfer + unpack.
    auto layout = makeLayout(4, 8, 16);
    auto src = filled(static_cast<std::size_t>(layout->endOffset()), 3);
    auto dst = gpu_.memory().allocate(src.size());
    Ticket ticket;
    eng_.spawn([](DdtEngine& e, ddt::LayoutPtr l, gpu::MemSpan s,
                  gpu::MemSpan d, Ticket& out) -> sim::Task<void> {
      out = co_await e.submit(directRequest(l, s, l, d));
    }(*engine, layout, src, dst, ticket));
    eng_.run();
    EXPECT_FALSE(ticket.valid());
  }
}

TEST_P(EveryScheme, UnpackMatchesHostReference) {
  auto engine = makeEngine(GetParam(), eng_, cpu_, gpu_);
  auto layout = makeLayout(16, 8, 24);
  auto packed = filled(layout->size(), 5);
  auto origin = gpu_.memory().allocate(
      static_cast<std::size_t>(layout->endOffset()));
  std::memset(origin.bytes.data(), 0, origin.size());

  Ticket ticket;
  eng_.spawn([](DdtEngine& e, ddt::LayoutPtr l, gpu::MemSpan p, gpu::MemSpan o,
                Ticket& out) -> sim::Task<void> {
    out = co_await e.submit(unpackRequest(std::move(l), p, o));
  }(*engine, layout, packed, origin, ticket));
  eng_.run();
  completeTicket(*engine, ticket);

  std::vector<std::byte> expect(origin.size(), std::byte{0});
  ddt::unpackCpu(*layout, packed.bytes, expect);
  ASSERT_EQ(std::memcmp(origin.bytes.data(), expect.data(), expect.size()), 0)
      << engine->name();
}

INSTANTIATE_TEST_SUITE_P(
    All, EveryScheme,
    ::testing::ValuesIn(std::begin(kAllSchemes), std::end(kAllSchemes)),
    [](const ::testing::TestParamInfo<Scheme>& info_param) {
      std::string n{schemeName(info_param.param)};
      for (auto& ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return n;
    });

// ---- GPU-Sync specifics ----

TEST_F(SchemeFixture, GpuSyncBlocksUntilComplete) {
  GpuSyncEngine engine(eng_, cpu_, gpu_);
  auto layout = makeLayout(8, 32, 64);
  auto origin = filled(static_cast<std::size_t>(layout->endOffset()), 2);
  auto packed = gpu_.memory().allocate(layout->size());

  bool returned = false;
  eng_.spawn([](GpuSyncEngine& e, ddt::LayoutPtr l, gpu::MemSpan o,
                gpu::MemSpan p, bool& flag) -> sim::Task<void> {
    auto t = co_await e.submit(packRequest(std::move(l), o, p));
    EXPECT_TRUE(e.done(t));  // synchronous: complete at return
    flag = true;
  }(engine, layout, origin, packed, returned));
  eng_.run();
  EXPECT_TRUE(returned);
  EXPECT_EQ(engine.breakdown().launching,
            gpu_.spec().kernel_launch_overhead);
  EXPECT_GT(engine.breakdown().synchronize, 0u);
  EXPECT_EQ(engine.breakdown().scheduling, 0u);
}

// ---- GPU-Async specifics ----

TEST_F(SchemeFixture, GpuAsyncReturnsBeforeKernelFinishes) {
  GpuAsyncEngine engine(eng_, cpu_, gpu_);
  auto layout = makeLayout(64, 512, 1024);  // sizable kernel
  auto origin = filled(static_cast<std::size_t>(layout->endOffset()), 3);
  auto packed = gpu_.memory().allocate(layout->size());

  eng_.spawn([](GpuAsyncEngine& e, ddt::LayoutPtr l, gpu::MemSpan o,
                gpu::MemSpan p) -> sim::Task<void> {
    auto t = co_await e.submit(packRequest(std::move(l), o, p));
    EXPECT_FALSE(e.done(t));  // asynchronous: kernel still in flight
    EXPECT_EQ(e.outstanding(), 1u);
  }(engine, layout, origin, packed));
  eng_.run();
  // After the event queue drains, the kernel has completed.
  EXPECT_EQ(engine.breakdown().scheduling,
            gpu_.spec().driver_call_overhead);  // one cudaEventRecord
}

TEST_F(SchemeFixture, GpuAsyncQueryCostAccrues) {
  GpuAsyncEngine engine(eng_, cpu_, gpu_);
  auto layout = makeLayout(64, 512, 1024);
  auto origin = filled(static_cast<std::size_t>(layout->endOffset()), 4);
  auto packed = gpu_.memory().allocate(layout->size());

  eng_.spawn([](sim::Engine& eng, sim::CpuTimeline& cpu, GpuAsyncEngine& e,
                ddt::LayoutPtr l, gpu::MemSpan o,
                gpu::MemSpan p) -> sim::Task<void> {
    auto t = co_await e.submit(packRequest(std::move(l), o, p));
    int queries = 0;
    while (!e.done(t)) {
      ++queries;
      if (const DurationNs owed = e.progress()) co_await cpu.busy(owed);
      co_await eng.delay(us(1));
    }
    EXPECT_GT(queries, 0);
    co_await cpu.busy(e.progress());  // pay the final query
    // Each done() call deferred one cudaEventQuery driver cost.
    EXPECT_GE(e.breakdown().synchronize,
              static_cast<DurationNs>(queries) *
                  e.breakdown().synchronize / (queries + 1));
    EXPECT_GT(e.breakdown().synchronize, 0u);
  }(eng_, cpu_, engine, layout, origin, packed));
  eng_.run();
}

// ---- CPU-GPU-Hybrid specifics ----

TEST_F(SchemeFixture, HybridSelectsCpuPathForSmallDense) {
  CpuGpuHybridEngine engine(eng_, cpu_, gpu_);
  auto dense_small = makeLayout(8, 512, 600);     // 4 KiB, 8 blocks
  auto sparse = makeLayout(2048, 4, 16);          // 8 KiB, 2048 blocks
  auto huge = makeLayout(64, 65536, 131072);      // 4 MiB
  EXPECT_TRUE(engine.usesCpuPath(*dense_small));
  EXPECT_FALSE(engine.usesCpuPath(*sparse));  // too many blocks
  EXPECT_FALSE(engine.usesCpuPath(*huge));    // too large
}

TEST_F(SchemeFixture, HybridCountsPathUsage) {
  CpuGpuHybridEngine engine(eng_, cpu_, gpu_);
  auto dense = makeLayout(4, 256, 512);
  auto sparse = makeLayout(2048, 4, 16);
  auto o1 = filled(static_cast<std::size_t>(dense->endOffset()), 6);
  auto p1 = gpu_.memory().allocate(dense->size());
  auto o2 = filled(static_cast<std::size_t>(sparse->endOffset()), 7);
  auto p2 = gpu_.memory().allocate(sparse->size());

  eng_.spawn([](CpuGpuHybridEngine& e, ddt::LayoutPtr a, gpu::MemSpan ao,
                gpu::MemSpan ap, ddt::LayoutPtr b, gpu::MemSpan bo,
                gpu::MemSpan bp) -> sim::Task<void> {
    co_await e.submit(packRequest(std::move(a), ao, ap));
    co_await e.submit(packRequest(std::move(b), bo, bp));
  }(engine, dense, o1, p1, sparse, o2, p2));
  eng_.run();
  EXPECT_EQ(engine.cpuPathOps(), 1u);
  EXPECT_EQ(engine.gpuPathOps(), 1u);
}

TEST_F(SchemeFixture, HybridWithoutGdrcopyAlwaysUsesGpu) {
  auto abci = hw::abci();
  ASSERT_FALSE(abci.node.gdrcopy.available);
  gpu::Gpu abci_gpu(eng_, abci.node, 1);
  CpuGpuHybridEngine engine(eng_, cpu_, abci_gpu);
  auto dense_small = makeLayout(8, 512, 600);
  EXPECT_FALSE(engine.usesCpuPath(*dense_small));
}

// ---- NaiveCopy specifics ----

TEST_F(SchemeFixture, GpuAsyncUnknownTicketThrowsInsteadOfPhantomDone) {
  // Regression: done() on a ticket this engine never issued used to return
  // true ("already retired") — the same unknown-vs-retired confusion as the
  // request list's rejected-uid bug.
  GpuAsyncEngine engine(eng_, cpu_, gpu_);
  EXPECT_FALSE(engine.done(Ticket{-1}));              // invalid: not done
  EXPECT_THROW(engine.done(Ticket{0}), CheckFailure);  // never issued

  auto layout = makeLayout(8, 32, 64);
  auto origin = filled(static_cast<std::size_t>(layout->endOffset()), 5);
  auto packed = gpu_.memory().allocate(layout->size());
  Ticket t;
  eng_.spawn([](GpuAsyncEngine& e, ddt::LayoutPtr l, gpu::MemSpan o,
                gpu::MemSpan p, Ticket& out) -> sim::Task<void> {
    out = co_await e.submit(packRequest(std::move(l), o, p));
  }(engine, layout, origin, packed, t));
  eng_.run();
  ASSERT_TRUE(t.valid());
  completeTicket(engine, t);
  EXPECT_TRUE(engine.done(t));  // retired: stays done
  EXPECT_THROW(engine.done(Ticket{t.id + 1}), CheckFailure);
}

TEST_F(SchemeFixture, NaiveCopyIssuesOneCopyPerBlock) {
  NaiveCopyEngine engine(eng_, cpu_, gpu_);
  auto layout = makeLayout(300, 8, 24);
  auto origin = filled(static_cast<std::size_t>(layout->endOffset()), 8);
  auto packed = gpu_.memory().allocate(layout->size());

  eng_.spawn([](NaiveCopyEngine& e, ddt::LayoutPtr l, gpu::MemSpan o,
                gpu::MemSpan p) -> sim::Task<void> {
    co_await e.submit(packRequest(std::move(l), o, p));
  }(engine, layout, origin, packed));
  eng_.run();
  EXPECT_EQ(engine.copyCallsIssued(), 300u);
  // 300 driver calls on the CPU timeline — milliseconds of overhead.
  EXPECT_GE(engine.breakdown().launching,
            300u * gpu_.spec().driver_call_overhead);
}

TEST_F(SchemeFixture, NaiveCopyScalesWithBlockCountNotBytes) {
  auto timeFor = [&](std::size_t blocks, std::size_t blocklen) {
    sim::Engine eng;
    sim::CpuTimeline cpu(eng);
    gpu::Gpu gpu(eng, machine_.node, 0);
    NaiveCopyEngine engine(eng, cpu, gpu);
    auto layout = std::make_shared<const ddt::Layout>(ddt::flatten(
        ddt::Datatype::vector(blocks, blocklen,
                              static_cast<std::int64_t>(blocklen * 3),
                              ddt::Datatype::byte()),
        1));
    auto origin = gpu.memory().allocate(
        static_cast<std::size_t>(layout->endOffset()));
    auto packed = gpu.memory().allocate(layout->size());
    TimeNs done = 0;
    eng.spawn([](sim::Engine& e, NaiveCopyEngine& en, ddt::LayoutPtr l,
                 gpu::MemSpan o, gpu::MemSpan p, TimeNs& out) -> sim::Task<void> {
      co_await en.submit(packRequest(std::move(l), o, p));
      out = e.now();
    }(eng, engine, layout, origin, packed, done));
    eng.run();
    return done;
  };
  // Same total bytes (64 KiB), 64 vs 4096 blocks.
  const TimeNs few_blocks = timeFor(64, 1024);
  const TimeNs many_blocks = timeFor(4096, 16);
  EXPECT_GT(many_blocks, few_blocks * 20);
}

// ---- Fusion engine specifics ----

TEST_F(SchemeFixture, FusionFallsBackWhenListFull) {
  core::FusionPolicy policy;
  policy.list_capacity = 2;
  policy.threshold_bytes = 1u << 30;  // never launch -> list stays full
  FusionEngine engine(eng_, cpu_, gpu_, policy);
  auto layout = makeLayout(4, 64, 128);

  eng_.spawn([](SchemeFixture& f, FusionEngine& e,
                ddt::LayoutPtr l) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      auto o = f.filled(static_cast<std::size_t>(l->endOffset()),
                        static_cast<std::uint64_t>(i));
      auto p = f.gpu_.memory().allocate(l->size());
      auto t = co_await e.submit(packRequest(l, o, p));
      EXPECT_TRUE(t.valid());
      if (i >= 2) {
        EXPECT_TRUE(e.done(t));  // fallback ops are synchronous
      }
    }
  }(*this, engine, layout));
  eng_.run();
  EXPECT_EQ(engine.fallbacks(), 2u);
}

TEST_F(SchemeFixture, FusionDirectCopiesBetweenLayouts) {
  FusionEngine engine(eng_, cpu_, gpu_);
  ASSERT_TRUE(engine.supportsDirect());
  auto src_layout = makeLayout(16, 32, 64);
  auto dst_layout = makeLayout(32, 16, 48);
  ASSERT_EQ(src_layout->size(), dst_layout->size());
  auto src = filled(static_cast<std::size_t>(src_layout->endOffset()), 9);
  auto dst = gpu_.memory().allocate(
      static_cast<std::size_t>(dst_layout->endOffset()));
  std::memset(dst.bytes.data(), 0, dst.size());

  Ticket ticket;
  eng_.spawn([](FusionEngine& e, ddt::LayoutPtr sl, gpu::MemSpan s,
                ddt::LayoutPtr dl, gpu::MemSpan d,
                Ticket& out) -> sim::Task<void> {
    out = co_await e.submit(directRequest(std::move(sl), s, std::move(dl), d));
  }(engine, src_layout, src, dst_layout, dst, ticket));
  eng_.run();
  ASSERT_TRUE(ticket.valid());
  completeTicket(engine, ticket);

  std::vector<std::byte> expect(dst.size(), std::byte{0});
  ddt::copyStrided(*src_layout, src.bytes, *dst_layout, expect);
  EXPECT_EQ(std::memcmp(dst.bytes.data(), expect.data(), expect.size()), 0);
}

TEST_F(SchemeFixture, FusionBatchesManySubmissionsIntoFewKernels) {
  core::FusionPolicy policy;
  policy.threshold_bytes = 512 * 1024;
  FusionEngine engine(eng_, cpu_, gpu_, policy);
  auto layout = makeLayout(16, 64, 128);  // 1 KiB per op

  eng_.spawn([](SchemeFixture& f, FusionEngine& e,
                ddt::LayoutPtr l) -> sim::Task<void> {
    std::vector<Ticket> tickets;
    for (int i = 0; i < 24; ++i) {
      auto o = f.filled(static_cast<std::size_t>(l->endOffset()),
                        static_cast<std::uint64_t>(100 + i));
      auto p = f.gpu_.memory().allocate(l->size());
      tickets.push_back(co_await e.submit(packRequest(l, o, p)));
    }
    co_await e.flush();
    for (auto& t : tickets) {
      while (!e.done(t)) co_await f.eng_.delay(200);
    }
  }(*this, engine, layout));
  eng_.run();
  EXPECT_EQ(engine.scheduler().requestsFused(), 24u);
  EXPECT_EQ(engine.scheduler().fusedKernelsLaunched(), 1u);  // one flush
  EXPECT_EQ(engine.fallbacks(), 0u);
}

// ---- Names and factory ----

TEST(FactoryNames, MatchPaperLegends) {
  EXPECT_EQ(schemeName(Scheme::GpuSync), "GPU-Sync");
  EXPECT_EQ(schemeName(Scheme::GpuAsync), "GPU-Async");
  EXPECT_EQ(schemeName(Scheme::CpuGpuHybrid), "CPU-GPU-Hybrid");
  EXPECT_EQ(schemeName(Scheme::AdaptiveGdr), "MVAPICH2-GDR");
  EXPECT_EQ(schemeName(Scheme::Proposed), "Proposed");
  EXPECT_EQ(schemeName(Scheme::ProposedTuned), "Proposed-Tuned");
}

TEST_F(SchemeFixture, FactoryTunedPolicyApplies) {
  core::FusionPolicy tuned;
  tuned.threshold_bytes = 12345;
  auto engine = makeEngine(Scheme::ProposedTuned, eng_, cpu_, gpu_, tuned);
  auto* fusion = dynamic_cast<FusionEngine*>(engine.get());
  ASSERT_NE(fusion, nullptr);
  EXPECT_EQ(fusion->scheduler().policy().threshold_bytes, 12345u);
  EXPECT_EQ(fusion->name(), "Proposed-Tuned");
}

}  // namespace
}  // namespace dkf::schemes

namespace dkf::schemes {
namespace {

TEST_F(SchemeFixture, HybridFusionRoutesBySparsity) {
  auto engine = makeEngine(Scheme::ProposedHybrid, eng_, cpu_, gpu_);
  auto* hf = dynamic_cast<HybridFusionEngine*>(engine.get());
  ASSERT_NE(hf, nullptr);
  EXPECT_EQ(hf->name(), "Proposed+Hybrid");
  EXPECT_TRUE(hf->supportsDirect());

  auto dense_small = makeLayout(4, 512, 1024);   // 2 KiB, 4 blocks -> CPU
  auto sparse = makeLayout(2048, 4, 16);         // 8 KiB, 2048 blocks -> fusion
  auto o1 = filled(static_cast<std::size_t>(dense_small->endOffset()), 40);
  auto p1 = gpu_.memory().allocate(dense_small->size());
  auto o2 = filled(static_cast<std::size_t>(sparse->endOffset()), 41);
  auto p2 = gpu_.memory().allocate(sparse->size());

  eng_.spawn([](HybridFusionEngine& e, ddt::LayoutPtr a, gpu::MemSpan ao,
                gpu::MemSpan ap, ddt::LayoutPtr b, gpu::MemSpan bo,
                gpu::MemSpan bp) -> sim::Task<void> {
    auto t1 = co_await e.submit(packRequest(a, ao, ap));
    EXPECT_TRUE(e.done(t1));  // CPU path: synchronous
    auto t2 = co_await e.submit(packRequest(b, bo, bp));
    EXPECT_FALSE(e.done(t2));  // fusion path: pending until flush
    co_await e.flush();
  }(*hf, dense_small, o1, p1, sparse, o2, p2));
  eng_.run();
  EXPECT_EQ(hf->cpuPathOps(), 1u);
  EXPECT_EQ(hf->fusedOps(), 1u);

  // Both paths moved the right bytes.
  std::vector<std::byte> e1(dense_small->size());
  ddt::packCpu(*dense_small, o1.bytes, e1);
  EXPECT_EQ(std::memcmp(p1.bytes.data(), e1.data(), e1.size()), 0);
  std::vector<std::byte> e2(sparse->size());
  ddt::packCpu(*sparse, o2.bytes, e2);
  EXPECT_EQ(std::memcmp(p2.bytes.data(), e2.data(), e2.size()), 0);
}

TEST_F(SchemeFixture, HybridFusionTicketSpacesAreStructurallyDisjoint) {
  // A CPU-path ticket is done the moment submit() returns; a fusion ticket
  // is not done until its fused kernel completes. Regression: done() once
  // told the two paths' tickets apart by magnitude, so a fusion id grown
  // large enough read as a finished CPU-path ticket. Now the only ticket
  // done without a query is kFinished, which no request UID takes.
  HybridFusionEngine engine(eng_, cpu_, gpu_);

  auto dense_small = makeLayout(4, 512, 1024);  // CPU path
  auto sparse = makeLayout(2048, 4, 16);        // fusion path
  auto o1 = filled(static_cast<std::size_t>(dense_small->endOffset()), 50);
  auto p1 = gpu_.memory().allocate(dense_small->size());
  auto o2 = filled(static_cast<std::size_t>(sparse->endOffset()), 51);
  auto p2 = gpu_.memory().allocate(sparse->size());

  Ticket cpu_ticket, fusion_ticket;
  eng_.spawn([](HybridFusionEngine& e, ddt::LayoutPtr a, gpu::MemSpan ao,
                gpu::MemSpan ap, ddt::LayoutPtr b, gpu::MemSpan bo,
                gpu::MemSpan bp, Ticket& ct, Ticket& ft) -> sim::Task<void> {
    ct = co_await e.submit(packRequest(a, ao, ap));
    EXPECT_TRUE(e.done(ct));
    ft = co_await e.submit(packRequest(b, bo, bp));
    EXPECT_FALSE(e.done(ft));  // queued
    co_await e.flush();
    EXPECT_FALSE(e.done(ft));  // launched, still running
  }(engine, dense_small, o1, p1, sparse, o2, p2, cpu_ticket, fusion_ticket));
  eng_.run();

  EXPECT_TRUE(cpu_ticket.finished());
  ASSERT_TRUE(fusion_ticket.valid());
  EXPECT_FALSE(fusion_ticket.finished());
  completeTicket(engine, fusion_ticket);
  EXPECT_TRUE(engine.done(fusion_ticket));
}

TEST_F(SchemeFixture, HybridFusionFallbackTicketsStayOutOfCpuTagSpace) {
  // With the request list full, a fusion-path pack runs on the GPU-Sync
  // fallback and is done at submit, while the queued request ahead of it
  // stays not done until its own kernel completes.
  core::FusionPolicy policy;
  policy.list_capacity = 1;
  policy.threshold_bytes = 1u << 30;  // never launch -> list fills
  HybridFusionEngine engine(eng_, cpu_, gpu_, policy);
  auto sparse = makeLayout(2048, 4, 16);  // fusion-path layout

  eng_.spawn([](SchemeFixture& f, HybridFusionEngine& e,
                ddt::LayoutPtr l) -> sim::Task<void> {
    auto o1 = f.filled(static_cast<std::size_t>(l->endOffset()), 60);
    auto p1 = f.gpu_.memory().allocate(l->size());
    Ticket queued = co_await e.submit(packRequest(l, o1, p1));  // fills it
    auto o2 = f.filled(static_cast<std::size_t>(l->endOffset()), 61);
    auto p2 = f.gpu_.memory().allocate(l->size());
    Ticket fallback = co_await e.submit(packRequest(l, o2, p2));
    EXPECT_TRUE(fallback.finished());
    EXPECT_TRUE(e.done(fallback));
    EXPECT_FALSE(e.done(queued));
    co_await e.flush();
    while (!e.done(queued)) co_await f.eng_.delay(200);
  }(*this, engine, sparse));
  eng_.run();
}

}  // namespace
}  // namespace dkf::schemes
