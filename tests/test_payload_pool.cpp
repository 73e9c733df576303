// Payload plane: PayloadRef/PayloadPool semantics (net/payload.hpp) and
// the reliable transport's capture-once retransmission path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "bench_util/parallel.hpp"
#include "common/check.hpp"
#include "ddt/datatype.hpp"
#include "fault/fault_plan.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/runtime.hpp"
#include "net/payload.hpp"
#include "sim/engine.hpp"

namespace dkf::net {
namespace {

std::vector<std::byte> patternBytes(std::size_t n, unsigned salt = 0) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + salt * 17 + 7) & 0xff);
  }
  return v;
}

TEST(PayloadPool, InlineSlabBoundary) {
  PayloadPool pool;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, kInlinePayloadBytes,
                        kInlinePayloadBytes + 1, std::size_t{4096}}) {
    const auto src = patternBytes(n);
    PayloadRef r = pool.capture(src);
    EXPECT_EQ(r.size(), n);
    EXPECT_EQ(r.isInline(), n <= kInlinePayloadBytes);
    EXPECT_TRUE(std::ranges::equal(r.span(), src));
  }
  // Only the two above-threshold captures touched a slab.
  EXPECT_EQ(pool.counters().captures, 5u);
  EXPECT_EQ(pool.counters().inline_captures, 3u);
  EXPECT_EQ(pool.counters().slab_allocs + pool.counters().slab_reuses, 2u);
  EXPECT_EQ(pool.liveBuffers(), 0u);  // all refs died in the loop
}

TEST(PayloadPool, SizeClassReuse) {
  PayloadPool pool;
  const auto src = patternBytes(500);  // class 512
  { PayloadRef a = pool.capture(src); }
  EXPECT_EQ(pool.counters().slab_allocs, 1u);
  EXPECT_EQ(pool.cachedBytes(), 512u);
  {
    // Different size, same power-of-two class: served from the free list.
    PayloadRef b = pool.capture(patternBytes(300));
    EXPECT_EQ(pool.counters().slab_reuses, 1u);
    EXPECT_EQ(pool.counters().slab_allocs, 1u);
    EXPECT_EQ(pool.liveBuffers(), 1u);
    EXPECT_EQ(pool.cachedBytes(), 0u);
  }
  EXPECT_DOUBLE_EQ(pool.hitRate(), 0.5);
  EXPECT_EQ(pool.peakLiveBuffers(), 1u);
}

TEST(PayloadPool, RefcountCopyMoveSemantics) {
  PayloadPool pool;
  const auto src = patternBytes(1000);
  PayloadRef a = pool.capture(src);
  EXPECT_EQ(a.refCount(), 1u);

  PayloadRef b = a;  // copy: ref bump, shared slab
  EXPECT_EQ(a.refCount(), 2u);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(pool.liveBuffers(), 1u);

  PayloadRef c = std::move(b);  // move: steals the ref
  EXPECT_EQ(a.refCount(), 2u);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move): reset state
  EXPECT_EQ(c.data(), a.data());

  b = c;  // copy-assign back
  EXPECT_EQ(a.refCount(), 3u);
  b = a;  // self-aliasing slab assign must not free
  EXPECT_EQ(a.refCount(), 3u);

  c.reset();
  b.reset();
  EXPECT_EQ(a.refCount(), 1u);
  EXPECT_EQ(std::memcmp(a.data(), src.data(), src.size()), 0);
  a.reset();
  EXPECT_EQ(pool.liveBuffers(), 0u);
  EXPECT_EQ(pool.counters().slab_allocs, 1u);  // one slab all along
}

TEST(PayloadPool, InlineCopiesAreIndependent) {
  PayloadPool pool;
  const auto src = patternBytes(32);
  PayloadRef a = pool.capture(src);
  PayloadRef b = a;
  ASSERT_TRUE(a.isInline());
  EXPECT_NE(a.data(), b.data());  // separate inline storage
  a.span()[0] = std::byte{0xEE};
  EXPECT_EQ(b.span()[0], src[0]);
  EXPECT_EQ(pool.liveBuffers(), 0u);  // inline handles never hit the pool
}

TEST(PayloadPool, OversizePayloadsAreNotCached) {
  PayloadPool pool;
  const std::size_t big = (1u << 20) + 1;  // past the largest size class
  { PayloadRef r = pool.capture(patternBytes(big)); }
  EXPECT_EQ(pool.counters().oversize_allocs, 1u);
  EXPECT_EQ(pool.cachedBytes(), 0u);
  { PayloadRef r = pool.capture(patternBytes(big)); }
  EXPECT_EQ(pool.counters().oversize_allocs, 2u);  // never reused
}

TEST(PayloadPool, CacheBudgetTrimsReleases) {
  PayloadPoolConfig cfg;
  cfg.max_cached_bytes = 1024;
  PayloadPool pool(cfg);
  // Two 1024-byte-class slabs live at once; only one fits the budget on
  // release, the second is freed outright.
  {
    PayloadRef a = pool.capture(patternBytes(700));
    PayloadRef b = pool.capture(patternBytes(700));
    EXPECT_EQ(pool.liveBuffers(), 2u);
  }
  EXPECT_EQ(pool.cachedBytes(), 1024u);
  EXPECT_EQ(pool.counters().trims, 1u);
}

TEST(PayloadPool, AllocateIsZeroFilledAndSlabBacked) {
  PayloadPool pool;
  PayloadRef r = pool.allocate(16);  // under the inline limit, still a slab
  EXPECT_FALSE(r.isInline());
  EXPECT_EQ(r.size(), 16u);
  for (std::byte b : r.span()) EXPECT_EQ(b, std::byte{0});
  const std::byte* before = r.data();
  PayloadRef moved = std::move(r);
  EXPECT_EQ(moved.data(), before);  // address stable across handle moves
}

TEST(PayloadPool, CheckQuiescentFlagsLiveRefs) {
  PayloadPool pool;
  PayloadRef r = pool.capture(patternBytes(512));
  EXPECT_THROW(pool.checkQuiescent(), CheckFailure);
  r.reset();
  EXPECT_NO_THROW(pool.checkQuiescent());
}

TEST(PayloadPool, OrphanedRefsReleaseSafelyAfterPoolDeath) {
  std::optional<PayloadPool> pool;
  pool.emplace();
  PayloadRef r = pool->capture(patternBytes(512));
  PayloadRef r2 = r;
  pool.reset();  // pool dies first; the slab is orphaned
  EXPECT_EQ(std::memcmp(r.data(), patternBytes(512).data(), 512), 0);
  r.reset();
  r2.reset();  // last ref frees the orphan (ASan would flag a leak/UAF)
}

// Refcount semantics under the parallel sweep model: every cell owns its
// engine, cluster and therefore its pool (pools are single-threaded by
// design). Named PayloadPoolParallelSweep so the CI TSan job's filter
// picks it up alongside the other sweep tests.
TEST(PayloadPoolParallelSweep, PerCellPoolsAreRaceFree) {
  constexpr std::size_t kCells = 8;
  std::vector<std::size_t> captures(kCells, 0);
  bench::parallelFor(kCells, [&](std::size_t cell) {
    sim::Engine eng;
    hw::Cluster cluster(eng, hw::lassen(), 2);
    mpi::RuntimeConfig cfg;
    mpi::Runtime rt(cluster, cfg);
    const std::size_t bytes = 256 + cell * 64;
    std::vector<gpu::MemSpan> bufs;
    for (int r = 0; r < 2; ++r) {
      bufs.push_back(rt.proc(r).allocDevice(bytes));
    }
    std::memset(bufs[0].bytes.data(), static_cast<int>(cell + 1), bytes);
    rt.runAll([&](mpi::Proc& p) -> sim::Task<void> {
      auto type = ddt::Datatype::byte();
      if (p.rank() == 0) {
        auto s = co_await p.isend(bufs[0], type, bytes, 1, 0);
        co_await p.wait(std::move(s));
      } else if (p.rank() == 1) {
        auto r = co_await p.irecv(bufs[1], type, bytes, 0, 0);
        co_await p.wait(std::move(r));
      }
      // lassen packs 4 ranks per node; the other ranks sit this one out.
    });
    EXPECT_EQ(std::memcmp(bufs[1].bytes.data(), bufs[0].bytes.data(), bytes),
              0);
    auto& pool = cluster.fabric().payloadPool();
    EXPECT_EQ(pool.liveBuffers(), 0u);
    captures[cell] = pool.counters().captures;
  });
  for (std::size_t c : captures) EXPECT_GE(c, 1u);
}

// Satellite regression: under loss with the reliable transport, a
// retransmission must resend the *original* capture (a ref bump), so the
// received bytes match the first attempt even if the sender's buffer was
// scribbled after isend returned. The seed re-snapshotted the staging
// buffer on every attempt, which this pins down.
TEST(PayloadRetransmit, RetransmissionReusesOriginalCapture) {
  constexpr int kMsgs = 200;
  constexpr std::size_t kBytes = 1024;  // eager on lassen
  sim::Engine eng;
  hw::Cluster cluster(eng, hw::lassen(), 2);
  fault::FaultSpec fs;
  fs.seed = 0x51ab5;
  fs.data_loss = 0.12;
  fs.control_loss = 0.12;
  fault::FaultPlan plan(eng, fs);
  cluster.setFaultPlan(&plan);
  eng.setWatchdog(sec(30));

  mpi::RuntimeConfig cfg;
  cfg.reliability.enabled = true;
  cfg.reliability.base_timeout = us(40);
  cfg.reliability.max_timeout = us(2000);
  cfg.reliability.max_retries = 60;
  mpi::Runtime rt(cluster, cfg);
  // Cross-node pair (lassen packs 4 ranks per node): sender rank 0,
  // receiver the first rank of the second node.
  const int dst = rt.worldSize() / 2;

  auto sbuf = rt.proc(0).allocDevice(kMsgs * kBytes);
  auto rbuf = rt.proc(dst).allocDevice(kMsgs * kBytes);
  const auto original = patternBytes(kMsgs * kBytes, 3);
  std::memcpy(sbuf.bytes.data(), original.data(), original.size());
  std::memset(rbuf.bytes.data(), 0, kMsgs * kBytes);

  rt.runAll([&](mpi::Proc& p) -> sim::Task<void> {
    auto type = ddt::Datatype::byte();
    std::vector<mpi::RequestPtr> reqs;
    for (int i = 0; i < kMsgs; ++i) {
      if (p.rank() == 0) {
        reqs.push_back(co_await p.isend(sbuf.subspan(i * kBytes, kBytes),
                                        type, kBytes, dst, i));
        // MPI eager semantics: the buffer is reusable once isend returns.
        // Scribbling it proves retransmissions don't re-read it.
        std::memset(sbuf.subspan(i * kBytes, kBytes).bytes.data(), 0xAB,
                    kBytes);
      } else if (p.rank() == dst) {
        reqs.push_back(co_await p.irecv(rbuf.subspan(i * kBytes, kBytes),
                                        type, kBytes, 0, i));
      }
    }
    co_await p.waitall(std::move(reqs));
  });

  EXPECT_EQ(std::memcmp(rbuf.bytes.data(), original.data(), original.size()),
            0);
  // The loss rate guarantees retransmissions actually happened...
  EXPECT_GT(rt.proc(0).transport().retransmissions, 0u);
  auto& pool = cluster.fabric().payloadPool();
  // ...and each message was captured exactly once regardless.
  EXPECT_EQ(pool.counters().captures, static_cast<std::size_t>(kMsgs));
  EXPECT_EQ(pool.liveBuffers(), 0u);  // every ref released at teardown
}

}  // namespace
}  // namespace dkf::net
