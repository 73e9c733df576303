// Protocol edge cases and runtime internals: zero-size messages, message
// ordering, layout-cache reuse, staging reclamation, RPUT with derived
// types, all-to-all traffic, DirectIPC fallback for engines without the
// capability, and eager/rendezvous boundary behaviour.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/rng.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/runtime.hpp"

namespace dkf::mpi {
namespace {

using ddt::Datatype;

struct World {
  explicit World(RuntimeConfig cfg = {}, hw::MachineSpec machine = hw::lassen(),
                 std::size_t nodes = 2)
      : cluster(eng, std::move(machine), nodes), rt(cluster, cfg) {}

  sim::Engine eng;
  hw::Cluster cluster;
  Runtime rt;
};

TEST(ZeroSize, EmptyMessageCompletesBothSides) {
  // Over real buffers and over default (null) spans: the eager delivery
  // has nothing to copy and must not hand memcpy a null destination.
  for (const bool null_spans : {false, true}) {
    SCOPED_TRACE(null_spans ? "null spans" : "16 B buffers");
    World w;
    auto& p0 = w.rt.proc(0);
    auto& p4 = w.rt.proc(4);
    const auto sbuf = null_spans ? gpu::MemSpan{} : p0.allocDevice(16);
    const auto rbuf = null_spans ? gpu::MemSpan{} : p4.allocDevice(16);

    bool send_done = false, recv_done = false;
    w.eng.spawn([](Proc& p, gpu::MemSpan b, bool& flag) -> sim::Task<void> {
      auto req = co_await p.isend(b, Datatype::byte(), 0, 4, 1);
      co_await p.wait(req);
      flag = true;
    }(p0, sbuf, send_done));
    w.eng.spawn([](Proc& p, gpu::MemSpan b, bool& flag) -> sim::Task<void> {
      auto req = co_await p.irecv(b, Datatype::byte(), 0, 0, 1);
      co_await p.wait(req);
      flag = true;
    }(p4, rbuf, recv_done));
    w.eng.run();
    EXPECT_TRUE(send_done);
    EXPECT_TRUE(recv_done);
    EXPECT_EQ(w.eng.unfinishedTasks(), 0u);
  }
}

TEST(Ordering, SameTagMessagesArriveInPostOrder) {
  World w;
  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  std::vector<gpu::MemSpan> sbufs, rbufs;
  for (int i = 0; i < 4; ++i) {
    auto s = p0.allocDevice(64);
    std::memset(s.bytes.data(), 0x10 + i, 64);
    sbufs.push_back(s);
    rbufs.push_back(p4.allocDevice(64));
  }
  w.eng.spawn([](Proc& p, std::vector<gpu::MemSpan>& bufs) -> sim::Task<void> {
    std::vector<RequestPtr> reqs;
    for (auto& b : bufs) {
      reqs.push_back(co_await p.isend(b, Datatype::byte(), 64, 4, 0));
    }
    co_await p.waitall(std::move(reqs));
  }(p0, sbufs));
  w.eng.spawn([](Proc& p, std::vector<gpu::MemSpan>& bufs) -> sim::Task<void> {
    std::vector<RequestPtr> reqs;
    for (auto& b : bufs) {
      reqs.push_back(co_await p.irecv(b, Datatype::byte(), 64, 0, 0));
    }
    co_await p.waitall(std::move(reqs));
  }(p4, rbufs));
  w.eng.run();
  // MPI non-overtaking: i-th recv matches i-th send of the same (src, tag).
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rbufs[i].bytes[0], static_cast<std::byte>(0x10 + i));
  }
}

TEST(LayoutCache, ReusedAcrossRepeatedSends) {
  World w;
  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  auto type = Datatype::vector(32, 2, 8, Datatype::float64());
  auto sbuf = p0.allocDevice(static_cast<std::size_t>(type->extent()));
  auto rbuf = p4.allocDevice(static_cast<std::size_t>(type->extent()));

  w.eng.spawn([](Proc& p, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      auto req = co_await p.isend(b, t, 1, 4, i);
      co_await p.wait(req);
    }
  }(p0, sbuf, type));
  w.eng.spawn([](Proc& p, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      auto req = co_await p.irecv(b, t, 1, 0, i);
      co_await p.wait(req);
    }
  }(p4, rbuf, type));
  w.eng.run();
  EXPECT_EQ(p0.layoutCache().misses(), 1u);  // flattened once
  EXPECT_EQ(p0.layoutCache().hits(), 4u);    // reused 4 times
}

TEST(Staging, DeviceMemoryReclaimedAfterCompletion) {
  RuntimeConfig cfg;
  cfg.scheme = schemes::Scheme::Proposed;
  World w(cfg);
  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  auto type = Datatype::vector(256, 16, 48, Datatype::float64());  // rndv size
  auto sbuf = p0.allocDevice(static_cast<std::size_t>(type->extent()));
  auto rbuf = p4.allocDevice(static_cast<std::size_t>(type->extent()));
  const std::size_t base0 = p0.gpu().memory().bytesInUse();
  const std::size_t base4 = p4.gpu().memory().bytesInUse();

  w.eng.spawn([](Proc& p, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto req = co_await p.isend(b, t, 1, 4, i);
      co_await p.wait(req);
    }
  }(p0, sbuf, type));
  w.eng.spawn([](Proc& p, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto req = co_await p.irecv(b, t, 1, 0, i);
      co_await p.wait(req);
    }
  }(p4, rbuf, type));
  w.eng.run();
  // All pack/unpack staging buffers must be returned to the arena.
  EXPECT_EQ(p0.gpu().memory().bytesInUse(), base0);
  EXPECT_EQ(p4.gpu().memory().bytesInUse(), base4);
}

TEST(Rput, DerivedTypeRendezvousBothDirections) {
  RuntimeConfig cfg;
  cfg.rendezvous = Protocol::RPut;
  World w(cfg);
  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  auto type = Datatype::vector(512, 8, 24, Datatype::float64());  // 32 KiB
  const auto region = static_cast<std::size_t>(type->extent());

  auto s0 = p0.allocDevice(region);
  auto r0 = p0.allocDevice(region);
  auto s4 = p4.allocDevice(region);
  auto r4 = p4.allocDevice(region);
  Rng rng(17);
  for (auto& b : s0.bytes) b = static_cast<std::byte>(rng.below(256));
  for (auto& b : s4.bytes) b = static_cast<std::byte>(rng.below(256));

  auto body = [](Proc& p, gpu::MemSpan send, gpu::MemSpan recv,
                 ddt::DatatypePtr t, int peer) -> sim::Task<void> {
    auto rr = co_await p.irecv(recv, t, 1, peer, 0);
    auto sr = co_await p.isend(send, t, 1, peer, 0);
    std::vector<RequestPtr> reqs{rr, sr};
    co_await p.waitall(std::move(reqs));
  };
  w.eng.spawn(body(p0, s0, r0, type, 4));
  w.eng.spawn(body(p4, s4, r4, type, 0));
  w.eng.run();
  ASSERT_EQ(w.eng.unfinishedTasks(), 0u);

  const auto layout = ddt::flatten(type, 1);
  for (const auto& seg : layout.materialize()) {
    ASSERT_EQ(std::memcmp(r4.bytes.data() + seg.offset,
                          s0.bytes.data() + seg.offset, seg.len),
              0);
    ASSERT_EQ(std::memcmp(r0.bytes.data() + seg.offset,
                          s4.bytes.data() + seg.offset, seg.len),
              0);
  }
}

TEST(DirectIpcFallback, EngineWithoutDirectUsesPackPath) {
  RuntimeConfig cfg;
  cfg.scheme = schemes::Scheme::GpuSync;  // no DirectIPC support
  cfg.enable_direct_ipc = true;
  World w(cfg, hw::lassen(), 1);
  auto& p0 = w.rt.proc(0);
  auto& p1 = w.rt.proc(1);
  auto type = Datatype::vector(64, 4, 12, Datatype::float64());
  const auto region = static_cast<std::size_t>(type->extent());
  auto sbuf = p0.allocDevice(region);
  auto rbuf = p1.allocDevice(region);
  Rng rng(23);
  for (auto& b : sbuf.bytes) b = static_cast<std::byte>(rng.below(256));

  w.eng.spawn([](Proc& p, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
    auto req = co_await p.isend(b, t, 1, 1, 0);
    co_await p.wait(req);
  }(p0, sbuf, type));
  w.eng.spawn([](Proc& p, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
    auto req = co_await p.irecv(b, t, 1, 0, 0);
    co_await p.wait(req);
  }(p1, rbuf, type));
  w.eng.run();

  const auto layout = ddt::flatten(type, 1);
  for (const auto& seg : layout.materialize()) {
    ASSERT_EQ(std::memcmp(rbuf.bytes.data() + seg.offset,
                          sbuf.bytes.data() + seg.offset, seg.len),
              0);
  }
}

TEST(AllToAll, EightRanksExchangeUniquePayloads) {
  RuntimeConfig cfg;
  cfg.scheme = schemes::Scheme::Proposed;
  World w(cfg);
  const int n = w.rt.worldSize();
  ASSERT_EQ(n, 8);
  constexpr std::size_t kBytes = 2048;

  // buf[r][peer]: rank r's send and recv buffers for each peer.
  std::vector<std::vector<gpu::MemSpan>> sbuf(n), rbuf(n);
  for (int r = 0; r < n; ++r) {
    for (int peer = 0; peer < n; ++peer) {
      auto s = w.rt.proc(r).allocDevice(kBytes);
      std::memset(s.bytes.data(), r * 16 + peer, kBytes);
      sbuf[r].push_back(s);
      rbuf[r].push_back(w.rt.proc(r).allocDevice(kBytes));
    }
  }

  for (int r = 0; r < n; ++r) {
    w.eng.spawn([](Proc& p, std::vector<gpu::MemSpan>& sends,
                   std::vector<gpu::MemSpan>& recvs, int world) -> sim::Task<void> {
      std::vector<RequestPtr> reqs;
      for (int peer = 0; peer < world; ++peer) {
        if (peer == p.rank()) continue;
        reqs.push_back(
            co_await p.irecv(recvs[peer], Datatype::byte(), kBytes, peer, 0));
        reqs.push_back(
            co_await p.isend(sends[peer], Datatype::byte(), kBytes, peer, 0));
      }
      co_await p.waitall(std::move(reqs));
    }(w.rt.proc(r), sbuf[r], rbuf[r], n));
  }
  w.eng.run();
  ASSERT_EQ(w.eng.unfinishedTasks(), 0u);

  for (int r = 0; r < n; ++r) {
    for (int peer = 0; peer < n; ++peer) {
      if (peer == r) continue;
      EXPECT_EQ(rbuf[r][peer].bytes[0],
                static_cast<std::byte>(peer * 16 + r))
          << "rank " << r << " from " << peer;
    }
  }
}

TEST(EagerBoundary, MessagesEitherSideOfThresholdDeliver) {
  World w;
  const std::size_t threshold = w.cluster.machine().eager_threshold;
  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  for (const std::size_t bytes :
       {threshold - 1, threshold, threshold + 1, 4 * threshold}) {
    auto sbuf = p0.allocDevice(bytes);
    auto rbuf = p4.allocDevice(bytes);
    std::memset(sbuf.bytes.data(), static_cast<int>(bytes % 251), bytes);
    std::memset(rbuf.bytes.data(), 0, bytes);
    w.eng.spawn([](Proc& p, gpu::MemSpan b, std::size_t n) -> sim::Task<void> {
      auto req = co_await p.isend(b, Datatype::byte(), n, 4, 5);
      co_await p.wait(req);
    }(p0, sbuf, bytes));
    w.eng.spawn([](Proc& p, gpu::MemSpan b, std::size_t n) -> sim::Task<void> {
      auto req = co_await p.irecv(b, Datatype::byte(), n, 0, 5);
      co_await p.wait(req);
    }(p4, rbuf, bytes));
    w.eng.run();
    EXPECT_EQ(std::memcmp(rbuf.bytes.data(), sbuf.bytes.data(), bytes), 0)
        << bytes;
    p0.freeDevice(sbuf);
    p4.freeDevice(rbuf);
  }
}

TEST(Aggregate, RuntimeBreakdownSumsEngines) {
  RuntimeConfig cfg;
  cfg.scheme = schemes::Scheme::GpuSync;
  World w(cfg);
  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  auto type = Datatype::vector(128, 4, 12, Datatype::float64());
  auto sbuf = p0.allocDevice(static_cast<std::size_t>(type->extent()));
  auto rbuf = p4.allocDevice(static_cast<std::size_t>(type->extent()));

  w.eng.spawn([](Proc& p, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
    auto req = co_await p.isend(b, t, 1, 4, 0);
    co_await p.wait(req);
  }(p0, sbuf, type));
  w.eng.spawn([](Proc& p, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
    auto req = co_await p.irecv(b, t, 1, 0, 0);
    co_await p.wait(req);
  }(p4, rbuf, type));
  w.eng.run();

  const auto total = w.rt.aggregateBreakdown();
  EXPECT_EQ(total.launching, p0.ddtEngine().breakdown().launching +
                                 p4.ddtEngine().breakdown().launching);
  EXPECT_GT(total.launching, 0u);
}

}  // namespace
}  // namespace dkf::mpi

namespace dkf::mpi {
namespace {

TEST(AnySource, ReceivesFromWhoeverSendsFirst) {
  World w;
  auto& p4 = w.rt.proc(4);
  auto rbuf1 = p4.allocDevice(128);
  auto rbuf2 = p4.allocDevice(128);

  for (int sender : {0, 1}) {
    auto& p = w.rt.proc(sender);
    auto sbuf = p.allocDevice(128);
    std::memset(sbuf.bytes.data(), 0x50 + sender, 128);
    w.eng.spawn([](Proc& proc, gpu::MemSpan b, int delay_us) -> sim::Task<void> {
      co_await proc.engine().delay(us(static_cast<std::uint64_t>(delay_us)));
      auto req = co_await proc.isend(b, ddt::Datatype::byte(), 128, 4, 7);
      co_await proc.wait(req);
    }(p, sbuf, sender == 0 ? 1 : 100));
  }
  w.eng.spawn([](Proc& p, gpu::MemSpan a, gpu::MemSpan b) -> sim::Task<void> {
    auto r1 = co_await p.irecv(a, ddt::Datatype::byte(), 128, kAnySource, 7);
    auto r2 = co_await p.irecv(b, ddt::Datatype::byte(), 128, kAnySource, 7);
    std::vector<RequestPtr> reqs{r1, r2};
    co_await p.waitall(std::move(reqs));
  }(p4, rbuf1, rbuf2));
  w.eng.run();
  ASSERT_EQ(w.eng.unfinishedTasks(), 0u);
  // Rank 0 sends ~99 us before rank 1: first posted recv gets rank 0's data.
  EXPECT_EQ(rbuf1.bytes[0], std::byte{0x50});
  EXPECT_EQ(rbuf2.bytes[0], std::byte{0x51});
}

TEST(AnySource, WithAnyTagMatchesAnything) {
  World w;
  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  auto sbuf = p0.allocDevice(64);
  auto rbuf = p4.allocDevice(64);
  std::memset(sbuf.bytes.data(), 0x77, 64);

  w.eng.spawn([](Proc& p, gpu::MemSpan b) -> sim::Task<void> {
    auto req = co_await p.isend(b, ddt::Datatype::byte(), 64, 4, 31337);
    co_await p.wait(req);
  }(p0, sbuf));
  w.eng.spawn([](Proc& p, gpu::MemSpan b) -> sim::Task<void> {
    auto req =
        co_await p.irecv(b, ddt::Datatype::byte(), 64, kAnySource, kAnyTag);
    co_await p.wait(req);
  }(p4, rbuf));
  w.eng.run();
  EXPECT_EQ(rbuf.bytes[63], std::byte{0x77});
}

}  // namespace
}  // namespace dkf::mpi
