// End-to-end MPI runtime tests: protocol correctness (eager, RGET, RPUT,
// DirectIPC), data integrity for contiguous and derived-datatype transfers
// under every DDT-processing scheme, unexpected messages, explicit
// pack/unpack, barriers, and determinism.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ddt/pack.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/runtime.hpp"

namespace dkf::mpi {
namespace {

using ddt::Datatype;

void fillPattern(gpu::MemSpan span, std::uint64_t seed) {
  Rng rng(seed);
  for (auto& b : span.bytes) b = static_cast<std::byte>(rng.below(256));
}

struct World {
  World(hw::MachineSpec machine, std::size_t nodes, RuntimeConfig cfg = {})
      : cluster(eng, std::move(machine), nodes), rt(cluster, cfg) {}

  sim::Engine eng;
  hw::Cluster cluster;
  Runtime rt;
};

// ---- Contiguous transfers over each protocol ----

class ContigTransfer
    : public ::testing::TestWithParam<std::tuple<std::size_t, Protocol>> {};

TEST_P(ContigTransfer, DeliversExactBytesInterNode) {
  const auto [bytes, rndv] = GetParam();
  RuntimeConfig cfg;
  cfg.scheme = schemes::Scheme::Proposed;
  cfg.rendezvous = rndv;
  World w(hw::lassen(), 2, cfg);

  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);  // first GPU of node 1
  auto sbuf = p0.allocDevice(std::max<std::size_t>(bytes, 1));
  auto rbuf = p4.allocDevice(std::max<std::size_t>(bytes, 1));
  fillPattern(sbuf, 42);

  auto type = Datatype::byte();
  w.eng.spawn([](Proc& p, gpu::MemSpan buf, ddt::DatatypePtr t,
                 std::size_t n) -> sim::Task<void> {
    auto req = co_await p.isend(buf, t, n, 4, 7);
    co_await p.wait(req);
  }(p0, sbuf, type, bytes));
  w.eng.spawn([](Proc& p, gpu::MemSpan buf, ddt::DatatypePtr t,
                 std::size_t n) -> sim::Task<void> {
    auto req = co_await p.irecv(buf, t, n, 0, 7);
    co_await p.wait(req);
  }(p4, rbuf, type, bytes));
  w.eng.run();

  EXPECT_EQ(std::memcmp(rbuf.bytes.data(), sbuf.bytes.data(), bytes), 0);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndProtocols, ContigTransfer,
    ::testing::Combine(
        // 1 KiB is eager; 64 KiB / 1 MiB exercise rendezvous.
        ::testing::Values<std::size_t>(1024, 65536, 1 << 20),
        ::testing::Values(Protocol::RGet, Protocol::RPut)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, Protocol>>& i) {
      // Appended step by step: GCC 12 at -O3 flags the equivalent chain of
      // operator+ with a false -Wrestrict.
      std::string name = "b";
      name += std::to_string(std::get<0>(i.param));
      name += std::get<1>(i.param) == Protocol::RGet ? "_rget" : "_rput";
      return name;
    });

// ---- Derived-datatype transfers under every scheme ----

class SchemeTransfer : public ::testing::TestWithParam<schemes::Scheme> {};

TEST_P(SchemeTransfer, VectorColumnExchangeInterNode) {
  RuntimeConfig cfg;
  cfg.scheme = GetParam();
  World w(hw::lassen(), 2, cfg);

  // 256 x 256 double matrix; exchange 4 columns.
  constexpr std::size_t kRows = 256, kCols = 256, kNCols = 4;
  auto type = Datatype::vector(kRows, kNCols, kCols, Datatype::float64());
  const std::size_t matrix_bytes = kRows * kCols * 8;

  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  auto smat = p0.allocDevice(matrix_bytes);
  auto rmat = p4.allocDevice(matrix_bytes);
  fillPattern(smat, 7);
  std::memset(rmat.bytes.data(), 0, matrix_bytes);

  w.eng.spawn([](Proc& p, gpu::MemSpan buf, ddt::DatatypePtr t) -> sim::Task<void> {
    auto req = co_await p.isend(buf, t, 1, 4, 0);
    co_await p.wait(req);
  }(p0, smat, type));
  w.eng.spawn([](Proc& p, gpu::MemSpan buf, ddt::DatatypePtr t) -> sim::Task<void> {
    auto req = co_await p.irecv(buf, t, 1, 0, 0);
    co_await p.wait(req);
  }(p4, rmat, type));
  w.eng.run();

  // Validate against the host reference pack/unpack.
  const auto layout = ddt::flatten(type, 1);
  std::vector<std::byte> expect(matrix_bytes, std::byte{0});
  std::vector<std::byte> packed(layout.size());
  ddt::packCpu(layout, smat.bytes, packed);
  ddt::unpackCpu(layout, packed, expect);
  EXPECT_EQ(std::memcmp(rmat.bytes.data(), expect.data(), matrix_bytes), 0)
      << schemes::schemeName(GetParam());
}

TEST_P(SchemeTransfer, SparseIndexedExchangeInterNode) {
  RuntimeConfig cfg;
  cfg.scheme = GetParam();
  World w(hw::abci(), 2, cfg);

  // Sparse indexed type: 300 blocks of 2 doubles with gaps.
  constexpr std::size_t kBlocks = 300;
  std::vector<std::size_t> lens(kBlocks, 2);
  std::vector<std::int64_t> displs(kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i)
    displs[i] = static_cast<std::int64_t>(i * 5);
  auto type = Datatype::indexed(lens, displs, Datatype::float64());
  const std::size_t region = static_cast<std::size_t>(type->extent());

  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  auto sbuf = p0.allocDevice(region);
  auto rbuf = p4.allocDevice(region);
  fillPattern(sbuf, 99);
  std::memset(rbuf.bytes.data(), 0, region);

  w.eng.spawn([](Proc& p, gpu::MemSpan buf, ddt::DatatypePtr t) -> sim::Task<void> {
    auto req = co_await p.isend(buf, t, 1, 4, 3);
    co_await p.wait(req);
  }(p0, sbuf, type));
  w.eng.spawn([](Proc& p, gpu::MemSpan buf, ddt::DatatypePtr t) -> sim::Task<void> {
    auto req = co_await p.irecv(buf, t, 1, 0, 3);
    co_await p.wait(req);
  }(p4, rbuf, type));
  w.eng.run();

  const auto layout = ddt::flatten(type, 1);
  for (const auto& seg : layout.materialize()) {
    ASSERT_EQ(std::memcmp(rbuf.bytes.data() + seg.offset,
                          sbuf.bytes.data() + seg.offset, seg.len),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeTransfer,
    ::testing::ValuesIn(std::begin(schemes::kAllSchemes),
                        std::end(schemes::kAllSchemes)),
    [](const ::testing::TestParamInfo<schemes::Scheme>& i) {
      std::string n{schemes::schemeName(i.param)};
      for (auto& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

// ---- DirectIPC (intra-node zero-copy) ----

TEST(DirectIpc, IntraNodeStridedExchangeSkipsPacking) {
  RuntimeConfig cfg;
  cfg.scheme = schemes::Scheme::Proposed;
  cfg.enable_direct_ipc = true;
  World w(hw::lassen(), 1, cfg);

  auto type = Datatype::vector(128, 2, 8, Datatype::float64());
  auto& p0 = w.rt.proc(0);
  auto& p1 = w.rt.proc(1);
  const auto region = static_cast<std::size_t>(type->extent());
  auto sbuf = p0.allocDevice(region);
  auto rbuf = p1.allocDevice(region);
  fillPattern(sbuf, 1);
  std::memset(rbuf.bytes.data(), 0, region);

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

// ---- Unexpected messages and tag matching ----

TEST(Matching, UnexpectedEagerIsBufferedUntilRecvPosted) {
  World w(hw::lassen(), 2, RuntimeConfig{});
  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  auto sbuf = p0.allocDevice(512);
  auto rbuf = p4.allocDevice(512);
  fillPattern(sbuf, 5);

  w.eng.spawn([](Proc& p, gpu::MemSpan b) -> sim::Task<void> {
    auto req = co_await p.isend(b, Datatype::byte(), 512, 4, 9);
    co_await p.wait(req);
  }(p0, sbuf));
  // Receiver posts long after the message has arrived.
  w.eng.spawn([](Proc& p, gpu::MemSpan b) -> sim::Task<void> {
    co_await p.engine().delay(ms(1));
    auto req = co_await p.irecv(b, Datatype::byte(), 512, 0, 9);
    co_await p.wait(req);
  }(p4, rbuf));
  w.eng.run();
  EXPECT_EQ(std::memcmp(rbuf.bytes.data(), sbuf.bytes.data(), 512), 0);
}

TEST(Matching, TagsSeparateMessageStreams) {
  World w(hw::lassen(), 2, RuntimeConfig{});
  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  auto a = p0.allocDevice(64);
  auto b = p0.allocDevice(64);
  auto ra = p4.allocDevice(64);
  auto rb = p4.allocDevice(64);
  std::memset(a.bytes.data(), 0xAA, 64);
  std::memset(b.bytes.data(), 0xBB, 64);

  w.eng.spawn([](Proc& p, gpu::MemSpan x, gpu::MemSpan y) -> sim::Task<void> {
    auto r1 = co_await p.isend(x, Datatype::byte(), 64, 4, 1);
    auto r2 = co_await p.isend(y, Datatype::byte(), 64, 4, 2);
    std::vector<RequestPtr> reqs{r1, r2};
    co_await p.waitall(std::move(reqs));
  }(p0, a, b));
  w.eng.spawn([](Proc& p, gpu::MemSpan x, gpu::MemSpan y) -> sim::Task<void> {
    // Post in reverse tag order: matching must be by tag, not arrival.
    auto r2 = co_await p.irecv(y, Datatype::byte(), 64, 0, 2);
    auto r1 = co_await p.irecv(x, Datatype::byte(), 64, 0, 1);
    std::vector<RequestPtr> reqs{r1, r2};
    co_await p.waitall(std::move(reqs));
  }(p4, ra, rb));
  w.eng.run();
  EXPECT_EQ(ra.bytes[0], std::byte{0xAA});
  EXPECT_EQ(rb.bytes[0], std::byte{0xBB});
}

TEST(Matching, AnyTagReceives) {
  World w(hw::lassen(), 2, RuntimeConfig{});
  auto& p0 = w.rt.proc(0);
  auto& p4 = w.rt.proc(4);
  auto sbuf = p0.allocDevice(128);
  auto rbuf = p4.allocDevice(128);
  std::memset(sbuf.bytes.data(), 0x5C, 128);

  w.eng.spawn([](Proc& p, gpu::MemSpan b) -> sim::Task<void> {
    auto req = co_await p.isend(b, Datatype::byte(), 128, 4, 1234);
    co_await p.wait(req);
  }(p0, sbuf));
  w.eng.spawn([](Proc& p, gpu::MemSpan b) -> sim::Task<void> {
    auto req = co_await p.irecv(b, Datatype::byte(), 128, 0, kAnyTag);
    co_await p.wait(req);
  }(p4, rbuf));
  w.eng.run();
  EXPECT_EQ(rbuf.bytes[127], std::byte{0x5C});
}

// Non-overtaking across protocols: a rendezvous RTS and a later eager
// message from the same sender, both with tag 7, wait unexpected. The
// first receive posted must get the first message, whether it names the
// tag or takes any tag.
TEST(Matching, UnexpectedRtsIsNotOvertakenByLaterEager) {
  constexpr std::size_t kBig = 64 << 10, kSmall = 1 << 10;
  for (const Protocol rndv : {Protocol::RGet, Protocol::RPut}) {
    for (const int recv_tag : {7, kAnyTag}) {
      SCOPED_TRACE(std::string(rndv == Protocol::RGet ? "RGet" : "RPut") +
                   " recv tag " + std::to_string(recv_tag));
      RuntimeConfig cfg;
      cfg.rendezvous = rndv;
      World w(hw::lassen(), 2, cfg);
      auto& p0 = w.rt.proc(0);
      auto& p4 = w.rt.proc(4);
      auto big = p0.allocDevice(kBig);
      auto small = p0.allocDevice(kSmall);
      auto r1 = p4.allocDevice(kBig);
      auto r2 = p4.allocDevice(kBig);
      fillPattern(big, 11);
      fillPattern(small, 12);

      w.eng.spawn([](Proc& p, gpu::MemSpan a, gpu::MemSpan b) -> sim::Task<void> {
        auto s1 = co_await p.isend(a, Datatype::byte(), kBig, 4, 7);
        auto s2 = co_await p.isend(b, Datatype::byte(), kSmall, 4, 7);
        std::vector<RequestPtr> reqs{s1, s2};
        co_await p.waitall(std::move(reqs));
      }(p0, big, small));
      w.eng.spawn([](Proc& p, gpu::MemSpan a, gpu::MemSpan b,
                     int tag) -> sim::Task<void> {
        co_await p.engine().delay(us(200));  // both arrive unexpected
        auto q1 = co_await p.irecv(a, Datatype::byte(), kBig, 0, tag);
        auto q2 = co_await p.irecv(b, Datatype::byte(), kBig, 0, tag);
        std::vector<RequestPtr> reqs{q1, q2};
        co_await p.waitall(std::move(reqs));
      }(p4, r1, r2, recv_tag));
      w.eng.run();

      EXPECT_EQ(w.eng.unfinishedTasks(), 0u);
      EXPECT_EQ(std::memcmp(r1.bytes.data(), big.bytes.data(), kBig), 0);
      EXPECT_EQ(std::memcmp(r2.bytes.data(), small.bytes.data(), kSmall), 0);
    }
  }
}

// An RTS parked in the unexpected queue keeps timing out at the sender.
// Its retransmissions must be dropped, not parked again: the next receive
// would match a stale copy of the first send in place of the second one.
TEST(Matching, RetransmittedRtsWhileUnexpectedIsDropped) {
  constexpr std::size_t kBytes = 64 << 10;
  for (const Protocol rndv : {Protocol::RGet, Protocol::RPut}) {
    SCOPED_TRACE(rndv == Protocol::RGet ? "RGet" : "RPut");
    RuntimeConfig cfg;
    cfg.rendezvous = rndv;
    cfg.reliability.enabled = true;
    cfg.reliability.base_timeout = us(20);
    World w(hw::lassen(), 2, cfg);
    auto& p0 = w.rt.proc(0);
    auto& p4 = w.rt.proc(4);
    auto s1 = p0.allocDevice(kBytes);
    auto s2 = p0.allocDevice(kBytes);
    auto r1 = p4.allocDevice(kBytes);
    auto r2 = p4.allocDevice(kBytes);
    fillPattern(s1, 21);
    fillPattern(s2, 22);

    w.eng.spawn([](Proc& p, gpu::MemSpan a, gpu::MemSpan b) -> sim::Task<void> {
      auto q1 = co_await p.isend(a, Datatype::byte(), kBytes, 4, 5);
      co_await p.wait(q1);
      auto q2 = co_await p.isend(b, Datatype::byte(), kBytes, 4, 5);
      co_await p.wait(q2);
    }(p0, s1, s2));
    w.eng.spawn([](Proc& p, gpu::MemSpan a, gpu::MemSpan b) -> sim::Task<void> {
      co_await p.engine().delay(us(300));  // several RTS timeouts pass
      auto q1 = co_await p.irecv(a, Datatype::byte(), kBytes, 0, 5);
      co_await p.wait(q1);
      auto q2 = co_await p.irecv(b, Datatype::byte(), kBytes, 0, 5);
      co_await p.wait(q2);
    }(p4, r1, r2));
    w.eng.run();

    EXPECT_EQ(w.eng.unfinishedTasks(), 0u);
    EXPECT_GT(p0.transport().retransmissions, 0u);
    EXPECT_EQ(std::memcmp(r1.bytes.data(), s1.bytes.data(), kBytes), 0);
    EXPECT_EQ(std::memcmp(r2.bytes.data(), s2.bytes.data(), kBytes), 0);
  }
}

// ---- Explicit pack/unpack (Algorithm 1 building blocks) ----

TEST(ExplicitPack, PackThenUnpackRoundTrips) {
  World w(hw::lassen(), 1, RuntimeConfig{});
  auto& p = w.rt.proc(0);
  auto type = Datatype::vector(16, 4, 8, Datatype::float64());
  const auto layout = ddt::flatten(type, 1);
  auto origin = p.allocDevice(static_cast<std::size_t>(type->extent()));
  auto packed = p.allocDevice(layout.size());
  auto restored = p.allocDevice(static_cast<std::size_t>(type->extent()));
  fillPattern(origin, 31);
  std::memset(restored.bytes.data(), 0, restored.size());

  w.eng.spawn([](Proc& proc, gpu::MemSpan o, gpu::MemSpan pk, gpu::MemSpan r,
                 ddt::DatatypePtr t) -> sim::Task<void> {
    co_await proc.pack(o, t, 1, pk);
    co_await proc.unpack(pk, r, t, 1);
  }(p, origin, packed, restored, type));
  w.eng.run();

  for (const auto& seg : layout.materialize()) {
    ASSERT_EQ(std::memcmp(restored.bytes.data() + seg.offset,
                          origin.bytes.data() + seg.offset, seg.len),
              0);
  }
}

// ---- Configuration rejected when the runtime is built ----

// A zero poll interval re-polls every wait at one virtual instant: time
// never advances, so not even the watchdog can stop the run.
TEST(RuntimeConfigCheck, RejectsZeroPollInterval) {
  sim::Engine eng;
  hw::Cluster cluster(eng, hw::lassen(), 2);
  RuntimeConfig cfg;
  cfg.poll_interval = 0;
  EXPECT_THROW(Runtime(cluster, cfg), CheckFailure);
}

// With reliability on, a zero base timeout re-sends on every pass until
// the retry limit wrongly blames the transport. Off, it is never read.
TEST(RuntimeConfigCheck, RejectsZeroBaseTimeoutWithReliability) {
  sim::Engine eng;
  hw::Cluster cluster(eng, hw::lassen(), 2);
  RuntimeConfig cfg;
  cfg.reliability.base_timeout = 0;
  EXPECT_NO_THROW(Runtime(cluster, cfg));
  cfg.reliability.enabled = true;
  EXPECT_THROW(Runtime(cluster, cfg), CheckFailure);
}

// ---- Buffer bounds ----

sim::Task<void> sendOne(Proc& p, gpu::MemSpan buf, ddt::DatatypePtr type,
                        int peer) {
  co_await p.wait(co_await p.isend(buf, type, 1, peer, 0));
}

sim::Task<void> recvOne(Proc& p, gpu::MemSpan buf, ddt::DatatypePtr type,
                        int peer) {
  co_await p.wait(co_await p.irecv(buf, type, 1, peer, 0));
}

// Regression: an eager contiguous delivery checked the payload only against
// the receive's (type, count), never against its buffer, so a 16-byte
// receive of a 1 KiB type wrote the rest into the next device allocation.
TEST(RequestBounds, ReceiveBufferShorterThanItsTypeFailsCheck) {
  World w(hw::lassen(), 2, RuntimeConfig{});
  constexpr std::size_t kBytes = 1024;
  auto sbuf = w.rt.proc(0).allocDevice(kBytes);
  auto short_buf = w.rt.proc(4).allocDevice(16);
  auto next = w.rt.proc(4).allocDevice(kBytes);
  fillPattern(sbuf, 7);
  std::memset(next.bytes.data(), 0x5A, kBytes);
  const auto type = Datatype::contiguous(kBytes, Datatype::byte());
  w.eng.spawn(sendOne(w.rt.proc(0), sbuf, type, 4));
  w.eng.spawn(recvOne(w.rt.proc(4), short_buf, type, 0));
  EXPECT_THROW(w.eng.run(), CheckFailure);
  for (const std::byte b : next.bytes) ASSERT_EQ(b, std::byte{0x5A});
}

// The check sits where every post builds its request: the single posts,
// the batch posts and the persistent inits.
TEST(RequestBounds, EveryPostChecksItsBuffer) {
  World w(hw::lassen(), 2, RuntimeConfig{});
  auto& p = w.rt.proc(0);
  const auto buf = p.allocDevice(64);
  const auto wide = Datatype::contiguous(128, Datatype::byte());
  const std::size_t lens[] = {4};
  const std::int64_t below_start[] = {-8};
  const auto below = Datatype::hindexed(lens, below_start, Datatype::byte());
  const auto fails = [&](sim::Task<void> post) {
    w.eng.spawn(std::move(post));
    EXPECT_THROW(w.eng.run(), CheckFailure);
  };
  fails([](Proc& q, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
    co_await q.isend(b, t, 1, 4, 0);
  }(p, buf, wide));
  fails([](Proc& q, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
    co_await q.irecv(b, t, 1, 4, 0);
  }(p, buf, below));
  fails([](Proc& q, std::vector<Proc::RecvSpec> specs) -> sim::Task<void> {
    co_await q.irecvBatch(std::move(specs));
  }(p, {Proc::RecvSpec{buf, wide, 1, 4, 0}}));
  fails([](Proc& q, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
    co_await q.recvInit(b, t, 1, 4, 0);
  }(p, buf, wide));
}

// ---- Barrier ----

TEST(Barrier, ReleasesAllRanksTogether) {
  World w(hw::lassen(), 2, RuntimeConfig{});
  std::vector<TimeNs> released(w.rt.worldSize(), 0);
  for (int r = 0; r < w.rt.worldSize(); ++r) {
    w.eng.spawn([](Proc& p, std::vector<TimeNs>& out) -> sim::Task<void> {
      co_await p.engine().delay(us(static_cast<std::uint64_t>(p.rank()) * 10));
      co_await p.barrier();
      out[static_cast<std::size_t>(p.rank())] = p.engine().now();
    }(w.rt.proc(r), released));
  }
  w.eng.run();
  const TimeNs slowest_arrival = us(10) * 7;
  for (auto t : released) EXPECT_GE(t, slowest_arrival);
}

// ---- Determinism across runs ----

TEST(Determinism, IdenticalRunsProduceIdenticalVirtualTimes) {
  auto runOnce = [] {
    RuntimeConfig cfg;
    cfg.scheme = schemes::Scheme::Proposed;
    World w(hw::lassen(), 2, cfg);
    auto type = Datatype::vector(64, 2, 8, Datatype::float64());
    auto& p0 = w.rt.proc(0);
    auto& p4 = w.rt.proc(4);
    auto sbuf = p0.allocDevice(static_cast<std::size_t>(type->extent()));
    auto rbuf = p4.allocDevice(static_cast<std::size_t>(type->extent()));
    fillPattern(sbuf, 3);

    TimeNs done_at = 0;
    w.eng.spawn([](Proc& p, gpu::MemSpan b, ddt::DatatypePtr t) -> sim::Task<void> {
      auto req = co_await p.isend(b, t, 1, 4, 0);
      co_await p.wait(req);
    }(p0, sbuf, type));
    w.eng.spawn([](Proc& p, gpu::MemSpan b, ddt::DatatypePtr t,
                   TimeNs& out) -> sim::Task<void> {
      auto req = co_await p.irecv(b, t, 1, 0, 0);
      co_await p.wait(req);
      out = p.engine().now();
    }(p4, rbuf, type, done_at));
    w.eng.run();
    return done_at;
  };
  const TimeNs a = runOnce();
  const TimeNs b = runOnce();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
}

// ---- Bulk bidirectional exchange, both directions at once ----

TEST(BulkExchange, SixteenBuffersEachWayWithFusion) {
  RuntimeConfig cfg;
  cfg.scheme = schemes::Scheme::Proposed;
  World w(hw::lassen(), 2, cfg);
  constexpr int kBuffers = 16;
  auto type = Datatype::vector(64, 2, 6, Datatype::float64());
  const auto region = static_cast<std::size_t>(type->extent());

  struct RankBufs {
    std::vector<gpu::MemSpan> send, recv;
  };
  std::array<RankBufs, 2> bufs;
  std::array<Proc*, 2> procs{&w.rt.proc(0), &w.rt.proc(4)};
  for (int side = 0; side < 2; ++side) {
    for (int i = 0; i < kBuffers; ++i) {
      auto s = procs[side]->allocDevice(region);
      auto r = procs[side]->allocDevice(region);
      fillPattern(s, static_cast<std::uint64_t>(side * 100 + i));
      std::memset(r.bytes.data(), 0, region);
      bufs[side].send.push_back(s);
      bufs[side].recv.push_back(r);
    }
  }

  for (int side = 0; side < 2; ++side) {
    const int peer = side == 0 ? 4 : 0;
    w.eng.spawn([](Proc& p, RankBufs& b, ddt::DatatypePtr t,
                   int peer_rank) -> sim::Task<void> {
      std::vector<RequestPtr> reqs;
      for (int i = 0; i < kBuffers; ++i) {
        reqs.push_back(co_await p.irecv(b.recv[i], t, 1, peer_rank, i));
        reqs.push_back(co_await p.isend(b.send[i], t, 1, peer_rank, i));
      }
      co_await p.waitall(std::move(reqs));
    }(*procs[side], bufs[side], type, peer));
  }
  w.eng.run();

  const auto layout = ddt::flatten(type, 1);
  for (int side = 0; side < 2; ++side) {
    const int other = 1 - side;
    for (int i = 0; i < kBuffers; ++i) {
      for (const auto& seg : layout.materialize()) {
        ASSERT_EQ(std::memcmp(
                      bufs[side].recv[i].bytes.data() + seg.offset,
                      bufs[other].send[i].bytes.data() + seg.offset, seg.len),
                  0)
            << "side " << side << " buffer " << i;
      }
    }
  }
}

}  // namespace
}  // namespace dkf::mpi
