// GPU device model: kernel timing, fused per-op completion, streams, events,
// copy engine routing, and data correctness of device-side operations.
#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "common/check.hpp"
#include "ddt/datatype.hpp"
#include "gpu/gpu.hpp"
#include "hw/machines.hpp"

namespace dkf::gpu {
namespace {

class GpuDeviceTest : public ::testing::Test {
 protected:
  GpuDeviceTest() : machine_(hw::lassen()), gpu_(eng_, machine_.node, 0) {}

  ddt::LayoutPtr contiguousLayout(std::size_t bytes) {
    return std::make_shared<const ddt::Layout>(
        ddt::flatten(ddt::Datatype::contiguous(bytes, ddt::Datatype::byte()), 1));
  }

  ddt::LayoutPtr stridedLayout(std::size_t blocks, std::size_t blocklen,
                               std::size_t stride) {
    return std::make_shared<const ddt::Layout>(ddt::flatten(
        ddt::Datatype::vector(blocks, blocklen, static_cast<std::int64_t>(stride),
                              ddt::Datatype::byte()),
        1));
  }

  sim::Engine eng_;
  hw::MachineSpec machine_;
  Gpu gpu_;
};

TEST_F(GpuDeviceTest, PackKernelMovesBytesAtCompletion) {
  auto layout = stridedLayout(4, 8, 32);
  auto origin = gpu_.memory().allocate(256);
  auto packed = gpu_.memory().allocate(layout->size());
  for (std::size_t i = 0; i < origin.size(); ++i)
    origin.bytes[i] = static_cast<std::byte>(i);

  bool completed = false;
  Gpu::Op op{Gpu::Op::Kind::Pack, layout, nullptr, origin.bytes, packed.bytes,
             [&] { completed = true; }};
  auto handle = gpu_.launchKernel(0, std::move(op));
  EXPECT_FALSE(completed);
  EXPECT_GT(handle.end, handle.start);
  eng_.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(eng_.now(), handle.end);
  // First segment: bytes 0..7; second: 32..39.
  EXPECT_EQ(packed.bytes[8], static_cast<std::byte>(32));
}

TEST_F(GpuDeviceTest, UnpackKernelScatters) {
  auto layout = stridedLayout(2, 4, 16);
  auto packed = gpu_.memory().allocate(8);
  auto origin = gpu_.memory().allocate(64);
  for (std::size_t i = 0; i < 8; ++i)
    packed.bytes[i] = static_cast<std::byte>(0x40 + i);
  Gpu::Op op{Gpu::Op::Kind::Unpack, layout, nullptr, packed.bytes,
             origin.bytes, nullptr};
  gpu_.launchKernel(0, std::move(op));
  eng_.run();
  EXPECT_EQ(origin.bytes[16], static_cast<std::byte>(0x44));
}

TEST_F(GpuDeviceTest, FusedOpsCompleteIndividuallyBeforeKernelEnd) {
  // One small op and one large op fused: the small op must complete at an
  // earlier virtual time than the big one (per-wave completion).
  auto small_layout = contiguousLayout(1024);
  auto big_layout = contiguousLayout(32 * 1024 * 1024);
  auto s_src = gpu_.memory().allocate(1024);
  auto s_dst = gpu_.memory().allocate(1024);
  auto b_src = gpu_.memory().allocate(32 * 1024 * 1024);
  auto b_dst = gpu_.memory().allocate(32 * 1024 * 1024);

  TimeNs small_done = 0, big_done = 0;
  std::vector<Gpu::Op> ops;
  ops.push_back(Gpu::Op{Gpu::Op::Kind::Pack, small_layout, nullptr,
                        s_src.bytes, s_dst.bytes,
                        [&] { small_done = eng_.now(); }});
  ops.push_back(Gpu::Op{Gpu::Op::Kind::Pack, big_layout, nullptr, b_src.bytes,
                        b_dst.bytes, [&] { big_done = eng_.now(); }});
  auto handle = gpu_.launchKernel(0, std::move(ops));
  eng_.run();
  EXPECT_GT(handle.waves, 0u);
  EXPECT_LT(small_done, big_done);
  EXPECT_EQ(big_done, handle.end);
}

TEST_F(GpuDeviceTest, FusedKernelCostsOneLaunchNotN) {
  // GPU-side time of a fused kernel over N small ops must be far below N
  // separate kernels' GPU-side time (N-1 fixed costs saved) — and the CPU
  // side saves (N-1) launch overheads on top (accounted by schemes).
  constexpr int kN = 16;
  auto layout = contiguousLayout(2048);
  std::vector<MemSpan> srcs, dsts;
  for (int i = 0; i < kN; ++i) {
    srcs.push_back(gpu_.memory().allocate(2048));
    dsts.push_back(gpu_.memory().allocate(2048));
  }

  std::vector<Gpu::Op> fused;
  for (int i = 0; i < kN; ++i) {
    fused.push_back(Gpu::Op{Gpu::Op::Kind::Pack, layout, nullptr,
                            srcs[i].bytes, dsts[i].bytes, nullptr});
  }
  auto fused_handle = gpu_.launchKernel(0, std::move(fused));
  const DurationNs fused_time = fused_handle.end - fused_handle.start;

  DurationNs serial_time = 0;
  for (int i = 0; i < kN; ++i) {
    Gpu::Op op{Gpu::Op::Kind::Pack, layout, nullptr, srcs[i].bytes,
               dsts[i].bytes, nullptr};
    auto h = gpu_.launchKernel(0, std::move(op));
    serial_time += h.end - h.start;
  }
  eng_.run();
  EXPECT_LT(fused_time * 4, serial_time);
}

TEST_F(GpuDeviceTest, SparseLayoutSlowerThanDenseSameBytes) {
  const std::size_t bytes = 1 << 20;
  auto dense = contiguousLayout(bytes);
  auto sparse = stridedLayout(bytes / 64, 64, 256);  // 64B runs
  ASSERT_EQ(dense->size(), sparse->size());
  auto src = gpu_.memory().allocate(4 * bytes);
  auto dst = gpu_.memory().allocate(bytes);

  auto h_dense = gpu_.launchKernel(
      0, Gpu::Op{Gpu::Op::Kind::Pack, dense, nullptr, src.bytes, dst.bytes,
                 nullptr});
  auto h_sparse = gpu_.launchKernel(
      0, Gpu::Op{Gpu::Op::Kind::Pack, sparse, nullptr, src.bytes, dst.bytes,
                 nullptr});
  eng_.run();
  EXPECT_GT(h_sparse.end - h_sparse.start, (h_dense.end - h_dense.start) * 4);
}

TEST_F(GpuDeviceTest, StreamsSerializeKernels) {
  auto layout = contiguousLayout(1 << 20);
  auto src = gpu_.memory().allocate(1 << 20);
  auto dst = gpu_.memory().allocate(1 << 20);
  Gpu::Op op{Gpu::Op::Kind::Pack, layout, nullptr, src.bytes, dst.bytes,
             nullptr};
  auto h1 = gpu_.launchKernel(0, op.clone());
  auto h2 = gpu_.launchKernel(0, op.clone());
  EXPECT_GE(h2.start, h1.end);
  // A different stream starts independently.
  auto s2 = gpu_.createStream();
  auto h3 = gpu_.launchKernel(s2, std::move(op));
  EXPECT_LT(h3.start, h2.end);
  eng_.run();
}

TEST_F(GpuDeviceTest, EventRecordQuerySynchronize) {
  auto layout = contiguousLayout(1 << 22);
  auto src = gpu_.memory().allocate(1 << 22);
  auto dst = gpu_.memory().allocate(1 << 22);
  auto h = gpu_.launchKernel(
      0, Gpu::Op{Gpu::Op::Kind::Pack, layout, nullptr, src.bytes, dst.bytes,
                 nullptr});
  auto ev = gpu_.createEvent();
  gpu_.eventRecord(ev, 0);
  EXPECT_FALSE(gpu_.eventQuery(ev));

  TimeNs woke_at = 0;
  eng_.spawn([](sim::Engine& eng, Gpu& gpu, Gpu::EventId e,
                TimeNs& woke) -> sim::Task<void> {
    co_await gpu.eventSynchronize(e);
    woke = eng.now();
  }(eng_, gpu_, ev, woke_at));
  eng_.run();
  EXPECT_EQ(woke_at, h.end);
  EXPECT_TRUE(gpu_.eventQuery(ev));
}

TEST_F(GpuDeviceTest, StreamSynchronizeWaitsForQueuedWork) {
  auto layout = contiguousLayout(1 << 22);
  auto src = gpu_.memory().allocate(1 << 22);
  auto dst = gpu_.memory().allocate(1 << 22);
  auto h = gpu_.launchKernel(
      0, Gpu::Op{Gpu::Op::Kind::Pack, layout, nullptr, src.bytes, dst.bytes,
                 nullptr});
  TimeNs woke_at = 0;
  eng_.spawn([](sim::Engine& eng, Gpu& gpu, TimeNs& woke) -> sim::Task<void> {
    co_await gpu.streamSynchronize(0);
    woke = eng.now();
  }(eng_, gpu_, woke_at));
  eng_.run();
  EXPECT_EQ(woke_at, h.end);
  EXPECT_TRUE(gpu_.streamIdle(0));
}

TEST_F(GpuDeviceTest, MemcpyRoutesAndCopies) {
  std::vector<std::byte> host(4096, std::byte{0x11});
  auto dev = gpu_.memory().allocate(4096);
  auto h2d = gpu_.memcpyAsync(0, dev, MemSpan::host(host));
  eng_.run();
  EXPECT_EQ(dev.bytes[100], std::byte{0x11});

  // D2H goes back.
  std::vector<std::byte> host2(4096);
  dev.bytes[7] = std::byte{0x77};
  gpu_.memcpyAsync(0, MemSpan::host(host2), dev);
  eng_.run();
  EXPECT_EQ(host2[7], std::byte{0x77});
  EXPECT_GT(h2d.end, 0u);
  EXPECT_EQ(gpu_.copiesIssued(), 2u);
}

TEST_F(GpuDeviceTest, PeerCopySlowerLinkThanLocal) {
  Gpu peer(eng_, machine_.node, 1);
  auto a = gpu_.memory().allocate(1 << 24);
  auto b = peer.memory().allocate(1 << 24);
  auto local_dst = gpu_.memory().allocate(1 << 24);

  const TimeNs t0 = eng_.now();
  auto local = gpu_.memcpyAsync(0, local_dst, a);
  auto s2 = gpu_.createStream();
  auto remote = gpu_.memcpyAsync(s2, b, a);
  eng_.run();
  // HBM/2 (450 GB/s) local vs 75 GB/s NVLink peer.
  EXPECT_LT(local.end - t0, remote.end - t0);
}

TEST_F(GpuDeviceTest, StridedCopyMovesBetweenLayouts) {
  auto src_layout = stridedLayout(4, 16, 64);
  auto dst_layout = stridedLayout(8, 8, 32);
  ASSERT_EQ(src_layout->size(), dst_layout->size());
  auto src = gpu_.memory().allocate(512);
  auto dst = gpu_.memory().allocate(512);
  for (std::size_t i = 0; i < 512; ++i)
    src.bytes[i] = static_cast<std::byte>(i % 251);
  gpu_.launchKernel(0, Gpu::Op{Gpu::Op::Kind::StridedCopy, src_layout,
                               dst_layout, src.bytes, dst.bytes, nullptr});
  eng_.run();
  // Spot-check: 9th packed byte (index 8) comes from src offset 64+? No —
  // src runs: [0,16),[64,80),...; dst runs: [0,8),[32,40),...
  // Packed stream byte 8 lands at dst offset 32 and comes from src offset 8.
  EXPECT_EQ(dst.bytes[32], src.bytes[8]);
}

TEST_F(GpuDeviceTest, ZeroByteOpCompletesImmediately) {
  auto layout = contiguousLayout(0);
  bool completed = false;
  auto src = gpu_.memory().allocate(16);
  auto dst = gpu_.memory().allocate(16);
  gpu_.launchKernel(0, Gpu::Op{Gpu::Op::Kind::Pack, layout, nullptr,
                               src.bytes, dst.bytes,
                               [&] { completed = true; }});
  eng_.run();
  EXPECT_TRUE(completed);
}

}  // namespace
}  // namespace dkf::gpu

namespace dkf::gpu {
namespace {

TEST_F(GpuDeviceTest, SynchronizingUnrecordedEventThrows) {
  auto ev = gpu_.createEvent();
  EXPECT_FALSE(gpu_.eventQuery(ev));
  bool threw = false;
  eng_.spawn([](Gpu& g, Gpu::EventId e, bool& out) -> sim::Task<void> {
    try {
      co_await g.eventSynchronize(e);
    } catch (const CheckFailure&) {
      out = true;
    }
  }(gpu_, ev, threw));
  eng_.run();
  EXPECT_TRUE(threw);
}

TEST_F(GpuDeviceTest, MemcpyDestinationTooSmallThrows) {
  auto small = gpu_.memory().allocate(64);
  auto big = gpu_.memory().allocate(128);
  EXPECT_THROW(gpu_.memcpyAsync(0, small, big), CheckFailure);
}

TEST_F(GpuDeviceTest, InvalidStreamThrows) {
  auto layout = contiguousLayout(64);
  auto src = gpu_.memory().allocate(64);
  auto dst = gpu_.memory().allocate(64);
  Gpu::Op op{Gpu::Op::Kind::Pack, layout, nullptr, src.bytes, dst.bytes,
             nullptr};
  EXPECT_THROW(gpu_.launchKernel(999, std::move(op)), CheckFailure);
}

TEST_F(GpuDeviceTest, EmptyKernelThrows) {
  EXPECT_THROW(gpu_.launchKernel(0, std::vector<Gpu::Op>{}), CheckFailure);
}

TEST_F(GpuDeviceTest, BusyTimeAccumulates) {
  auto layout = contiguousLayout(1 << 20);
  auto src = gpu_.memory().allocate(1 << 20);
  auto dst = gpu_.memory().allocate(1 << 20);
  EXPECT_EQ(gpu_.busyTime(), 0u);
  auto h = gpu_.launchKernel(0, Gpu::Op{Gpu::Op::Kind::Pack, layout, nullptr,
                                        src.bytes, dst.bytes, nullptr});
  eng_.run();
  EXPECT_EQ(gpu_.busyTime(), h.end - h.start);
  EXPECT_EQ(gpu_.kernelsLaunched(), 1u);
}

}  // namespace
}  // namespace dkf::gpu
