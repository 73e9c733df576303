// Device memory allocator: first-fit free list with coalescing, plus a
// randomized stress property (no overlap, full reclamation), and the arena
// contract: a fresh arena reads zero and costs the host only what is written.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "gpu/memory.hpp"
#include "hw/spec.hpp"

namespace dkf::gpu {
namespace {

/// Bytes of this process resident in RAM, from /proc/self/statm; nullopt
/// where that file cannot be read.
std::optional<std::int64_t> residentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size_pages = 0, resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return std::nullopt;
  return resident_pages * static_cast<std::int64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(DeviceMemory, AllocateAndTrackUsage) {
  DeviceMemory mem(1024, 0);
  auto a = mem.allocate(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_TRUE(a.onDevice());
  EXPECT_EQ(a.device, 0);
  EXPECT_EQ(mem.bytesInUse(), 100u);
  EXPECT_EQ(mem.liveAllocations(), 1u);
  mem.deallocate(a);
  EXPECT_EQ(mem.bytesInUse(), 0u);
  EXPECT_EQ(mem.liveAllocations(), 0u);
}

TEST(DeviceMemory, AlignmentRespected) {
  DeviceMemory mem(4096, 1);
  auto a = mem.allocate(3, 1);
  auto b = mem.allocate(64, 256);
  const auto base = reinterpret_cast<std::uintptr_t>(mem.arena().data());
  EXPECT_EQ((reinterpret_cast<std::uintptr_t>(b.bytes.data()) - base) % 256, 0u);
  mem.deallocate(a);
  mem.deallocate(b);
}

TEST(DeviceMemory, ExhaustionThrows) {
  DeviceMemory mem(256, 0);
  auto a = mem.allocate(200, 1);
  EXPECT_THROW(mem.allocate(100, 1), CheckFailure);
  mem.deallocate(a);
  EXPECT_NO_THROW(mem.allocate(256, 1));
}

TEST(DeviceMemory, FreshArenaReadsZero) {
  DeviceMemory small(1 << 20, 0);
  for (const std::byte b : small.arena()) ASSERT_EQ(b, std::byte{0});

  DeviceMemory full(hw::GpuSpec{}.arena_bytes, 1);
  const std::span<std::byte> arena = full.arena();
  EXPECT_EQ(arena.front(), std::byte{0});
  EXPECT_EQ(arena[arena.size() / 2], std::byte{0});
  EXPECT_EQ(arena.back(), std::byte{0});
}

TEST(DeviceMemory, LargeArenaCommitsOnlyWhatIsWritten) {
  const std::optional<std::int64_t> before = residentBytes();
  if (!before) GTEST_SKIP() << "/proc/self/statm is not readable";
  DeviceMemory mem(256u << 20, 0);
  const std::int64_t constructed = *residentBytes();
  EXPECT_LT(constructed - *before, std::int64_t{16} << 20)
      << "constructing the arena committed its pages";

  const MemSpan span = mem.allocate(8u << 20);
  std::memset(span.bytes.data(), 0x5A, span.size());
  const std::int64_t written = *residentBytes();
  EXPECT_GE(written - constructed, std::int64_t{4} << 20)
      << "writing 8 MiB did not commit its pages";
  EXPECT_EQ(span.bytes[span.size() - 1], std::byte{0x5A});
  mem.deallocate(span);
}

TEST(DeviceMemory, DoubleFreeThrows) {
  DeviceMemory mem(256, 0);
  auto a = mem.allocate(64, 1);
  mem.deallocate(a);
  EXPECT_THROW(mem.deallocate(a), CheckFailure);
}

TEST(DeviceMemory, ForeignSpanThrows) {
  DeviceMemory mem_a(256, 0), mem_b(256, 1);
  auto a = mem_a.allocate(64);
  EXPECT_THROW(mem_b.deallocate(a), CheckFailure);
  mem_a.deallocate(a);
}

TEST(DeviceMemory, CoalescingAllowsFullReuse) {
  DeviceMemory mem(1024, 0);
  auto a = mem.allocate(256, 1);
  auto b = mem.allocate(256, 1);
  auto c = mem.allocate(256, 1);
  // Free middle, then neighbors: the holes must merge back to one region.
  mem.deallocate(b);
  mem.deallocate(a);
  mem.deallocate(c);
  EXPECT_NO_THROW(mem.allocate(1024, 1));
}

TEST(DeviceMemory, SubspanViewsShareStorage) {
  DeviceMemory mem(1024, 0);
  auto a = mem.allocate(100);
  auto sub = a.subspan(10, 20);
  sub.bytes[0] = std::byte{0x5A};
  EXPECT_EQ(a.bytes[10], std::byte{0x5A});
  EXPECT_THROW(a.subspan(90, 20), CheckFailure);
  mem.deallocate(a);
}

TEST(DeviceMemoryProperty, RandomAllocFreeNeverOverlapsAndFullyReclaims) {
  Rng rng(123);
  DeviceMemory mem(1 << 20, 0);
  std::vector<MemSpan> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || (rng.chance(0.6) && mem.bytesFree() > (1 << 18))) {
      const std::size_t size = rng.range(1, 8192);
      const std::size_t align = std::size_t{1} << rng.range(0, 8);
      auto span = mem.allocate(size, align);
      // Check no overlap with any live allocation.
      for (const auto& other : live) {
        const auto* lo = span.bytes.data();
        const auto* hi = lo + span.size();
        const auto* olo = other.bytes.data();
        const auto* ohi = olo + other.size();
        ASSERT_TRUE(hi <= olo || ohi <= lo) << "overlapping allocation";
      }
      live.push_back(span);
    } else {
      const std::size_t victim = rng.below(live.size());
      mem.deallocate(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  for (const auto& span : live) mem.deallocate(span);
  EXPECT_EQ(mem.bytesInUse(), 0u);
  // After total reclamation the arena must be one block again.
  EXPECT_NO_THROW(mem.allocate(1 << 20, 1));
}

}  // namespace
}  // namespace dkf::gpu
