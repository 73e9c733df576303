// Pack/unpack correctness: directed cases plus parameterized property sweeps
// over randomized layouts (round-trip identity, untouched-byte preservation,
// strided-copy equivalence).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "ddt/datatype.hpp"
#include "ddt/layout.hpp"
#include "ddt/pack.hpp"

namespace dkf::ddt {
namespace {

std::vector<std::byte> randomBytes(std::size_t n, Rng& rng) {
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.below(256));
  return v;
}

TEST(PackCpu, GathersSegmentsInOrder) {
  const std::array<std::size_t, 2> lens{2, 3};
  const std::array<std::int64_t, 2> displs{1, 5};
  auto t = Datatype::indexed(lens, displs, Datatype::byte());
  auto layout = flatten(t, 1);
  std::vector<std::byte> origin(16);
  std::iota(reinterpret_cast<unsigned char*>(origin.data()),
            reinterpret_cast<unsigned char*>(origin.data()) + origin.size(),
            0);
  std::vector<std::byte> packed(layout.size());
  EXPECT_EQ(packCpu(layout, origin, packed), 5u);
  const unsigned char expect[5] = {1, 2, 5, 6, 7};
  EXPECT_EQ(std::memcmp(packed.data(), expect, 5), 0);
}

TEST(UnpackCpu, ScattersSegmentsInOrder) {
  const std::array<std::size_t, 2> lens{2, 3};
  const std::array<std::int64_t, 2> displs{1, 5};
  auto t = Datatype::indexed(lens, displs, Datatype::byte());
  auto layout = flatten(t, 1);
  const unsigned char src[5] = {10, 11, 12, 13, 14};
  std::vector<std::byte> origin(16, std::byte{0xEE});
  EXPECT_EQ(unpackCpu(layout,
                      std::span(reinterpret_cast<const std::byte*>(src), 5),
                      origin),
            5u);
  EXPECT_EQ(static_cast<unsigned char>(origin[1]), 10);
  EXPECT_EQ(static_cast<unsigned char>(origin[6]), 13);
  // Holes untouched.
  EXPECT_EQ(origin[0], std::byte{0xEE});
  EXPECT_EQ(origin[3], std::byte{0xEE});
  EXPECT_EQ(origin[8], std::byte{0xEE});
}

TEST(PackCpu, BufferTooSmallThrows) {
  auto t = Datatype::contiguous(8, Datatype::byte());
  auto layout = flatten(t, 1);
  std::vector<std::byte> origin(8), packed(4);
  EXPECT_THROW(packCpu(layout, origin, packed), CheckFailure);
}

TEST(PackCpu, SegmentBeyondOriginThrows) {
  auto t = Datatype::contiguous(8, Datatype::byte());
  auto layout = flatten(t, 1);
  std::vector<std::byte> origin(4), packed(8);
  EXPECT_THROW(packCpu(layout, origin, packed), CheckFailure);
}

// A layout whose first run fits the buffer and whose later run does not
// must be rejected before any byte moves: the destination stays
// byte-identical on every path, with the bad layout on either side of a
// strided copy.
void expectRejectedUntouched(const Layout& bad, std::size_t buffer_bytes) {
  const Layout flat =
      flatten(Datatype::contiguous(bad.size(), Datatype::byte()), 1);
  const std::vector<std::byte> src_strided(buffer_bytes, std::byte{0x5A});
  const std::vector<std::byte> src_packed(bad.size(), std::byte{0x5A});
  const std::vector<std::byte> clean_strided(buffer_bytes, std::byte{0xEE});
  const std::vector<std::byte> clean_packed(bad.size(), std::byte{0xEE});

  auto packed = clean_packed;
  EXPECT_THROW(packCpu(bad, src_strided, packed), CheckFailure);
  EXPECT_EQ(packed, clean_packed);
  EXPECT_THROW(copyStrided(bad, src_strided, flat, packed), CheckFailure);
  EXPECT_EQ(packed, clean_packed);

  auto strided = clean_strided;
  EXPECT_THROW(unpackCpu(bad, src_packed, strided), CheckFailure);
  EXPECT_EQ(strided, clean_strided);
  EXPECT_THROW(copyStrided(flat, src_packed, bad, strided), CheckFailure);
  EXPECT_EQ(strided, clean_strided);
}

TEST(PackBounds, OverrunRejectedBeforeAnyByteMoves) {
  // Runs {0,2} and {10,2} over an 8-byte buffer: the first run fits.
  expectRejectedUntouched(Layout({{0, 2}, {10, 2}}, 12), 8);
}

TEST(PackBounds, NegativeOffsetRejectedBeforeAnyByteMoves) {
  expectRejectedUntouched(Layout({{-4, 2}, {2, 2}}, 8), 8);
}

TEST(CopyStrided, DifferentShapesSameSize) {
  // src: 4 blocks of 2 bytes; dst: 2 blocks of 4 bytes.
  const std::array<std::int64_t, 4> sdispls{0, 3, 6, 9};
  auto st = Datatype::indexedBlock(2, sdispls, Datatype::byte());
  const std::array<std::int64_t, 2> ddispls{2, 10};
  auto dt = Datatype::indexedBlock(4, ddispls, Datatype::byte());
  auto sl = flatten(st, 1);
  auto dl = flatten(dt, 1);
  ASSERT_EQ(sl.size(), dl.size());

  std::vector<std::byte> src(12);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::byte>(i);
  std::vector<std::byte> dst(16, std::byte{0});
  EXPECT_EQ(copyStrided(sl, src, dl, dst), 8u);

  // Equivalent pack->unpack path must agree byte-for-byte.
  std::vector<std::byte> staged(sl.size());
  packCpu(sl, src, staged);
  std::vector<std::byte> dst2(16, std::byte{0});
  unpackCpu(dl, staged, dst2);
  EXPECT_EQ(dst, dst2);
}

TEST(CopyStrided, SizeMismatchThrows) {
  auto a = flatten(Datatype::contiguous(4, Datatype::byte()), 1);
  auto b = flatten(Datatype::contiguous(5, Datatype::byte()), 1);
  std::vector<std::byte> src(8), dst(8);
  EXPECT_THROW(copyStrided(a, src, b, dst), CheckFailure);
}

// ---- Property sweep: random datatype trees round-trip exactly ----

struct SweepParam {
  std::uint64_t seed;
  std::size_t count;  // datatype count per operation
};

class PackRoundTrip : public ::testing::TestWithParam<SweepParam> {};

/// Build a random (possibly nested) datatype with bounded extent.
DatatypePtr randomType(Rng& rng, int depth) {
  const auto base = [&]() -> DatatypePtr {
    switch (rng.below(4)) {
      case 0: return Datatype::byte();
      case 1: return Datatype::int32();
      case 2: return Datatype::float64();
      default: return Datatype::complexDouble();
    }
  };
  if (depth <= 0) return base();
  switch (rng.below(5)) {
    case 0:
      return Datatype::contiguous(rng.range(1, 4), randomType(rng, depth - 1));
    case 1:
      return Datatype::vector(rng.range(1, 5), rng.range(1, 3),
                              static_cast<std::int64_t>(rng.range(3, 6)),
                              randomType(rng, depth - 1));
    case 2: {
      const std::size_t n = rng.range(1, 5);
      std::vector<std::size_t> lens(n);
      std::vector<std::int64_t> displs(n);
      std::int64_t cursor = 0;
      for (std::size_t i = 0; i < n; ++i) {
        lens[i] = rng.range(1, 3);
        displs[i] = cursor;
        cursor += static_cast<std::int64_t>(lens[i] + rng.range(0, 3));
      }
      return Datatype::indexed(lens, displs, randomType(rng, depth - 1));
    }
    case 3: {
      std::array<std::size_t, 2> sizes{rng.range(2, 6), rng.range(2, 6)};
      std::array<std::size_t, 2> subsizes{rng.range(1, sizes[0]),
                                          rng.range(1, sizes[1])};
      std::array<std::size_t, 2> starts{
          rng.range(0, sizes[0] - subsizes[0]),
          rng.range(0, sizes[1] - subsizes[1])};
      return Datatype::subarray(sizes, subsizes, starts, Datatype::Order::C,
                                randomType(rng, depth - 1));
    }
    default: {
      auto inner = randomType(rng, depth - 1);
      return Datatype::resized(
          0, inner->extent() + rng.range(0, 16), inner);
    }
  }
}

TEST_P(PackRoundTrip, PackUnpackIsIdentityOnLayoutBytes) {
  const auto param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 8; ++trial) {
    auto type = randomType(rng, 2);
    auto layout = flatten(type, param.count);
    ASSERT_GE(layout.minOffset(), 0);
    const auto span = static_cast<std::size_t>(layout.endOffset());
    auto origin = randomBytes(span + 8, rng);
    const auto original = origin;

    std::vector<std::byte> packed(layout.size(), std::byte{0});
    ASSERT_EQ(packCpu(layout, origin, packed), layout.size());

    // Clear the layout bytes, then unpack: origin must be fully restored.
    for (const Segment& s : layout.materialize()) {
      std::memset(origin.data() + s.offset, 0xA5, s.len);
    }
    ASSERT_EQ(unpackCpu(layout, packed, origin), layout.size());
    EXPECT_EQ(origin, original) << type->describe();
  }
}

TEST_P(PackRoundTrip, PackedBytesMatchSegmentWalk) {
  const auto param = GetParam();
  Rng rng(param.seed ^ 0xabcdef);
  auto type = randomType(rng, 2);
  auto layout = flatten(type, param.count);
  const auto span = static_cast<std::size_t>(layout.endOffset());
  auto origin = randomBytes(span + 1, rng);
  std::vector<std::byte> packed(layout.size());
  packCpu(layout, origin, packed);
  std::size_t pos = 0;
  for (const Segment& s : layout.materialize()) {
    for (std::size_t i = 0; i < s.len; ++i, ++pos) {
      ASSERT_EQ(packed[pos], origin[static_cast<std::size_t>(s.offset) + i]);
    }
  }
  EXPECT_EQ(pos, layout.size());
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedLayouts, PackRoundTrip,
    ::testing::Values(SweepParam{1, 1}, SweepParam{2, 2}, SweepParam{3, 3},
                      SweepParam{4, 5}, SweepParam{5, 8}, SweepParam{6, 13},
                      SweepParam{7, 16}, SweepParam{8, 32}),
    [](const ::testing::TestParamInfo<SweepParam>& pinfo) {
      return "seed" + std::to_string(pinfo.param.seed) + "_count" +
             std::to_string(pinfo.param.count);
    });

}  // namespace
}  // namespace dkf::ddt
