// Randomized equivalence testing of the count-compressed layout engine.
//
// Every property here is checked against a *naive shadow*: the seed
// implementation's semantics, re-derived independently — enumerate all
// count x blocks runs via forEachBlock(count), globally sort and coalesce,
// and move bytes one segment at a time. The compressed form must be
// indistinguishable from that shadow: identical segment lists, bit-identical
// statistics, and byte-identical pack/unpack/copyStrided results — including
// the ragged and non-periodic layouts that take the materializing fallback.
// Pack and unpack run the layout's compiled op list, so the directed inputs
// below also cover both op kinds at every fixed-size copy length.
#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "ddt/datatype.hpp"
#include "ddt/layout.hpp"
#include "ddt/pack.hpp"
#include "workloads/workloads.hpp"

namespace dkf::ddt {
namespace {

// ------------------------------------------------------------ the shadow ----

/// Seed-equivalent flatten: materialize every run, sort, coalesce.
std::vector<Segment> shadowFlatten(const DatatypePtr& type, std::size_t count) {
  std::vector<Segment> segs;
  type->forEachBlock(count, [&](std::int64_t offset, std::size_t len) {
    segs.push_back(Segment{offset, len});
  });
  std::sort(segs.begin(), segs.end(),
            [](const Segment& a, const Segment& b) {
              return a.offset < b.offset;
            });
  std::vector<Segment> merged;
  for (const Segment& s : segs) {
    if (s.len == 0) continue;
    if (!merged.empty() &&
        merged.back().offset + static_cast<std::int64_t>(merged.back().len) ==
            s.offset) {
      merged.back().len += s.len;
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

std::vector<std::byte> shadowPack(const std::vector<Segment>& segs,
                                  const std::vector<std::byte>& origin) {
  std::vector<std::byte> out;
  for (const Segment& s : segs) {
    const auto off = static_cast<std::size_t>(s.offset);
    out.insert(out.end(), origin.begin() + off, origin.begin() + off + s.len);
  }
  return out;
}

void shadowUnpack(const std::vector<Segment>& segs,
                  const std::vector<std::byte>& packed,
                  std::vector<std::byte>& origin) {
  std::size_t in = 0;
  for (const Segment& s : segs) {
    std::memcpy(origin.data() + s.offset, packed.data() + in, s.len);
    in += s.len;
  }
}

// ------------------------------------------------------ random datatypes ----

DatatypePtr randomPrimitive(std::mt19937& rng) {
  switch (rng() % 4) {
    case 0: return Datatype::byte();
    case 1: return Datatype::int32();
    case 2: return Datatype::float64();
    default: return Datatype::complexDouble();
  }
}

/// Build a random non-overlapping nested type. Displacements are generated
/// ascending with slack so elements never self-overlap; this mirrors real
/// MPI application types (which must be non-overlapping to be packable).
DatatypePtr randomType(std::mt19937& rng, int depth) {
  if (depth <= 0) return randomPrimitive(rng);
  auto sub = [&] { return randomType(rng, depth - 1); };
  switch (rng() % 6) {
    case 0:
      return Datatype::contiguous(1 + rng() % 3, sub());
    case 1: {
      const std::size_t bl = 1 + rng() % 3;
      return Datatype::vector(1 + rng() % 4, bl,
                              static_cast<std::int64_t>(bl + rng() % 3),
                              sub());
    }
    case 2: {
      auto old = sub();
      const std::size_t bl = 1 + rng() % 3;
      const auto stride_b = static_cast<std::int64_t>(
          bl * old->extent() + (rng() % 3) * old->extent());
      return Datatype::hvector(1 + rng() % 4, bl, stride_b, old);
    }
    case 3: {
      auto old = sub();
      const std::size_t n = 1 + rng() % 4;
      std::vector<std::size_t> lens(n);
      std::vector<std::int64_t> displs(n);
      std::int64_t at = 0;
      for (std::size_t i = 0; i < n; ++i) {
        lens[i] = 1 + rng() % 3;
        displs[i] = at;
        at += static_cast<std::int64_t>(lens[i]) + 1 + rng() % 3;
      }
      return Datatype::indexed(lens, displs, old);
    }
    case 4: {
      auto old = sub();
      const std::size_t bl = 1 + rng() % 2;
      std::vector<std::int64_t> displs(1 + rng() % 4);
      std::int64_t at = 0;
      for (auto& d : displs) {
        d = at;
        at += static_cast<std::int64_t>(bl) + 1 + rng() % 2;
      }
      return Datatype::indexedBlock(bl, displs, old);
    }
    default: {
      auto old = sub();
      const std::size_t rows = 2 + rng() % 3;
      const std::size_t cols = 3 + rng() % 3;
      const std::size_t sr = 1 + rng() % rows;
      const std::size_t sc = 1 + rng() % cols;
      const std::array<std::size_t, 2> sizes{rows, cols};
      const std::array<std::size_t, 2> subsizes{sr, sc};
      const std::array<std::size_t, 2> starts{rows - sr, cols - sc};
      return Datatype::subarray(sizes, subsizes, starts, Datatype::Order::C,
                                old);
    }
  }
}

void fillPattern(std::vector<std::byte>& buf, std::uint32_t seed) {
  std::mt19937 rng(seed);
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xff);
}

void expectEquivalent(const DatatypePtr& type, std::size_t count) {
  SCOPED_TRACE(type->describe() + " x " + std::to_string(count));
  const Layout layout = flatten(type, count);
  const std::vector<Segment> shadow = shadowFlatten(type, count);

  // Identical canonical run sequence.
  EXPECT_EQ(layout.materialize(), shadow);

  // Bit-identical statistics.
  std::size_t size = 0, minb = 0, maxb = 0;
  for (const Segment& s : shadow) {
    size += s.len;
    minb = minb == 0 ? s.len : std::min(minb, s.len);
    maxb = std::max(maxb, s.len);
  }
  EXPECT_EQ(layout.size(), size);
  EXPECT_EQ(layout.blockCount(), shadow.size());
  EXPECT_EQ(layout.minBlock(), minb);
  EXPECT_EQ(layout.maxBlock(), maxb);
  EXPECT_EQ(layout.extent(), count * type->extent());
  if (!shadow.empty()) {
    EXPECT_EQ(layout.minOffset(), shadow.front().offset);
    EXPECT_EQ(layout.endOffset(),
              shadow.back().offset +
                  static_cast<std::int64_t>(shadow.back().len));
  }
  const double mean =
      shadow.empty() ? 0.0
                     : static_cast<double>(size) /
                           static_cast<double>(shadow.size());
  EXPECT_DOUBLE_EQ(layout.meanBlock(), mean);
  const double density =
      layout.extent() == 0
          ? 1.0
          : static_cast<double>(size) / static_cast<double>(layout.extent());
  EXPECT_DOUBLE_EQ(layout.density(), density);

  // Byte-identical data plane (only meaningful for non-negative offsets).
  if (layout.minOffset() < 0 || layout.size() == 0) return;
  const auto origin_size = static_cast<std::size_t>(layout.endOffset());
  std::vector<std::byte> origin(origin_size);
  fillPattern(origin, 0xda7a + static_cast<std::uint32_t>(count));

  std::vector<std::byte> packed(layout.size());
  EXPECT_EQ(packCpu(layout, origin, packed), layout.size());
  EXPECT_EQ(packed, shadowPack(shadow, origin));

  std::vector<std::byte> unpacked(origin_size);
  std::vector<std::byte> shadow_unpacked(origin_size);
  EXPECT_EQ(unpackCpu(layout, packed, unpacked), layout.size());
  shadowUnpack(shadow, packed, shadow_unpacked);
  EXPECT_EQ(unpacked, shadow_unpacked);
}

// --------------------------------------------------------------- the fuzz ----

TEST(LayoutFuzz, CompressedMatchesShadowOnRandomTypes) {
  std::mt19937 rng(20200907);  // deterministic
  for (int trial = 0; trial < 60; ++trial) {
    auto type = randomType(rng, 1 + static_cast<int>(rng() % 3));
    if (type->size() == 0) continue;
    for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{7},
                                    std::size_t{16}}) {
      expectEquivalent(type, count);
    }
  }
}

TEST(LayoutFuzz, CopyStridedMatchesShadow) {
  std::mt19937 rng(77002);
  for (int trial = 0; trial < 20; ++trial) {
    auto src_t = randomType(rng, 2);
    auto dst_t = randomType(rng, 2);
    if (src_t->size() == 0 || dst_t->size() == 0) continue;
    // Scale counts so both sides carry the same number of bytes.
    const std::size_t bytes = src_t->size() * dst_t->size();
    const std::size_t src_count = bytes / src_t->size();
    const std::size_t dst_count = bytes / dst_t->size();
    const Layout src_l = flatten(src_t, src_count);
    const Layout dst_l = flatten(dst_t, dst_count);
    ASSERT_EQ(src_l.size(), dst_l.size());
    if (src_l.minOffset() < 0 || dst_l.minOffset() < 0) continue;

    std::vector<std::byte> src(static_cast<std::size_t>(src_l.endOffset()));
    fillPattern(src, 0x5eed + static_cast<std::uint32_t>(trial));
    std::vector<std::byte> dst(static_cast<std::size_t>(dst_l.endOffset()));
    std::vector<std::byte> dst_shadow = dst;

    EXPECT_EQ(copyStrided(src_l, src, dst_l, dst), src_l.size());

    // Shadow: pack src per segment, unpack into dst per segment.
    const auto packed = shadowPack(shadowFlatten(src_t, src_count), src);
    shadowUnpack(shadowFlatten(dst_t, dst_count), packed, dst_shadow);
    EXPECT_EQ(dst, dst_shadow);
  }
}

// ------------------------------------------------------- directed corners ----

TEST(LayoutFuzz, NonPeriodicOverhangFallback) {
  // indexedBlock runs at elements {0, 7} of byte, then resized to extent 3:
  // each element spans [0, 9) but repeats every 3 bytes, so consecutive
  // elements interleave — the non-periodic fallback must re-sort globally.
  const std::array<std::int64_t, 2> displs{0, 7};
  auto ragged = Datatype::resized(
      0, 3, Datatype::indexedBlock(2, displs, Datatype::byte()));
  ASSERT_EQ(ragged->extent(), 3u);
  expectEquivalent(ragged, 1);
  expectEquivalent(ragged, 2);  // runs {0,2},{3,2},{7,2},{10,2}

  const Layout two = flatten(ragged, 2);
  const std::vector<Segment> expected{
      {0, 2}, {3, 2}, {7, 2}, {10, 2}};
  EXPECT_EQ(two.materialize(), expected);

  // Three repetitions make element 0's run at 7 collide with element 2's run
  // at 6+... — actually overlap: element 0 covers [7,9), element 2 covers
  // [6,8). The layout is invalid and must be rejected, as the seed did.
  EXPECT_THROW(flatten(ragged, 3), dkf::CheckFailure);
}

TEST(LayoutFuzz, BoundaryCoalescingAcrossElements) {
  // vector(2, 2, 3, int32): element runs {0,8},{12,8} with extent 20... the
  // element's last run ends at 20 == extent, so consecutive elements coalesce
  // at every boundary exactly like the seed's global merge.
  auto t = Datatype::vector(2, 2, 3, Datatype::int32());
  ASSERT_EQ(t->extent(), 20u);
  for (std::size_t count : {2u, 3u, 5u, 17u}) expectEquivalent(t, count);
}

TEST(LayoutFuzz, RaggedLayoutsDegradeGracefully) {
  // Irregular indexed type: no arithmetic progression, all-ungrouped groups.
  const std::array<std::size_t, 4> lens{1, 3, 2, 5};
  const std::array<std::int64_t, 4> displs{0, 2, 9, 13};
  auto t = Datatype::indexed(lens, displs, Datatype::int32());
  for (std::size_t count : {1u, 2u, 4u, 9u}) expectEquivalent(t, count);
}

TEST(LayoutFuzz, PaperLayoutsAtBulkDimsMatchShadow) {
  // Every third dim of bulk_mixed's 16-64 range, its band centers
  // 22/34/46/58 included.
  for (std::size_t dim = 16; dim <= 64; dim += 3) {
    for (const workloads::Workload& wl : workloads::paperWorkloads(dim)) {
      for (const std::size_t count : {1u, 2u, 7u}) {
        expectEquivalent(wl.type, count);
      }
    }
  }
}

TEST(LayoutFuzz, EveryRunLengthMatchesShadow) {
  // Per byte run length: twelve runs at irregular gaps (two-run groups, one
  // offset table), then ten at a constant gap (one strided op).
  std::vector<std::size_t> lens;
  for (std::size_t len = 1; len <= 17; ++len) lens.push_back(len);
  for (const std::size_t len : {31u, 32u, 33u, 64u}) lens.push_back(len);
  for (const std::size_t len : lens) {
    std::vector<std::int64_t> displs;
    std::int64_t at = 0;
    for (std::size_t i = 0; i < 22; ++i) {
      displs.push_back(at);
      const std::size_t gap = i < 12 ? 1 + (i * 7) % 5 : 3;
      at += static_cast<std::int64_t>(len + gap);
    }
    auto t = Datatype::indexedBlock(len, displs, Datatype::byte());
    auto spaced = Datatype::resized(0, t->extent() + 5, t);
    for (const std::size_t count : {1u, 3u}) {
      expectEquivalent(t, count);  // boundary-coalescing repetition
      expectEquivalent(spaced, count);
    }
  }
}

TEST(LayoutFuzz, GroupsAroundStridedOpThresholdMatchShadow) {
  for (const std::size_t runs :
       {kStridedOpMinRuns - 1, kStridedOpMinRuns, kStridedOpMinRuns + 1}) {
    SCOPED_TRACE(runs);
    const PackOp::Kind expected = runs >= kStridedOpMinRuns
                                      ? PackOp::Kind::kStrided
                                      : PackOp::Kind::kTable;
    // One equally spaced group, padded so repetitions stay separate.
    auto group = Datatype::vector(runs, 1, 2, Datatype::int32());
    auto alone = Datatype::resized(0, group->extent() + 8, group);
    // Three such groups at strides of 2, 3 and 4 elements in one element,
    // padded the same way.
    std::vector<std::int64_t> displs;
    std::int64_t at = 0;
    for (std::int64_t stride = 2; stride <= 4; ++stride) {
      for (std::size_t j = 0; j < runs; ++j, at += stride) {
        displs.push_back(at);
      }
      at += 7;
    }
    auto packed3 = Datatype::indexedBlock(1, displs, Datatype::int32());
    auto three = Datatype::resized(0, packed3->extent() + 8, packed3);
    for (const std::size_t count : {1u, 5u}) {
      expectEquivalent(alone, count);
      expectEquivalent(three, count);
      for (const auto& type : {alone, three}) {
        const Layout layout = flatten(type, count);
        for (const PackOp& op : layout.bodyOps()) {
          if (op.len == 4) {
            EXPECT_EQ(op.kind, expected);
          }
        }
      }
    }
  }
}

TEST(LayoutFuzz, LongProgressionCompilesToOneOp) {
  // 4096 int32s 12 bytes apart, resized so element r+1 continues the
  // progression: one strided op, run bodyRepetitions() times.
  auto t = Datatype::resized(
      0, 4096 * 12, Datatype::vector(4096, 1, 3, Datatype::int32()));
  const Layout one = flatten(t, 1);
  const Layout many = flatten(t, 64);
  for (const Layout* l : {&one, &many}) {
    EXPECT_TRUE(l->headOps().empty());
    EXPECT_TRUE(l->tailOps().empty());
    ASSERT_EQ(l->bodyOps().size(), 1u);
    EXPECT_EQ(l->bodyOps()[0].kind, PackOp::Kind::kStrided);
    EXPECT_TRUE(l->opOffsets().empty());
  }
  EXPECT_EQ(one.compressedBytes(), many.compressedBytes());
  expectEquivalent(t, 1);
  expectEquivalent(t, 64);
}

TEST(LayoutFuzz, CompressedMemoryIsCountIndependent) {
  // The MILC-like nested vector: compressed size must not grow with count.
  auto inner = Datatype::vector(4, 2, 4, Datatype::complexDouble());
  auto outer = Datatype::vector(3, 1, 4, inner);
  const Layout small = flatten(outer, 4);
  const Layout big = flatten(outer, 1024);
  EXPECT_EQ(small.compressedBytes(), big.compressedBytes());
  EXPECT_EQ(small.groupCount(), big.groupCount());
  EXPECT_GT(big.blockCount(), 1000u);
  EXPECT_LT(big.groupCount() * sizeof(RunGroup),
            big.blockCount() * sizeof(Segment) / 100);
}

}  // namespace
}  // namespace dkf::ddt
