#include "ddt/pack.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/check.hpp"

namespace dkf::ddt {

namespace {

/// The one bounds check of a pack, unpack or strided copy, made before any
/// byte moves: every run of `layout` lies inside the `span`-byte buffer.
void checkRunsWithin(const Layout& layout, std::size_t span,
                     const char* buffer) {
  DKF_CHECK_MSG(layout.minOffset() >= 0,
                "negative segment offset " << layout.minOffset() << " in "
                                           << buffer << " layout");
  DKF_CHECK_MSG(static_cast<std::size_t>(layout.endOffset()) <= span,
                "segments [" << layout.minOffset() << ", "
                             << layout.endOffset() << ") exceed " << buffer
                             << " size " << span);
}

/// Moves one run between the origin buffer and the packed stream: gathers
/// when the origin is read-only (pack), scatters otherwise (unpack). A
/// non-zero N fixes the length at compile time, so the copy becomes plain
/// loads and stores instead of a libc call.
template <std::size_t N, class Origin, class Packed>
inline void moveRun(Origin* origin, Packed* packed, std::size_t len) {
  if constexpr (std::is_const_v<Origin>) {
    std::memcpy(packed, origin, N != 0 ? N : len);
  } else {
    std::memcpy(origin, packed, N != 0 ? N : len);
  }
}

/// Runs every run of `op`, shifted by `shift` bytes, with the run length
/// fixed at N (0: the op's own length). Returns the advanced packed cursor.
template <std::size_t N, class Origin, class Packed>
Packed* runOp(const PackOp& op, const std::int64_t* offsets,
              std::int64_t shift, Origin* origin, Packed* packed) {
  const std::size_t len = N != 0 ? N : op.len;
  const std::size_t count = op.count;
  if (op.kind == PackOp::Kind::kTable) {
    const std::int64_t* at = offsets + op.base;
    for (std::size_t i = 0; i < count; ++i, packed += len) {
      moveRun<N>(origin + (at[i] + shift), packed, len);
    }
  } else {
    const std::int64_t stride = op.stride;
    std::int64_t off = op.base + shift;
    for (std::size_t i = 0; i < count; ++i, off += stride, packed += len) {
      moveRun<N>(origin + off, packed, len);
    }
  }
  return packed;
}

/// Switches on the run length once per op; the sparse layouts' 4- and
/// 8-byte runs and the other small powers of two get fixed-size copies.
template <class Origin, class Packed>
Packed* runOps(std::span<const PackOp> ops, const std::int64_t* offsets,
               std::int64_t shift, Origin* origin, Packed* packed) {
  for (const PackOp& op : ops) {
    switch (op.len) {
      case 1: packed = runOp<1>(op, offsets, shift, origin, packed); break;
      case 2: packed = runOp<2>(op, offsets, shift, origin, packed); break;
      case 4: packed = runOp<4>(op, offsets, shift, origin, packed); break;
      case 8: packed = runOp<8>(op, offsets, shift, origin, packed); break;
      case 16: packed = runOp<16>(op, offsets, shift, origin, packed); break;
      default: packed = runOp<0>(op, offsets, shift, origin, packed); break;
    }
  }
  return packed;
}

/// Executes the layout's compiled op list: head, body repeated, tail.
template <class Origin, class Packed>
std::size_t execute(const Layout& layout, Origin* origin, Packed* packed) {
  Packed* const start = packed;
  const std::int64_t* offsets = layout.opOffsets().data();
  packed = runOps(layout.headOps(), offsets, 0, origin, packed);
  for (std::size_t r = 0; r < layout.bodyRepetitions(); ++r) {
    const std::int64_t shift =
        static_cast<std::int64_t>(r) * layout.bodyStride();
    packed = runOps(layout.bodyOps(), offsets, shift, origin, packed);
  }
  packed = runOps(layout.tailOps(), offsets, 0, origin, packed);
  return static_cast<std::size_t>(packed - start);
}

}  // namespace

std::size_t packCpu(const Layout& layout, std::span<const std::byte> origin,
                    std::span<std::byte> packed) {
  DKF_CHECK_MSG(packed.size() >= layout.size(),
                "packed buffer too small: " << packed.size() << " < "
                                            << layout.size());
  checkRunsWithin(layout, origin.size(), "origin");
  return execute(layout, origin.data(), packed.data());
}

std::size_t unpackCpu(const Layout& layout, std::span<const std::byte> packed,
                      std::span<std::byte> origin) {
  DKF_CHECK_MSG(packed.size() >= layout.size(),
                "packed buffer too small: " << packed.size() << " < "
                                            << layout.size());
  checkRunsWithin(layout, origin.size(), "origin");
  return execute(layout, origin.data(), packed.data());
}

std::size_t copyStrided(const Layout& src_layout,
                        std::span<const std::byte> src,
                        const Layout& dst_layout, std::span<std::byte> dst) {
  DKF_CHECK_MSG(src_layout.size() == dst_layout.size(),
                "strided copy size mismatch: " << src_layout.size() << " vs "
                                               << dst_layout.size());
  checkRunsWithin(src_layout, src.size(), "source");
  checkRunsWithin(dst_layout, dst.size(), "destination");
  // Walk both compressed layouts in lockstep — two O(1)-state group cursors,
  // splitting runs on the shorter side; neither segment list exists.
  auto si = src_layout.runs();
  auto di = dst_layout.runs();
  std::size_t s_used = 0, d_used = 0, total = 0;
  while (!si.done() && !di.done()) {
    const std::size_t chunk = std::min(si.len() - s_used, di.len() - d_used);
    const auto s_off = static_cast<std::size_t>(si.offset()) + s_used;
    const auto d_off = static_cast<std::size_t>(di.offset()) + d_used;
    std::memcpy(dst.data() + d_off, src.data() + s_off, chunk);
    s_used += chunk;
    d_used += chunk;
    total += chunk;
    if (s_used == si.len()) {
      si.next();
      s_used = 0;
    }
    if (d_used == di.len()) {
      di.next();
      d_used = 0;
    }
  }
  return total;
}

}  // namespace dkf::ddt
