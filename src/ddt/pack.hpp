// Bit-exact reference pack/unpack over compressed canonical layouts.
//
// These host-side routines are the semantic ground truth for every scheme in
// the simulator: the GPU pack kernels, the GDRCopy hybrid path, DirectIPC,
// and the naive per-block copies all reduce to these byte movements (what
// differs between schemes is *when* and *at what modeled cost* they happen).
#pragma once

#include <cstddef>
#include <span>

#include "ddt/layout.hpp"

namespace dkf::ddt {

/// Gather: copy every layout run of `origin` into `packed` back-to-back by
/// executing the layout's compiled op list. `origin` must cover
/// [minOffset, endOffset) of the layout and `packed` must hold at least
/// layout.size() bytes; both are checked before any byte moves. Returns the
/// number of bytes packed.
std::size_t packCpu(const Layout& layout, std::span<const std::byte> origin,
                    std::span<std::byte> packed);

/// Scatter: inverse of packCpu, with the same up-front checks.
std::size_t unpackCpu(const Layout& layout, std::span<const std::byte> packed,
                      std::span<std::byte> origin);

/// Direct strided copy between two non-contiguous buffers with identical
/// total size (the DirectIPC operation of [24]): logically pack(src) followed
/// by unpack(dst) without materializing the intermediate buffer. Both
/// buffers are bounds-checked before any byte moves.
std::size_t copyStrided(const Layout& src_layout,
                        std::span<const std::byte> src,
                        const Layout& dst_layout, std::span<std::byte> dst);

}  // namespace dkf::ddt
