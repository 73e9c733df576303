#include "mpi/collectives.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "schemes/solver.hpp"

namespace dkf::mpi {

namespace {

std::size_t elementSize(ReduceType t) {
  switch (t) {
    case ReduceType::Float64: return sizeof(double);
    case ReduceType::Int64: return sizeof(std::int64_t);
  }
  DKF_FAIL("unhandled ReduceType " << static_cast<int>(t));
}

/// Validate `op` up front so every rank fails before any traffic, no
/// matter which topology would have folded the data.
void validateReduceOp(ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum:
    case ReduceOp::Min:
    case ReduceOp::Max:
      return;
  }
  DKF_FAIL("unhandled ReduceOp " << static_cast<int>(op));
}

template <class T>
T combine(T a, T b, ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum: return a + b;
    case ReduceOp::Min: return std::min(a, b);
    case ReduceOp::Max: return std::max(a, b);
  }
  DKF_FAIL("unhandled ReduceOp " << static_cast<int>(op));
}

template <class T>
void combineSpans(std::span<std::byte> dst, std::span<const std::byte> src,
                  std::size_t count, ReduceOp op) {
  for (std::size_t i = 0; i < count; ++i) {
    T a, b;
    std::memcpy(&a, dst.data() + i * sizeof(T), sizeof(T));
    std::memcpy(&b, src.data() + i * sizeof(T), sizeof(T));
    a = combine(a, b, op);
    std::memcpy(dst.data() + i * sizeof(T), &a, sizeof(T));
  }
}

/// Apply `op` element-wise: dst[i] = dst[i] op src[i].
void applyReduce(std::span<std::byte> dst, std::span<const std::byte> src,
                 std::size_t count, ReduceType type, ReduceOp op) {
  DKF_CHECK(dst.size() >= count * elementSize(type));
  DKF_CHECK(src.size() >= count * elementSize(type));
  switch (type) {
    case ReduceType::Float64:
      combineSpans<double>(dst, src, count, op);
      return;
    case ReduceType::Int64:
      combineSpans<std::int64_t>(dst, src, count, op);
      return;
  }
  DKF_FAIL("unhandled ReduceType " << static_cast<int>(type));
}

ddt::DatatypePtr elemDatatype(ReduceType t) {
  switch (t) {
    case ReduceType::Float64: return ddt::Datatype::float64();
    case ReduceType::Int64: return ddt::Datatype::int64();
  }
  DKF_FAIL("unhandled ReduceType " << static_cast<int>(t));
}

/// Rank relative to the root (so the tree algorithms can assume root 0).
int relRank(int rank, int root, int n) { return (rank - root + n) % n; }
int absRank(int rel, int root, int n) { return (rel + root) % n; }

// ---- Block resolution + per-hop plan warming --------------------------

/// A VBlock resolved against its buffer: canonical layout, packed size and
/// extent, all bounds-checked. Zero-count blocks resolve to an empty view.
struct BlockView {
  ddt::LayoutPtr layout;
  std::size_t packed{0};
  std::size_t extent{0};
  std::size_t offset{0};
};

BlockView resolveBlock(Proc& proc, const VBlock& b, const gpu::MemSpan& buf,
                       const char* what) {
  if (b.count == 0) return BlockView{nullptr, 0, 0, b.offset};
  DKF_CHECK_MSG(b.type != nullptr, what << " block has no datatype");
  auto layout = proc.layoutCache().get(b.type, b.count);
  DKF_CHECK_MSG(layout->minOffset() >= 0,
                what << " block layout reaches below its offset");
  const auto extent = static_cast<std::size_t>(layout->endOffset());
  DKF_CHECK_MSG(b.offset + extent <= buf.size(),
                what << " block exceeds its buffer: offset " << b.offset
                     << " + extent " << extent << " > " << buf.size());
  return BlockView{layout, layout->size(), extent, b.offset};
}

/// The span a typed send/recv of this block binds to.
gpu::MemSpan blockSpan(const gpu::MemSpan& buf, const BlockView& bv) {
  return buf.subspan(bv.offset, bv.extent);
}

/// Pre-compile the pack or unpack plan of every distinct layout signature
/// among `views` through the per-rank PlanCache. The per-peer loop that
/// follows then binds the one cached CompiledPlan per signature instead of
/// re-running the solver for every destination — the "compile once per
/// hop" contract of MODEL.md §12. (Proc::planRequest builds the identical
/// single-op plan, so its cache key matches these entries exactly.)
void warmBlockPlans(Proc& proc, core::FusionOp op,
                    const std::vector<BlockView>& views) {
  for (const BlockView& bv : views) {
    if (!bv.layout || bv.packed == 0) continue;
    core::FusionPlan plan;
    if (op == core::FusionOp::Packing) {
      plan.addPack(bv.layout);
    } else {
      plan.addUnpack(bv.layout);
    }
    schemes::compilePlanCached(proc.planCache(), plan, proc.config().scheme,
                               proc.gpu().nodeSpec());
  }
}

std::vector<std::size_t> prefixOffsets(const std::vector<std::size_t>& sizes) {
  std::vector<std::size_t> offs(sizes.size() + 1, 0);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    offs[i + 1] = offs[i] + sizes[i];
  }
  return offs;
}

// ---- Byte-transport primitives ----------------------------------------
//
// All reduction/allgather topologies are built from four transports over
// already-packed bytes. `sizes` is indexed by absolute rank and must be
// identical on every rank (v-collectives can compute it locally because
// every rank knows every block's datatype). `full` is the rank-major
// concatenation buffer with prefix offsets of `sizes`.

/// Direct sends to every peer; every rank ends with the full concatenation.
sim::Task<void> flatAllgatherBytes(Proc& proc,
                                   const std::vector<std::size_t>& sizes,
                                   const std::vector<std::size_t>& offs,
                                   gpu::MemSpan mine, gpu::MemSpan full,
                                   int tag) {
  const int n = proc.worldSize();
  const int me = proc.rank();
  if (sizes[me] > 0) {
    std::memcpy(full.bytes.data() + offs[me], mine.bytes.data(), sizes[me]);
  }
  std::vector<RequestPtr> reqs;
  for (int r = 0; r < n; ++r) {
    if (r == me) continue;
    if (sizes[r] > 0) {
      reqs.push_back(co_await proc.irecv(full.subspan(offs[r], sizes[r]),
                                         ddt::Datatype::byte(), sizes[r], r,
                                         tag + r));
    }
    if (sizes[me] > 0) {
      reqs.push_back(co_await proc.isend(mine, ddt::Datatype::byte(),
                                         sizes[me], r, tag + me));
    }
  }
  co_await proc.waitall(std::move(reqs));
}

/// Classic ring allgather: n-1 steps, each step forwards the block that
/// arrived the step before to the right neighbor. Two messages in flight
/// per rank per step regardless of n.
sim::Task<void> ringAllgatherBytes(Proc& proc,
                                   const std::vector<std::size_t>& sizes,
                                   const std::vector<std::size_t>& offs,
                                   gpu::MemSpan mine, gpu::MemSpan full,
                                   int tag) {
  const int n = proc.worldSize();
  const int me = proc.rank();
  if (sizes[me] > 0) {
    std::memcpy(full.bytes.data() + offs[me], mine.bytes.data(), sizes[me]);
  }
  const int right = (me + 1) % n;
  const int left = (me - 1 + n) % n;
  for (int s = 1; s < n; ++s) {
    const int src_out = (me - s + 1 + n) % n;  // block I forward this step
    const int src_in = (me - s + n) % n;       // block that arrives
    std::vector<RequestPtr> reqs;
    if (sizes[src_in] > 0) {
      reqs.push_back(co_await proc.irecv(
          full.subspan(offs[src_in], sizes[src_in]), ddt::Datatype::byte(),
          sizes[src_in], left, tag + s));
    }
    if (sizes[src_out] > 0) {
      reqs.push_back(co_await proc.isend(
          full.subspan(offs[src_out], sizes[src_out]), ddt::Datatype::byte(),
          sizes[src_out], right, tag + s));
    }
    co_await proc.waitall(std::move(reqs));
  }
}

/// Star gather: everyone sends its payload straight to `root`, which ends
/// with the full concatenation (other ranks' `full` stays untouched).
sim::Task<void> flatGatherBytes(Proc& proc, int root,
                                const std::vector<std::size_t>& sizes,
                                const std::vector<std::size_t>& offs,
                                gpu::MemSpan mine, gpu::MemSpan full,
                                int tag) {
  const int n = proc.worldSize();
  const int me = proc.rank();
  if (me == root) {
    if (sizes[me] > 0) {
      std::memcpy(full.bytes.data() + offs[me], mine.bytes.data(), sizes[me]);
    }
    std::vector<RequestPtr> reqs;
    for (int r = 0; r < n; ++r) {
      if (r == root || sizes[r] == 0) continue;
      reqs.push_back(co_await proc.irecv(full.subspan(offs[r], sizes[r]),
                                         ddt::Datatype::byte(), sizes[r], r,
                                         tag + r));
    }
    co_await proc.waitall(std::move(reqs));
  } else if (sizes[me] > 0) {
    auto req = co_await proc.isend(mine, ddt::Datatype::byte(), sizes[me],
                                   root, tag + me);
    co_await proc.wait(req);
  }
}

// ---- k-ary range tree -------------------------------------------------
//
// The node that owns the contiguous relative-rank range [lo, hi) is rel
// rank lo; the remainder [lo+1, hi) splits into <= radix contiguous child
// ranges. Child order is pinned (increasing rank), and because subtree
// ranges are contiguous, a subtree's rank-major payload concatenation has
// locally computable offsets — interior nodes receive each child's whole
// subtree buffer into the right slot and forward one aggregate message.

struct TreeNode {
  int lo{0};
  int hi{0};
  int parent{-1};  // rel rank of the parent node; -1 at the root
};

std::vector<std::pair<int, int>> treeChildren(int lo, int hi, int radix) {
  std::vector<std::pair<int, int>> out;
  const int m = hi - (lo + 1);
  if (m <= 0) return out;
  const int k = std::min(radix, m);
  const int base = m / k;
  const int extra = m % k;
  int cur = lo + 1;
  for (int i = 0; i < k; ++i) {
    const int len = base + (i < extra ? 1 : 0);
    out.emplace_back(cur, cur + len);
    cur += len;
  }
  return out;
}

TreeNode treeNodeOf(int rel, int n, int radix) {
  TreeNode node{0, n, -1};
  while (node.lo != rel) {
    const int parent = node.lo;
    for (const auto& [clo, chi] : treeChildren(node.lo, node.hi, radix)) {
      if (rel >= clo && rel < chi) {
        node = TreeNode{clo, chi, parent};
        break;
      }
    }
  }
  return node;
}

/// Gather the rel-rank-major concatenation of per-rank payloads to the
/// root. `sizes` is indexed by absolute rank; at the rank `root` the
/// result lands in `full` (rel-rank-major: slot i holds the payload of
/// absolute rank absRank(i, root, n)). Other ranks' `full` is unused.
sim::Task<void> treeGatherBytes(Proc& proc, int root, int radix,
                                const std::vector<std::size_t>& sizes,
                                gpu::MemSpan mine, gpu::MemSpan full,
                                int tag) {
  const int n = proc.worldSize();
  const int me_rel = relRank(proc.rank(), root, n);
  std::vector<std::size_t> rel_sizes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rel_sizes[static_cast<std::size_t>(i)] =
        sizes[static_cast<std::size_t>(absRank(i, root, n))];
  }
  const auto offs = prefixOffsets(rel_sizes);
  const TreeNode node = treeNodeOf(me_rel, n, radix);
  const std::size_t sub_off = offs[static_cast<std::size_t>(node.lo)];
  const std::size_t sub_bytes =
      offs[static_cast<std::size_t>(node.hi)] - sub_off;

  gpu::MemSpan buf{};
  bool owned = false;
  if (me_rel == 0) {
    DKF_CHECK(full.size() >= sub_bytes);
    buf = full;
  } else if (sub_bytes > 0) {
    buf = proc.allocDevice(sub_bytes);
    owned = true;
  }
  if (rel_sizes[static_cast<std::size_t>(me_rel)] > 0) {
    std::memcpy(buf.bytes.data(), mine.bytes.data(),
                rel_sizes[static_cast<std::size_t>(me_rel)]);
  }
  std::vector<RequestPtr> reqs;
  for (const auto& [clo, chi] : treeChildren(node.lo, node.hi, radix)) {
    const std::size_t child_bytes =
        offs[static_cast<std::size_t>(chi)] - offs[static_cast<std::size_t>(clo)];
    if (child_bytes == 0) continue;
    reqs.push_back(co_await proc.irecv(
        buf.subspan(offs[static_cast<std::size_t>(clo)] - sub_off, child_bytes),
        ddt::Datatype::byte(), child_bytes, absRank(clo, root, n), tag + clo));
  }
  co_await proc.waitall(std::move(reqs));
  if (node.parent >= 0 && sub_bytes > 0) {
    auto req = co_await proc.isend(buf.subspan(0, sub_bytes),
                                   ddt::Datatype::byte(), sub_bytes,
                                   absRank(node.parent, root, n),
                                   tag + node.lo);
    co_await proc.wait(req);
  }
  if (owned) proc.freeDevice(buf);
}

/// Send `bytes` of `buf` from the root down the same range tree; on exit
/// every rank's `buf` holds the payload.
sim::Task<void> treeBcastBytes(Proc& proc, int root, int radix,
                               gpu::MemSpan buf, std::size_t bytes,
                               int tag) {
  if (bytes == 0) co_return;
  const int n = proc.worldSize();
  const int me_rel = relRank(proc.rank(), root, n);
  const TreeNode node = treeNodeOf(me_rel, n, radix);
  if (me_rel != 0) {
    auto req = co_await proc.irecv(buf.subspan(0, bytes),
                                   ddt::Datatype::byte(), bytes,
                                   absRank(node.parent, root, n),
                                   tag + node.lo);
    co_await proc.wait(req);
  }
  std::vector<RequestPtr> reqs;
  for (const auto& [clo, chi] : treeChildren(node.lo, node.hi, radix)) {
    reqs.push_back(co_await proc.isend(buf.subspan(0, bytes),
                                       ddt::Datatype::byte(), bytes,
                                       absRank(clo, root, n), tag + clo));
  }
  co_await proc.waitall(std::move(reqs));
}

// ---- Canonical fold ---------------------------------------------------

/// res := contribution of abs rank 0, then folded with abs ranks 1..n-1 in
/// order. `slot_of(r)` maps an absolute rank to its slot index inside the
/// concatenation (identity for abs-major buffers, rel-rank remap for tree
/// gathers rooted elsewhere). The pinned order is what makes Float64
/// results byte-identical across flat/ring/tree.
void foldContributions(gpu::MemSpan res, const gpu::MemSpan& full,
                       const std::vector<std::size_t>& offs, int n,
                       const std::function<int(int)>& slot_of,
                       std::size_t elems, ReduceType type, ReduceOp op) {
  const std::size_t bytes = elems * elementSize(type);
  std::memcpy(res.bytes.data(),
              full.bytes.data() + offs[static_cast<std::size_t>(slot_of(0))],
              bytes);
  for (int r = 1; r < n; ++r) {
    applyReduce(res.bytes,
                full.bytes.subspan(
                    offs[static_cast<std::size_t>(slot_of(r))], bytes),
                elems, type, op);
  }
}

void validateTuning(const CollTuning& tuning) {
  DKF_CHECK_MSG(tuning.radix >= 2,
                "collective tree radix must be >= 2, got " << tuning.radix);
}

// ---- Bruck-style store-and-forward alltoallv --------------------------

/// Rounds needed to route any relative distance delta < n in base `radix`
/// digits.
int bruckRounds(int n, int radix) {
  int rounds = 0;
  std::uint64_t span = 1;
  while (span < static_cast<std::uint64_t>(n)) {
    span *= static_cast<std::uint64_t>(radix);
    ++rounds;
  }
  return rounds;
}

/// Tag offset inside a Bruck invocation's span: round k, digit value d
/// (1-based), `which` = 0 for the size message, 1 for the payload.
int bruckTag(int k, int d, int which, int radix) {
  return ((k * (radix - 1) + (d - 1)) * 2) + which;
}

struct BruckChunk {
  int src{0};
  int dst{0};
  net::PayloadRef bytes;  // staged in the payload pool (single capture)
};

constexpr std::size_t kBruckHeaderBytes =
    sizeof(std::int32_t) * 2 + sizeof(std::uint64_t);

void writeChunkHeader(std::byte* out, const BruckChunk& c) {
  const auto src = static_cast<std::int32_t>(c.src);
  const auto dst = static_cast<std::int32_t>(c.dst);
  const auto len = static_cast<std::uint64_t>(c.bytes.size());
  std::memcpy(out, &src, sizeof(src));
  std::memcpy(out + sizeof(src), &dst, sizeof(dst));
  std::memcpy(out + sizeof(src) + sizeof(dst), &len, sizeof(len));
}

/// Store-and-forward alltoallv: each block is packed once at its origin,
/// then routed as an opaque chunk tagged (src, dst, len). In round k a
/// chunk whose remaining relative distance has digit d at position k
/// (base radix) rides the aggregated payload to (cur + d*radix^k) mod n;
/// after ceil(log_radix n) rounds every chunk has reached its destination,
/// where it is unpacked through the receiver's block plan. Intermediate
/// hops never touch the datatype — pack and unpack happen exactly once.
sim::Task<void> bruckAlltoallv(Proc& proc, gpu::MemSpan send,
                               gpu::MemSpan recv,
                               const std::vector<VBlock>& send_blocks,
                               const std::vector<VBlock>& recv_blocks,
                               const std::vector<BlockView>& send_views,
                               const std::vector<BlockView>& recv_views,
                               int radix, int rounds, int tag) {
  const int n = proc.worldSize();
  const int me = proc.rank();

  // Pack every outgoing block at the origin (self already handled by the
  // caller). The pack plan was warmed once; every iteration binds it.
  std::vector<BruckChunk> pending;
  std::size_t max_packed = 0;
  for (int d = 0; d < n; ++d) {
    if (d != me) max_packed = std::max(max_packed, send_views[d].packed);
  }
  if (max_packed > 0) {
    auto scratch = proc.allocDevice(max_packed);
    for (int d = 0; d < n; ++d) {
      const BlockView& bv = send_views[static_cast<std::size_t>(d)];
      if (d == me || bv.packed == 0) continue;
      co_await proc.pack(blockSpan(send, bv),
                         send_blocks[static_cast<std::size_t>(d)].type,
                         send_blocks[static_cast<std::size_t>(d)].count,
                         scratch.subspan(0, bv.packed));
      BruckChunk c;
      c.src = me;
      c.dst = d;
      c.bytes = proc.payloadPool().capture(
          {scratch.bytes.data(), bv.packed});
      pending.push_back(std::move(c));
    }
    proc.freeDevice(scratch);
  }

  std::uint64_t step = 1;
  for (int k = 0; k < rounds; ++k, step *= static_cast<std::uint64_t>(radix)) {
    std::vector<RequestPtr> send_reqs;
    std::vector<gpu::MemSpan> round_scratch;
    for (int d = 1; d < radix; ++d) {
      const std::uint64_t dist = static_cast<std::uint64_t>(d) * step;
      if (dist >= static_cast<std::uint64_t>(n)) break;  // digit can't occur
      const int dest = static_cast<int>(
          (static_cast<std::uint64_t>(me) + dist) % static_cast<std::uint64_t>(n));
      // Chunks whose remaining distance has digit d at position k.
      std::vector<BruckChunk> out;
      for (auto it = pending.begin(); it != pending.end();) {
        const auto delta = static_cast<std::uint64_t>((it->dst - me + n) % n);
        if ((delta / step) % static_cast<std::uint64_t>(radix) ==
            static_cast<std::uint64_t>(d)) {
          out.push_back(std::move(*it));
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      std::size_t payload_bytes = 0;
      for (const BruckChunk& c : out) {
        payload_bytes += kBruckHeaderBytes + c.bytes.size();
      }
      auto size_span = proc.allocDevice(sizeof(std::uint64_t));
      round_scratch.push_back(size_span);
      const auto sz = static_cast<std::uint64_t>(payload_bytes);
      std::memcpy(size_span.bytes.data(), &sz, sizeof(sz));
      send_reqs.push_back(co_await proc.isend(
          size_span, ddt::Datatype::byte(), sizeof(std::uint64_t), dest,
          tag + bruckTag(k, d, 0, radix)));
      if (payload_bytes > 0) {
        auto payload = proc.allocDevice(payload_bytes);
        round_scratch.push_back(payload);
        std::size_t pos = 0;
        for (const BruckChunk& c : out) {
          writeChunkHeader(payload.bytes.data() + pos, c);
          pos += kBruckHeaderBytes;
          std::memcpy(payload.bytes.data() + pos, c.bytes.data(),
                      c.bytes.size());
          pos += c.bytes.size();
        }
        send_reqs.push_back(co_await proc.isend(
            payload, ddt::Datatype::byte(), payload_bytes, dest,
            tag + bruckTag(k, d, 1, radix)));
      }
    }

    for (int d = 1; d < radix; ++d) {
      const std::uint64_t dist = static_cast<std::uint64_t>(d) * step;
      if (dist >= static_cast<std::uint64_t>(n)) break;
      const int src = static_cast<int>(
          (static_cast<std::uint64_t>(me) + static_cast<std::uint64_t>(n) -
           dist % static_cast<std::uint64_t>(n)) %
          static_cast<std::uint64_t>(n));
      auto size_span = proc.allocDevice(sizeof(std::uint64_t));
      auto req = co_await proc.irecv(size_span, ddt::Datatype::byte(),
                                     sizeof(std::uint64_t), src,
                                     tag + bruckTag(k, d, 0, radix));
      co_await proc.wait(req);
      std::uint64_t payload_bytes = 0;
      std::memcpy(&payload_bytes, size_span.bytes.data(),
                  sizeof(payload_bytes));
      proc.freeDevice(size_span);
      if (payload_bytes == 0) continue;
      auto payload = proc.allocDevice(payload_bytes);
      auto preq = co_await proc.irecv(payload, ddt::Datatype::byte(),
                                      payload_bytes, src,
                                      tag + bruckTag(k, d, 1, radix));
      co_await proc.wait(preq);
      std::size_t pos = 0;
      while (pos < payload_bytes) {
        std::int32_t csrc = 0, cdst = 0;
        std::uint64_t clen = 0;
        std::memcpy(&csrc, payload.bytes.data() + pos, sizeof(csrc));
        std::memcpy(&cdst, payload.bytes.data() + pos + sizeof(csrc),
                    sizeof(cdst));
        std::memcpy(&clen,
                    payload.bytes.data() + pos + sizeof(csrc) + sizeof(cdst),
                    sizeof(clen));
        pos += kBruckHeaderBytes;
        DKF_CHECK(pos + clen <= payload_bytes);
        if (cdst == me) {
          const BlockView& bv = recv_views[static_cast<std::size_t>(csrc)];
          DKF_CHECK_MSG(clen == bv.packed,
                        "alltoallv block size mismatch: rank "
                            << csrc << " sent " << clen << " bytes, rank "
                            << me << " expects " << bv.packed);
          co_await proc.unpack(payload.subspan(pos, clen),
                               blockSpan(recv, bv),
                               recv_blocks[static_cast<std::size_t>(csrc)].type,
                               recv_blocks[static_cast<std::size_t>(csrc)].count);
        } else {
          BruckChunk c;
          c.src = csrc;
          c.dst = cdst;
          c.bytes = proc.payloadPool().capture(
              {payload.bytes.data() + pos, clen});
          pending.push_back(std::move(c));
        }
        pos += clen;
      }
      proc.freeDevice(payload);
    }

    co_await proc.waitall(std::move(send_reqs));
    for (const auto& span : round_scratch) proc.freeDevice(span);
  }
  DKF_CHECK_MSG(pending.empty(),
                "bruck alltoallv finished with " << pending.size()
                                                 << " undelivered chunks");
}

}  // namespace

const char* collAlgoName(CollAlgo algo) {
  switch (algo) {
    case CollAlgo::Flat: return "flat";
    case CollAlgo::Ring: return "ring";
    case CollAlgo::Tree: return "tree";
  }
  DKF_FAIL("unhandled CollAlgo " << static_cast<int>(algo));
}

sim::Task<void> bcast(Proc& proc, gpu::MemSpan buf, ddt::DatatypePtr type,
                      std::size_t count, int root) {
  const int n = proc.worldSize();
  DKF_CHECK(root >= 0 && root < n);
  const int tag = proc.allocCollectiveTags(n);
  const int me = relRank(proc.rank(), root, n);

  // Binomial tree: in round k (mask = 1<<k), ranks below the mask send to
  // rank + mask.
  int mask = 1;
  // Receive phase: find my parent (the lowest set bit of my relative rank).
  if (me != 0) {
    while ((me & mask) == 0) mask <<= 1;
    const int parent = absRank(me - mask, root, n);
    auto req = co_await proc.irecv(buf, type, count, parent, tag + me);
    co_await proc.wait(req);
  } else {
    while (mask < n) mask <<= 1;
  }
  // Send phase: forward to children (me + mask/2, me + mask/4, ...).
  mask >>= 1;
  std::vector<RequestPtr> sends;
  while (mask > 0) {
    if (me + mask < n && (me & (mask - 1)) == 0 && (me & mask) == 0) {
      const int child_rel = me + mask;
      sends.push_back(co_await proc.isend(buf, type, count,
                                          absRank(child_rel, root, n),
                                          tag + child_rel));
    }
    mask >>= 1;
  }
  co_await proc.waitall(std::move(sends));
}

sim::Task<void> reduce(Proc& proc, gpu::MemSpan buf, std::size_t count,
                       ReduceType type, ReduceOp op, int root,
                       const CollTuning& tuning) {
  const int n = proc.worldSize();
  DKF_CHECK(root >= 0 && root < n);
  validateReduceOp(op);
  validateTuning(tuning);
  const std::size_t bytes = count * elementSize(type);
  DKF_CHECK(buf.size() >= bytes);
  const int me = proc.rank();
  const std::vector<std::size_t> sizes(static_cast<std::size_t>(n), bytes);
  const auto offs = prefixOffsets(sizes);
  const gpu::MemSpan mine = buf.subspan(0, bytes);
  const int tag = proc.allocCollectiveTags(n);

  // Transport the raw contributions to the root (topology per `tuning`),
  // then fold them in absolute rank order — the combine order is pinned,
  // so every algorithm produces bit-identical Float64 results.
  gpu::MemSpan full{};
  const bool need_full =
      tuning.algo == CollAlgo::Ring || me == root;
  if (need_full) full = proc.allocDevice(std::max<std::size_t>(offs.back(), 1));
  switch (tuning.algo) {
    case CollAlgo::Flat:
      co_await flatGatherBytes(proc, root, sizes, offs, mine, full, tag);
      break;
    case CollAlgo::Ring:
      co_await ringAllgatherBytes(proc, sizes, offs, mine, full, tag);
      break;
    case CollAlgo::Tree:
      co_await treeGatherBytes(proc, root, tuning.radix, sizes, mine, full,
                               tag);
      break;
  }
  if (me == root) {
    // Tree gathers concatenate in rel-rank order when rooted off rank 0.
    const auto slot_of = [&](int r) {
      return tuning.algo == CollAlgo::Tree ? relRank(r, root, n) : r;
    };
    foldContributions(mine, full, offs, n, slot_of, count, type, op);
  }
  if (need_full) proc.freeDevice(full);
}

sim::Task<void> allreduce(Proc& proc, gpu::MemSpan buf, std::size_t count,
                          ReduceType type, ReduceOp op,
                          const CollTuning& tuning) {
  co_await allreduceDdt(proc, buf, elemDatatype(type), count, type, op,
                        tuning);
}

sim::Task<void> allreduceDdt(Proc& proc, gpu::MemSpan buf,
                             ddt::DatatypePtr type, std::size_t count,
                             ReduceType elem, ReduceOp op,
                             const CollTuning& tuning) {
  const int n = proc.worldSize();
  validateReduceOp(op);
  validateTuning(tuning);
  const std::size_t esize = elementSize(elem);
  DKF_CHECK(count > 0);
  const BlockView bv =
      resolveBlock(proc, VBlock{type, count, 0}, buf, "allreduce");
  DKF_CHECK_MSG(bv.packed > 0, "allreduce layout selects no bytes");
  DKF_CHECK_MSG(bv.packed % esize == 0,
                "allreduce layout packs " << bv.packed
                                          << " bytes, not a multiple of "
                                          << esize);
  const std::size_t bytes = bv.packed;
  const std::size_t elems = bytes / esize;
  const int me = proc.rank();

  // Contiguous layouts contribute in place; strided ones pack once through
  // the cached plan (and scatter the result back the same way).
  const bool contiguous = bv.layout->isContiguous() && bv.layout->minOffset() == 0;
  gpu::MemSpan contrib{};
  if (contiguous) {
    contrib = buf.subspan(0, bytes);
  } else {
    const std::vector<BlockView> views{bv};
    warmBlockPlans(proc, core::FusionOp::Packing, views);
    warmBlockPlans(proc, core::FusionOp::Unpacking, views);
    contrib = proc.allocDevice(bytes);
    co_await proc.pack(blockSpan(buf, bv), type, count, contrib);
  }

  const std::vector<std::size_t> sizes(static_cast<std::size_t>(n), bytes);
  const auto offs = prefixOffsets(sizes);
  auto res = proc.allocDevice(bytes);
  const auto identity = [](int r) { return r; };

  switch (tuning.algo) {
    case CollAlgo::Flat:
    case CollAlgo::Ring: {
      // Allgather the raw contributions; every rank folds the identical
      // pinned sequence locally.
      const int tag = proc.allocCollectiveTags(n);
      auto full = proc.allocDevice(offs.back());
      if (tuning.algo == CollAlgo::Flat) {
        co_await flatAllgatherBytes(proc, sizes, offs, contrib, full, tag);
      } else {
        co_await ringAllgatherBytes(proc, sizes, offs, contrib, full, tag);
      }
      foldContributions(res, full, offs, n, identity, elems, elem, op);
      proc.freeDevice(full);
      break;
    }
    case CollAlgo::Tree: {
      // Gather to rank 0 over the range tree, fold once, broadcast the
      // folded bytes back down the same tree.
      const int tag_up = proc.allocCollectiveTags(n);
      const int tag_down = proc.allocCollectiveTags(n);
      gpu::MemSpan full{};
      if (me == 0) full = proc.allocDevice(offs.back());
      co_await treeGatherBytes(proc, /*root=*/0, tuning.radix, sizes, contrib,
                               full, tag_up);
      if (me == 0) {
        foldContributions(res, full, offs, n, identity, elems, elem, op);
        proc.freeDevice(full);
      }
      co_await treeBcastBytes(proc, /*root=*/0, tuning.radix, res, bytes,
                              tag_down);
      break;
    }
  }

  if (contiguous) {
    std::memcpy(buf.bytes.data(), res.bytes.data(), bytes);
  } else {
    co_await proc.unpack(res, blockSpan(buf, bv), type, count);
    proc.freeDevice(contrib);
  }
  proc.freeDevice(res);
}

sim::Task<void> gather(Proc& proc, gpu::MemSpan send, gpu::MemSpan recv,
                       std::size_t bytes_per_rank, int root) {
  const int n = proc.worldSize();
  const int tag = proc.allocCollectiveTags(n);
  if (proc.rank() == root) {
    DKF_CHECK(send.size() >= bytes_per_rank);
    DKF_CHECK(recv.size() >= bytes_per_rank * static_cast<std::size_t>(n));
    std::vector<RequestPtr> reqs;
    for (int r = 0; r < n; ++r) {
      if (r == root) {
        std::memcpy(recv.bytes.data() +
                        static_cast<std::size_t>(r) * bytes_per_rank,
                    send.bytes.data(), bytes_per_rank);
        continue;
      }
      reqs.push_back(co_await proc.irecv(
          recv.subspan(static_cast<std::size_t>(r) * bytes_per_rank,
                       bytes_per_rank),
          ddt::Datatype::byte(), bytes_per_rank, r, tag + r));
    }
    co_await proc.waitall(std::move(reqs));
  } else {
    DKF_CHECK(send.size() >= bytes_per_rank);
    auto req = co_await proc.isend(send, ddt::Datatype::byte(),
                                   bytes_per_rank, root,
                                   tag + proc.rank());
    co_await proc.wait(req);
  }
}

sim::Task<void> alltoall(Proc& proc, gpu::MemSpan send, gpu::MemSpan recv,
                         std::size_t bytes_per_rank) {
  const int n = proc.worldSize();
  const int tag = proc.allocCollectiveTags(n);
  DKF_CHECK(send.size() >= bytes_per_rank * static_cast<std::size_t>(n));
  DKF_CHECK(recv.size() >= bytes_per_rank * static_cast<std::size_t>(n));
  std::vector<RequestPtr> reqs;
  for (int r = 0; r < n; ++r) {
    const auto off = static_cast<std::size_t>(r) * bytes_per_rank;
    if (r == proc.rank()) {
      std::memcpy(recv.bytes.data() + off, send.bytes.data() + off,
                  bytes_per_rank);
      continue;
    }
    reqs.push_back(co_await proc.irecv(recv.subspan(off, bytes_per_rank),
                                       ddt::Datatype::byte(), bytes_per_rank,
                                       r, tag + proc.rank()));
    reqs.push_back(co_await proc.isend(send.subspan(off, bytes_per_rank),
                                       ddt::Datatype::byte(), bytes_per_rank,
                                       r, tag + r));
  }
  co_await proc.waitall(std::move(reqs));
}

sim::Task<void> alltoallv(Proc& proc, gpu::MemSpan send, gpu::MemSpan recv,
                          const std::vector<VBlock>& send_blocks,
                          const std::vector<VBlock>& recv_blocks,
                          const CollTuning& tuning) {
  const int n = proc.worldSize();
  const int me = proc.rank();
  validateTuning(tuning);
  DKF_CHECK_MSG(send_blocks.size() == static_cast<std::size_t>(n) &&
                    recv_blocks.size() == static_cast<std::size_t>(n),
                "alltoallv needs one send and one recv block per rank");
  std::vector<BlockView> send_views, recv_views;
  send_views.reserve(send_blocks.size());
  recv_views.reserve(recv_blocks.size());
  for (int r = 0; r < n; ++r) {
    send_views.push_back(resolveBlock(
        proc, send_blocks[static_cast<std::size_t>(r)], send, "alltoallv send"));
    recv_views.push_back(resolveBlock(
        proc, recv_blocks[static_cast<std::size_t>(r)], recv, "alltoallv recv"));
  }
  warmBlockPlans(proc, core::FusionOp::Packing, send_views);
  warmBlockPlans(proc, core::FusionOp::Unpacking, recv_views);

  // The self block moves locally through the same pack/unpack plans every
  // topology uses, so all variants write identical bytes.
  if (send_views[static_cast<std::size_t>(me)].packed > 0) {
    const BlockView& sv = send_views[static_cast<std::size_t>(me)];
    const BlockView& rv = recv_views[static_cast<std::size_t>(me)];
    DKF_CHECK_MSG(sv.packed == rv.packed,
                  "alltoallv self block sizes disagree: " << sv.packed
                                                          << " vs "
                                                          << rv.packed);
    auto scratch = proc.allocDevice(sv.packed);
    co_await proc.pack(blockSpan(send, sv),
                       send_blocks[static_cast<std::size_t>(me)].type,
                       send_blocks[static_cast<std::size_t>(me)].count,
                       scratch);
    co_await proc.unpack(scratch, blockSpan(recv, rv),
                         recv_blocks[static_cast<std::size_t>(me)].type,
                         recv_blocks[static_cast<std::size_t>(me)].count);
    proc.freeDevice(scratch);
  }

  switch (tuning.algo) {
    case CollAlgo::Flat: {
      // Direct typed sends to every peer — the engine packs each message
      // through the one warmed plan per signature.
      const int tag = proc.allocCollectiveTags(n);
      std::vector<RequestPtr> reqs;
      for (int r = 0; r < n; ++r) {
        if (r == me) continue;
        const BlockView& rv = recv_views[static_cast<std::size_t>(r)];
        if (rv.packed > 0) {
          reqs.push_back(co_await proc.irecv(
              blockSpan(recv, rv), recv_blocks[static_cast<std::size_t>(r)].type,
              recv_blocks[static_cast<std::size_t>(r)].count, r, tag + r));
        }
        const BlockView& sv = send_views[static_cast<std::size_t>(r)];
        if (sv.packed > 0) {
          reqs.push_back(co_await proc.isend(
              blockSpan(send, sv), send_blocks[static_cast<std::size_t>(r)].type,
              send_blocks[static_cast<std::size_t>(r)].count, r, tag + me));
        }
      }
      co_await proc.waitall(std::move(reqs));
      break;
    }
    case CollAlgo::Ring: {
      // Staged pairwise exchange: in step s, send to (me+s) and receive
      // from (me-s) — two messages in flight per step regardless of n.
      const int tag = proc.allocCollectiveTags(n);
      for (int s = 1; s < n; ++s) {
        const int out = (me + s) % n;
        const int in = (me - s + n) % n;
        std::vector<RequestPtr> reqs;
        const BlockView& rv = recv_views[static_cast<std::size_t>(in)];
        if (rv.packed > 0) {
          reqs.push_back(co_await proc.irecv(
              blockSpan(recv, rv),
              recv_blocks[static_cast<std::size_t>(in)].type,
              recv_blocks[static_cast<std::size_t>(in)].count, in, tag + s));
        }
        const BlockView& sv = send_views[static_cast<std::size_t>(out)];
        if (sv.packed > 0) {
          reqs.push_back(co_await proc.isend(
              blockSpan(send, sv),
              send_blocks[static_cast<std::size_t>(out)].type,
              send_blocks[static_cast<std::size_t>(out)].count, out,
              tag + s));
        }
        co_await proc.waitall(std::move(reqs));
      }
      break;
    }
    case CollAlgo::Tree: {
      const int rounds = bruckRounds(n, tuning.radix);
      const int tag =
          proc.allocCollectiveTags(std::max(1, rounds * (tuning.radix - 1) * 2));
      co_await bruckAlltoallv(proc, send, recv, send_blocks, recv_blocks,
                              send_views, recv_views, tuning.radix, rounds,
                              tag);
      break;
    }
  }
}

sim::Task<void> allgatherv(Proc& proc, gpu::MemSpan send, gpu::MemSpan recv,
                           const std::vector<VBlock>& blocks,
                           const CollTuning& tuning) {
  const int n = proc.worldSize();
  const int me = proc.rank();
  validateTuning(tuning);
  DKF_CHECK_MSG(blocks.size() == static_cast<std::size_t>(n),
                "allgatherv needs one block per rank");
  std::vector<BlockView> views;
  views.reserve(blocks.size());
  std::vector<std::size_t> sizes(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    // Every rank's block must fit the *recv* buffer everywhere; the send
    // buffer only has to cover this rank's own block.
    views.push_back(resolveBlock(proc, blocks[static_cast<std::size_t>(r)],
                                 recv, "allgatherv"));
    sizes[static_cast<std::size_t>(r)] = views.back().packed;
  }
  const BlockView& mine_view = views[static_cast<std::size_t>(me)];
  DKF_CHECK_MSG(mine_view.offset + mine_view.extent <= send.size(),
                "allgatherv own block exceeds the send buffer");
  warmBlockPlans(proc, core::FusionOp::Packing, {mine_view});
  warmBlockPlans(proc, core::FusionOp::Unpacking, views);

  const auto offs = prefixOffsets(sizes);
  const std::size_t total = offs.back();
  gpu::MemSpan mine{};
  if (mine_view.packed > 0) {
    mine = proc.allocDevice(mine_view.packed);
    co_await proc.pack(blockSpan(send, mine_view),
                       blocks[static_cast<std::size_t>(me)].type,
                       blocks[static_cast<std::size_t>(me)].count, mine);
  }
  auto full = proc.allocDevice(std::max<std::size_t>(total, 1));

  switch (tuning.algo) {
    case CollAlgo::Flat: {
      const int tag = proc.allocCollectiveTags(n);
      co_await flatAllgatherBytes(proc, sizes, offs, mine, full, tag);
      break;
    }
    case CollAlgo::Ring: {
      const int tag = proc.allocCollectiveTags(n);
      co_await ringAllgatherBytes(proc, sizes, offs, mine, full, tag);
      break;
    }
    case CollAlgo::Tree: {
      // Gather the rank-major concatenation to rank 0, then broadcast the
      // whole concatenation down the same tree (root 0: rel == abs).
      const int tag_up = proc.allocCollectiveTags(n);
      const int tag_down = proc.allocCollectiveTags(n);
      co_await treeGatherBytes(proc, /*root=*/0, tuning.radix, sizes, mine,
                               full, tag_up);
      co_await treeBcastBytes(proc, /*root=*/0, tuning.radix, full, total,
                              tag_down);
      break;
    }
  }

  // Every contribution — own included — lands in recv through the same
  // warmed unpack plan, in pinned rank order.
  for (int r = 0; r < n; ++r) {
    const BlockView& bv = views[static_cast<std::size_t>(r)];
    if (bv.packed == 0) continue;
    co_await proc.unpack(full.subspan(offs[static_cast<std::size_t>(r)],
                                      bv.packed),
                         blockSpan(recv, bv),
                         blocks[static_cast<std::size_t>(r)].type,
                         blocks[static_cast<std::size_t>(r)].count);
  }
  proc.freeDevice(full);
  if (mine_view.packed > 0) proc.freeDevice(mine);
}

sim::Task<void> neighborAlltoallw(Proc& proc, gpu::MemSpan buf,
                                  const std::vector<NeighborOp>& ops) {
  // One invocation reserves max(tag)+1 tags; the neighborhood's tag values
  // must therefore span the same range on every rank (they do for the halo
  // face sets, which use 0..faces-1 everywhere).
  int span = 1;
  for (const NeighborOp& op : ops) {
    span = std::max(span, std::max(op.send_tag, op.recv_tag) + 1);
  }
  const int tag = proc.allocCollectiveTags(span);
  std::vector<RequestPtr> reqs;
  reqs.reserve(ops.size() * 2);
  for (const NeighborOp& op : ops) {
    reqs.push_back(co_await proc.irecv(buf, op.recv_type, 1, op.neighbor,
                                       tag + op.recv_tag));
    reqs.push_back(co_await proc.isend(buf, op.send_type, 1, op.neighbor,
                                       tag + op.send_tag));
  }
  co_await proc.waitall(std::move(reqs));
}

}  // namespace dkf::mpi
