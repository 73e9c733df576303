#include "mpi/collectives.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "mpi/schedule.hpp"

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

// ---- Block resolution ---------------------------------------------------

BlockView resolveBlock(Proc& proc, const VBlock& b, const gpu::MemSpan& buf,
                       const char* what) {
  if (b.count == 0) return BlockView{b.type, 0, b.offset, 0, 0, nullptr};
  DKF_CHECK_MSG(b.type != nullptr, what << " block has no datatype");
  auto layout = proc.layoutCache().get(b.type, b.count);
  DKF_CHECK_MSG(layout->minOffset() >= 0,
                what << " block layout reaches below its offset");
  const auto extent = static_cast<std::size_t>(layout->endOffset());
  DKF_CHECK_MSG(b.offset + extent <= buf.size(),
                what << " block exceeds its buffer: offset " << b.offset
                     << " + extent " << extent << " > " << buf.size());
  return BlockView{b.type, b.count, b.offset, extent, layout->size(), layout};
}

/// The span a typed send/recv of this block binds to.
gpu::MemSpan blockSpan(const gpu::MemSpan& buf, const BlockView& bv) {
  return buf.subspan(bv.offset, bv.extent);
}

std::vector<std::size_t> prefixOffsets(const std::vector<std::size_t>& sizes) {
  std::vector<std::size_t> offs(sizes.size() + 1, 0);
  std::partial_sum(sizes.begin(), sizes.end(), offs.begin() + 1);
  return offs;
}

/// Copy this rank's payload into its slot of a concatenation.
void copyOwnSlot(gpu::MemSpan full, std::size_t offset,
                 const gpu::MemSpan& mine, std::size_t bytes) {
  if (bytes == 0) return;
  std::memcpy(full.bytes.data() + offset, mine.bytes.data(), bytes);
}

/// Append a post of `buf`'s bytes; a zero-size payload posts nothing.
void postBytes(Round& round, bool send, gpu::MemSpan buf, int peer, int tag) {
  if (buf.size() == 0) return;
  round.push_back({send, buf, ddt::Datatype::byte(), buf.size(), peer, tag});
}

/// Append a typed post of a resolved block; an empty block posts nothing.
void postBlock(Round& round, bool send, const gpu::MemSpan& buf,
               const BlockView& bv, int peer, int tag) {
  if (bv.packed == 0) return;
  round.push_back({send, blockSpan(buf, bv), bv.type, bv.count, peer, tag});
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

/// Range-tree gather: the concatenation lands in the root's `full`; other
/// ranks stage their subtree in scratch and leave `full` unused.
sim::Task<void> treeGatherBytes(Proc& proc, int root, int radix,
                                const std::vector<std::size_t>& sizes,
                                gpu::MemSpan mine, gpu::MemSpan full,
                                int tag) {
  const int n = proc.worldSize();
  const int me = proc.rank();
  const TreeNode node = treeNodeOf(relRank(me, root, n), n, radix);
  std::size_t sub_bytes = 0;
  for (int i = node.lo; i < node.hi; ++i) {
    sub_bytes += sizes[absRank(i, root, n)];
  }
  const bool staged = me != root && sub_bytes > 0;
  const gpu::MemSpan buf = staged ? proc.allocDevice(sub_bytes) : full;
  DKF_CHECK(buf.size() >= sub_bytes);
  copyOwnSlot(buf, 0, mine, sizes[me]);
  const Schedule sched = treeGather(me, n, root, radix, sizes, buf, tag);
  co_await runSchedule(proc, sched);
  if (staged) proc.freeDevice(buf);
}

// ---- Canonical fold ---------------------------------------------------

/// res := contribution of abs rank 0, then folded with abs ranks 1..n-1 in
/// order. Slot 0 of the concatenation holds rank `first`'s payload (0 for
/// abs-major buffers; tree gathers rooted elsewhere concatenate in rel-rank
/// order). The pinned order is what makes Float64 results byte-identical
/// across flat/ring/tree.
void foldContributions(gpu::MemSpan res, const gpu::MemSpan& full,
                       const std::vector<std::size_t>& offs, int n, int first,
                       std::size_t elems, ReduceType type, ReduceOp op) {
  const std::size_t bytes = elems * elementSize(type);
  const auto slot = [&](int r) {
    return full.bytes.subspan(offs[relRank(r, first, n)], bytes);
  };
  std::memcpy(res.bytes.data(), slot(0).data(), bytes);
  for (int r = 1; r < n; ++r) applyReduce(res.bytes, slot(r), elems, type, op);
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

/// What precedes each chunk in an aggregated payload.
struct ChunkHeader {
  std::int32_t src;
  std::int32_t dst;
  std::uint64_t len;
};
static_assert(std::has_unique_object_representations_v<ChunkHeader>);
constexpr std::size_t kBruckHeaderBytes = sizeof(ChunkHeader);

/// Store-and-forward alltoallv: each block is packed once at its origin,
/// then routed as an opaque chunk tagged (src, dst, len). In round k a
/// chunk whose remaining relative distance has digit d at position k
/// (base radix) rides the aggregated payload to (cur + d*radix^k) mod n;
/// after ceil(log_radix n) rounds every chunk has reached its destination,
/// where it is unpacked through the receiver's block plan. Intermediate
/// hops never touch the datatype — pack and unpack happen exactly once.
sim::Task<void> bruckAlltoallv(Proc& proc, gpu::MemSpan send,
                               gpu::MemSpan recv,
                               const std::vector<BlockView>& send_views,
                               const std::vector<BlockView>& recv_views,
                               int radix, int rounds, int tag) {
  const int n = proc.worldSize();
  const int me = proc.rank();

  // Pack every outgoing block at the origin (self already handled by the
  // caller).
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
      co_await proc.pack(blockSpan(send, bv), bv.type, bv.count,
                         scratch.subspan(0, bv.packed));
      pending.push_back({.src = me,
                         .dst = d,
                         .bytes = proc.payloadPool().capture(
                             {scratch.bytes.data(), bv.packed})});
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
          const ChunkHeader h{c.src, c.dst, c.bytes.size()};
          std::memcpy(payload.bytes.data() + pos, &h, kBruckHeaderBytes);
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
        ChunkHeader h;
        std::memcpy(&h, payload.bytes.data() + pos, kBruckHeaderBytes);
        pos += kBruckHeaderBytes;
        DKF_CHECK(pos + h.len <= payload_bytes);
        if (h.dst == me) {
          const BlockView& bv = recv_views[static_cast<std::size_t>(h.src)];
          DKF_CHECK_MSG(h.len == bv.packed,
                        "alltoallv block size mismatch: rank "
                            << h.src << " sent " << h.len << " bytes, rank "
                            << me << " expects " << bv.packed);
          co_await proc.unpack(payload.subspan(pos, h.len),
                               blockSpan(recv, bv), bv.type, bv.count);
        } else {
          pending.push_back({.src = h.src,
                             .dst = h.dst,
                             .bytes = proc.payloadPool().capture(
                                 {payload.bytes.data() + pos, h.len})});
        }
        pos += h.len;
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

// ---- The executor and the schedule generators (schedule.hpp) ----------

sim::Task<void> runSchedule(Proc& proc, const Schedule& schedule) {
  for (const Round& round : schedule) {
    std::vector<RequestPtr> reqs;
    for (const Post& p : round) {
      if (p.send) {
        reqs.push_back(
            co_await proc.isend(p.buf, p.type, p.count, p.peer, p.tag));
      } else {
        reqs.push_back(
            co_await proc.irecv(p.buf, p.type, p.count, p.peer, p.tag));
      }
    }
    co_await proc.waitall(std::move(reqs));
  }
}

Schedule flatAllgather(int me, int n, const std::vector<std::size_t>& sizes,
                       gpu::MemSpan mine, gpu::MemSpan full, int tag) {
  const auto offs = prefixOffsets(sizes);
  Schedule sched(1);
  for (int r = 0; r < n; ++r) {
    if (r == me) continue;
    postBytes(sched[0], false, full.subspan(offs[r], sizes[r]), r, tag + r);
    postBytes(sched[0], true, mine.subspan(0, sizes[me]), r, tag + me);
  }
  return sched;
}

Schedule ringAllgather(int me, int n, const std::vector<std::size_t>& sizes,
                       gpu::MemSpan full, int tag) {
  const auto offs = prefixOffsets(sizes);
  const auto slot = [&](int r) { return full.subspan(offs[r], sizes[r]); };
  const int right = (me + 1) % n;
  const int left = (me - 1 + n) % n;
  Schedule sched;
  for (int s = 1; s < n; ++s) {
    const int src_out = (me - s + 1 + n) % n;  // block I forward this step
    const int src_in = (me - s + n) % n;       // block that arrives
    Round& round = sched.emplace_back();
    postBytes(round, false, slot(src_in), left, tag + s);
    postBytes(round, true, slot(src_out), right, tag + s);
  }
  return sched;
}

Schedule flatGather(int me, int n, int root,
                    const std::vector<std::size_t>& sizes, gpu::MemSpan mine,
                    gpu::MemSpan full, int tag) {
  Schedule sched;
  if (me == root) {
    const auto offs = prefixOffsets(sizes);
    Round& round = sched.emplace_back();
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      postBytes(round, false, full.subspan(offs[r], sizes[r]), r, tag + r);
    }
  } else if (sizes[me] > 0) {
    postBytes(sched.emplace_back(), true, mine.subspan(0, sizes[me]), root,
              tag + me);
  }
  return sched;
}

Schedule treeGather(int me, int n, int root, int radix,
                    const std::vector<std::size_t>& sizes, gpu::MemSpan buf,
                    int tag) {
  std::vector<std::size_t> rel_sizes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) rel_sizes[i] = sizes[absRank(i, root, n)];
  const auto offs = prefixOffsets(rel_sizes);
  const TreeNode node = treeNodeOf(relRank(me, root, n), n, radix);
  const std::size_t sub_off = offs[node.lo];
  const std::size_t sub_bytes = offs[node.hi] - sub_off;
  Schedule sched(1);  // leaves wait on no receives
  for (const auto& [clo, chi] : treeChildren(node.lo, node.hi, radix)) {
    const auto child = buf.subspan(offs[clo] - sub_off, offs[chi] - offs[clo]);
    postBytes(sched[0], false, child, absRank(clo, root, n), tag + clo);
  }
  if (node.parent >= 0 && sub_bytes > 0) {
    postBytes(sched.emplace_back(), true, buf.subspan(0, sub_bytes),
              absRank(node.parent, root, n), tag + node.lo);
  }
  return sched;
}

Schedule treeBcast(int me, int n, int root, int radix, gpu::MemSpan buf,
                   std::size_t bytes, int tag) {
  Schedule sched;
  if (bytes == 0) return sched;
  const int me_rel = relRank(me, root, n);
  const TreeNode node = treeNodeOf(me_rel, n, radix);
  const gpu::MemSpan payload = buf.subspan(0, bytes);
  if (me_rel != 0) {
    postBytes(sched.emplace_back(), false, payload,
              absRank(node.parent, root, n), tag + node.lo);
  }
  Round& sends = sched.emplace_back();  // leaves wait on no sends
  for (const auto& [clo, chi] : treeChildren(node.lo, node.hi, radix)) {
    postBytes(sends, true, payload, absRank(clo, root, n), tag + clo);
  }
  return sched;
}

Schedule binomialBcast(int me, int n, int root, gpu::MemSpan buf,
                       const ddt::DatatypePtr& type, std::size_t count,
                       int tag) {
  // A rank receives from the rank that clears the lowest set bit of its
  // relative rank, then forwards to me + mask/2, me + mask/4, ... below it.
  const int me_rel = relRank(me, root, n);
  int mask = 1;
  while (mask < n && (me_rel & mask) == 0) mask <<= 1;
  Schedule sched;
  if (me_rel != 0) {
    sched.emplace_back().push_back(Post{false, buf, type, count,
                                        absRank(me_rel - mask, root, n),
                                        tag + me_rel});
  }
  Round& sends = sched.emplace_back();  // leaves wait on no sends
  for (mask >>= 1; mask > 0; mask >>= 1) {
    const int child_rel = me_rel + mask;
    if (child_rel >= n) continue;
    sends.push_back(Post{true, buf, type, count, absRank(child_rel, root, n),
                         tag + child_rel});
  }
  return sched;
}

Schedule uniformGather(int me, int n, int root, gpu::MemSpan send,
                       gpu::MemSpan recv, std::size_t bytes_per_rank,
                       int tag) {
  const auto byte = ddt::Datatype::byte();
  Schedule sched(1);
  if (me != root) {
    sched[0].push_back(Post{true, send, byte, bytes_per_rank, root, tag + me});
    return sched;
  }
  for (int r = 0; r < n; ++r) {
    if (r == root) continue;
    const auto off = static_cast<std::size_t>(r) * bytes_per_rank;
    sched[0].push_back(Post{false, recv.subspan(off, bytes_per_rank), byte,
                            bytes_per_rank, r, tag + r});
  }
  return sched;
}

Schedule uniformAlltoall(int me, int n, gpu::MemSpan send, gpu::MemSpan recv,
                         std::size_t bytes_per_rank, int tag) {
  const auto byte = ddt::Datatype::byte();
  Schedule sched(1);
  for (int r = 0; r < n; ++r) {
    if (r == me) continue;
    const auto off = static_cast<std::size_t>(r) * bytes_per_rank;
    sched[0].push_back(Post{false, recv.subspan(off, bytes_per_rank), byte,
                            bytes_per_rank, r, tag + me});
    sched[0].push_back(Post{true, send.subspan(off, bytes_per_rank), byte,
                            bytes_per_rank, r, tag + r});
  }
  return sched;
}

Schedule flatAlltoallv(int me, int n, gpu::MemSpan send, gpu::MemSpan recv,
                       const std::vector<BlockView>& send_views,
                       const std::vector<BlockView>& recv_views, int tag) {
  Schedule sched(1);
  for (int r = 0; r < n; ++r) {
    if (r == me) continue;
    postBlock(sched[0], false, recv, recv_views[r], r, tag + r);
    postBlock(sched[0], true, send, send_views[r], r, tag + me);
  }
  return sched;
}

Schedule ringAlltoallv(int me, int n, gpu::MemSpan send, gpu::MemSpan recv,
                       const std::vector<BlockView>& send_views,
                       const std::vector<BlockView>& recv_views, int tag) {
  Schedule sched;
  for (int s = 1; s < n; ++s) {
    const int out = (me + s) % n;
    const int in = (me - s + n) % n;
    Round& round = sched.emplace_back();
    postBlock(round, false, recv, recv_views[in], in, tag + s);
    postBlock(round, true, send, send_views[out], out, tag + s);
  }
  return sched;
}

Schedule neighborExchange(gpu::MemSpan buf, const std::vector<NeighborOp>& ops,
                          int tag) {
  Schedule sched(1);
  for (const NeighborOp& op : ops) {
    sched[0].push_back(
        Post{false, buf, op.recv_type, 1, op.neighbor, tag + op.recv_tag});
    sched[0].push_back(
        Post{true, buf, op.send_type, 1, op.neighbor, tag + op.send_tag});
  }
  return sched;
}

// ---- Collectives ---------------------------------------------------------

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
  const Schedule sched = binomialBcast(proc.rank(), n, root, buf, type, count,
                                       proc.allocCollectiveTags(n));
  co_await runSchedule(proc, sched);
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
  const bool need_full = tuning.algo == CollAlgo::Ring || me == root;
  if (need_full) full = proc.allocDevice(std::max<std::size_t>(offs.back(), 1));
  switch (tuning.algo) {
    case CollAlgo::Flat:
    case CollAlgo::Ring: {
      if (need_full) copyOwnSlot(full, offs[me], mine, bytes);
      Schedule sched;
      if (tuning.algo == CollAlgo::Flat) {
        sched = flatGather(me, n, root, sizes, mine, full, tag);
      } else {
        sched = ringAllgather(me, n, sizes, full, tag);
      }
      co_await runSchedule(proc, sched);
      break;
    }
    case CollAlgo::Tree:
      co_await treeGatherBytes(proc, root, tuning.radix, sizes, mine, full,
                               tag);
      break;
  }
  if (me == root) {
    const int first = tuning.algo == CollAlgo::Tree ? root : 0;
    foldContributions(mine, full, offs, n, first, count, type, op);
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

  // Contiguous layouts contribute in place; strided ones pack once (and
  // scatter the result back the same way).
  const bool contiguous = bv.layout->isContiguous() && bv.layout->minOffset() == 0;
  gpu::MemSpan contrib{};
  if (contiguous) {
    contrib = buf.subspan(0, bytes);
  } else {
    contrib = proc.allocDevice(bytes);
    co_await proc.pack(blockSpan(buf, bv), type, count, contrib);
  }

  const std::vector<std::size_t> sizes(static_cast<std::size_t>(n), bytes);
  const auto offs = prefixOffsets(sizes);
  auto res = proc.allocDevice(bytes);

  switch (tuning.algo) {
    case CollAlgo::Flat:
    case CollAlgo::Ring: {
      // Allgather the raw contributions; every rank folds the identical
      // pinned sequence locally.
      const int tag = proc.allocCollectiveTags(n);
      auto full = proc.allocDevice(offs.back());
      copyOwnSlot(full, offs[me], contrib, bytes);
      Schedule sched;
      if (tuning.algo == CollAlgo::Flat) {
        sched = flatAllgather(me, n, sizes, contrib, full, tag);
      } else {
        sched = ringAllgather(me, n, sizes, full, tag);
      }
      co_await runSchedule(proc, sched);
      foldContributions(res, full, offs, n, 0, elems, elem, op);
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
        foldContributions(res, full, offs, n, 0, elems, elem, op);
        proc.freeDevice(full);
      }
      const Schedule down =
          treeBcast(me, n, /*root=*/0, tuning.radix, res, bytes, tag_down);
      co_await runSchedule(proc, down);
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
  const int me = proc.rank();
  const int tag = proc.allocCollectiveTags(n);
  DKF_CHECK(send.size() >= bytes_per_rank);
  if (me == root) {
    DKF_CHECK(recv.size() >= bytes_per_rank * static_cast<std::size_t>(n));
    const auto own = static_cast<std::size_t>(me) * bytes_per_rank;
    std::memcpy(recv.bytes.data() + own, send.bytes.data(), bytes_per_rank);
  }
  const Schedule sched =
      uniformGather(me, n, root, send, recv, bytes_per_rank, tag);
  co_await runSchedule(proc, sched);
}

sim::Task<void> alltoall(Proc& proc, gpu::MemSpan send, gpu::MemSpan recv,
                         std::size_t bytes_per_rank) {
  const int n = proc.worldSize();
  const int me = proc.rank();
  const int tag = proc.allocCollectiveTags(n);
  DKF_CHECK(send.size() >= bytes_per_rank * static_cast<std::size_t>(n));
  DKF_CHECK(recv.size() >= bytes_per_rank * static_cast<std::size_t>(n));
  const auto own = static_cast<std::size_t>(me) * bytes_per_rank;
  std::memcpy(recv.bytes.data() + own, send.bytes.data() + own,
              bytes_per_rank);
  const Schedule sched =
      uniformAlltoall(me, n, send, recv, bytes_per_rank, tag);
  co_await runSchedule(proc, sched);
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
  for (int r = 0; r < n; ++r) {
    send_views.push_back(resolveBlock(
        proc, send_blocks[static_cast<std::size_t>(r)], send, "alltoallv send"));
    recv_views.push_back(resolveBlock(
        proc, recv_blocks[static_cast<std::size_t>(r)], recv, "alltoallv recv"));
  }

  // The self block moves locally through the same pack/unpack plans every
  // topology uses, so all variants write identical bytes.
  const BlockView& sv = send_views[static_cast<std::size_t>(me)];
  const BlockView& rv = recv_views[static_cast<std::size_t>(me)];
  if (sv.packed > 0) {
    DKF_CHECK_MSG(sv.packed == rv.packed,
                  "alltoallv self block sizes disagree: " << sv.packed
                                                          << " vs "
                                                          << rv.packed);
    auto scratch = proc.allocDevice(sv.packed);
    co_await proc.pack(blockSpan(send, sv), sv.type, sv.count, scratch);
    co_await proc.unpack(scratch, blockSpan(recv, rv), rv.type, rv.count);
    proc.freeDevice(scratch);
  }

  switch (tuning.algo) {
    case CollAlgo::Flat:
    case CollAlgo::Ring: {
      // Typed posts: the engine packs each message through the rank's one
      // cached plan per layout signature.
      const int tag = proc.allocCollectiveTags(n);
      Schedule sched;
      if (tuning.algo == CollAlgo::Flat) {
        sched = flatAlltoallv(me, n, send, recv, send_views, recv_views, tag);
      } else {
        sched = ringAlltoallv(me, n, send, recv, send_views, recv_views, tag);
      }
      co_await runSchedule(proc, sched);
      break;
    }
    case CollAlgo::Tree: {
      const int rounds = bruckRounds(n, tuning.radix);
      const int tag =
          proc.allocCollectiveTags(std::max(1, rounds * (tuning.radix - 1) * 2));
      co_await bruckAlltoallv(proc, send, recv, send_views, recv_views,
                              tuning.radix, rounds, tag);
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

  const auto offs = prefixOffsets(sizes);
  const std::size_t total = offs.back();
  gpu::MemSpan mine{};
  if (mine_view.packed > 0) {
    mine = proc.allocDevice(mine_view.packed);
    co_await proc.pack(blockSpan(send, mine_view), mine_view.type,
                       mine_view.count, mine);
  }
  auto full = proc.allocDevice(std::max<std::size_t>(total, 1));

  switch (tuning.algo) {
    case CollAlgo::Flat:
    case CollAlgo::Ring: {
      const int tag = proc.allocCollectiveTags(n);
      copyOwnSlot(full, offs[me], mine, mine_view.packed);
      Schedule sched;
      if (tuning.algo == CollAlgo::Flat) {
        sched = flatAllgather(me, n, sizes, mine, full, tag);
      } else {
        sched = ringAllgather(me, n, sizes, full, tag);
      }
      co_await runSchedule(proc, sched);
      break;
    }
    case CollAlgo::Tree: {
      // Gather the rank-major concatenation to rank 0, then broadcast the
      // whole concatenation down the same tree (root 0: rel == abs).
      const int tag_up = proc.allocCollectiveTags(n);
      const int tag_down = proc.allocCollectiveTags(n);
      co_await treeGatherBytes(proc, /*root=*/0, tuning.radix, sizes, mine,
                               full, tag_up);
      const Schedule down =
          treeBcast(me, n, /*root=*/0, tuning.radix, full, total, tag_down);
      co_await runSchedule(proc, down);
      break;
    }
  }

  // Every contribution — own included — lands in recv through the same
  // cached unpack plan, in pinned rank order.
  for (int r = 0; r < n; ++r) {
    const BlockView& bv = views[static_cast<std::size_t>(r)];
    if (bv.packed == 0) continue;
    co_await proc.unpack(full.subspan(offs[static_cast<std::size_t>(r)],
                                      bv.packed),
                         blockSpan(recv, bv), bv.type, bv.count);
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
  const Schedule sched =
      neighborExchange(buf, ops, proc.allocCollectiveTags(span));
  co_await runSchedule(proc, sched);
}

}  // namespace dkf::mpi
