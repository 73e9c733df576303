// Collectives as data (MODEL.md §12): a schedule is the rounds of posts one
// rank makes for one collective invocation, and runSchedule the one
// executor. The generators are pure functions of (rank, world size, root,
// radix, sizes or blocks, buffers, tag base) that touch no Proc, engine or
// buffer byte, so a test can check every rank's schedule without running it.
#pragma once

#include <vector>

#include "mpi/collectives.hpp"

namespace dkf::mpi {

/// One non-blocking point-to-point operation.
struct Post {
  bool send{false};
  gpu::MemSpan buf;
  ddt::DatatypePtr type;
  std::size_t count{0};
  int peer{0};
  int tag{0};
};

/// Posts issued in order, then awaited by one waitall.
using Round = std::vector<Post>;
using Schedule = std::vector<Round>;

sim::Task<void> runSchedule(Proc& proc, const Schedule& schedule);

/// A VBlock resolved against its buffer (bounds-checked extent, packed
/// size); a zero-count block resolves to an empty view that posts nothing.
struct BlockView {
  ddt::DatatypePtr type;
  std::size_t count{0};
  std::size_t offset{0};
  std::size_t extent{0};
  std::size_t packed{0};
  ddt::LayoutPtr layout;
};

// `sizes` holds each rank's payload bytes and `full` their rank-major
// concatenation; `tag` is the first of the n tags the invocation reserved
// (neighborExchange: max tag + 1). Zero-size payloads post nothing, except
// in the uniform generators.

Schedule flatAllgather(int me, int n, const std::vector<std::size_t>& sizes,
                       gpu::MemSpan mine, gpu::MemSpan full, int tag);
Schedule ringAllgather(int me, int n, const std::vector<std::size_t>& sizes,
                       gpu::MemSpan full, int tag);
Schedule flatGather(int me, int n, int root,
                    const std::vector<std::size_t>& sizes, gpu::MemSpan mine,
                    gpu::MemSpan full, int tag);
/// `buf` holds `me`'s subtree of the rel-rank-major concatenation.
Schedule treeGather(int me, int n, int root, int radix,
                    const std::vector<std::size_t>& sizes, gpu::MemSpan buf,
                    int tag);
Schedule treeBcast(int me, int n, int root, int radix, gpu::MemSpan buf,
                   std::size_t bytes, int tag);
Schedule binomialBcast(int me, int n, int root, gpu::MemSpan buf,
                       const ddt::DatatypePtr& type, std::size_t count,
                       int tag);
Schedule uniformGather(int me, int n, int root, gpu::MemSpan send,
                       gpu::MemSpan recv, std::size_t bytes_per_rank, int tag);
Schedule uniformAlltoall(int me, int n, gpu::MemSpan send, gpu::MemSpan recv,
                         std::size_t bytes_per_rank, int tag);
Schedule flatAlltoallv(int me, int n, gpu::MemSpan send, gpu::MemSpan recv,
                       const std::vector<BlockView>& send_views,
                       const std::vector<BlockView>& recv_views, int tag);
Schedule ringAlltoallv(int me, int n, gpu::MemSpan send, gpu::MemSpan recv,
                       const std::vector<BlockView>& send_views,
                       const std::vector<BlockView>& recv_views, int tag);
Schedule neighborExchange(gpu::MemSpan buf, const std::vector<NeighborOp>& ops,
                          int tag);

}  // namespace dkf::mpi
