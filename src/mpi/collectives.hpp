// Fusion-aware collectives layered on the point-to-point runtime (MODEL.md
// §12). The halo applications the paper targets use neighborhood
// collectives (MPI_Neighbor_alltoallw is exactly "send one derived-datatype
// face to each neighbor"), and the MVAPICH context the fusion framework
// ships in provides the full collective set. Each fixed-sequence collective
// is a schedule of post rounds run by one executor (mpi/schedule.hpp).
//
// Every reduction folds the ranks' raw contributions in absolute rank order
// 0..n-1 whichever topology carried them, so Float64 results are
// byte-identical across algorithms and sweep threads. Each invocation
// reserves a fresh tag span from Proc::allocCollectiveTags. All run over
// the runtime's whole world, ranks [0, worldSize()).
#pragma once

#include <vector>

#include "mpi/runtime.hpp"

namespace dkf::mpi {

/// Binary reduction operator over raw element bytes.
enum class ReduceOp { Sum, Min, Max };

/// Element type for reductions (the collective needs arithmetic, not just
/// bytes).
enum class ReduceType { Float64, Int64 };

/// Which topology a collective routes over: direct sends to every peer,
/// a staged ring, or a k-ary tree (MODEL.md §12).
enum class CollAlgo { Flat, Ring, Tree };

const char* collAlgoName(CollAlgo algo);

/// Per-invocation algorithm selection. `radix` is the tree fan-out (k-ary
/// range tree for gather/bcast-shaped collectives, digit base for the
/// store-and-forward alltoallv); it must be >= 2 and is ignored by the
/// flat and ring variants.
struct CollTuning {
  CollAlgo algo{CollAlgo::Tree};
  int radix{2};
};

/// One rank's slice of a v-collective buffer: `count` elements of `type`
/// starting `offset` bytes into the buffer. The layout's extent must fit
/// inside the buffer and may not reach below the offset (minOffset >= 0).
struct VBlock {
  ddt::DatatypePtr type;
  std::size_t count{1};
  std::size_t offset{0};
};

/// Broadcast `count` elements of `type` from `root` over a binomial tree.
/// Every rank calls this with its own proc and buffer.
sim::Task<void> bcast(Proc& proc, gpu::MemSpan buf, ddt::DatatypePtr type,
                      std::size_t count, int root);

/// Reduce element-wise into root's buffer. `buf` holds the rank's
/// contribution on entry; on the root it holds the result on exit (other
/// ranks' buffers are left untouched). The combine folds contributions in
/// absolute rank order regardless of `tuning`.
sim::Task<void> reduce(Proc& proc, gpu::MemSpan buf, std::size_t count,
                       ReduceType type, ReduceOp op, int root,
                       const CollTuning& tuning = {});

/// Allreduce over contiguous elements; result lands on every rank.
sim::Task<void> allreduce(Proc& proc, gpu::MemSpan buf, std::size_t count,
                          ReduceType type, ReduceOp op,
                          const CollTuning& tuning = {});

/// Derived-datatype allreduce: the elements selected by (type, count) over
/// `buf` — packed order — are reduced element-wise across ranks and the
/// result is scattered back through the same layout. The packed size must
/// be a whole number of `elem` elements.
sim::Task<void> allreduceDdt(Proc& proc, gpu::MemSpan buf,
                             ddt::DatatypePtr type, std::size_t count,
                             ReduceType elem, ReduceOp op,
                             const CollTuning& tuning = {});

/// Gather `bytes_per_rank` from every rank into root's `recv` buffer
/// (rank-major).
sim::Task<void> gather(Proc& proc, gpu::MemSpan send, gpu::MemSpan recv,
                       std::size_t bytes_per_rank, int root);

/// All ranks exchange `bytes_per_rank` with every other rank; `send` and
/// `recv` are rank-major matrices of worldSize() blocks.
sim::Task<void> alltoall(Proc& proc, gpu::MemSpan send, gpu::MemSpan recv,
                         std::size_t bytes_per_rank);

/// Derived-datatype alltoallv: send_blocks[d] describes the block this
/// rank sends to rank d inside `send`; recv_blocks[s] describes where the
/// block from rank s lands inside `recv` (both vectors are worldSize()
/// long; the self block is moved locally through the same pack/unpack
/// plans). Matching blocks must have equal packed sizes.
sim::Task<void> alltoallv(Proc& proc, gpu::MemSpan send, gpu::MemSpan recv,
                          const std::vector<VBlock>& send_blocks,
                          const std::vector<VBlock>& recv_blocks,
                          const CollTuning& tuning = {});

/// Derived-datatype allgatherv: every rank contributes the block
/// `blocks[rank]` read from its own `send` buffer, and every rank's `recv`
/// buffer receives all n contributions, each unpacked through its own
/// blocks[r] (identical send/recv type maps; `blocks` is worldSize() long
/// and identical on every rank, so all block sizes are locally known).
sim::Task<void> allgatherv(Proc& proc, gpu::MemSpan send, gpu::MemSpan recv,
                           const std::vector<VBlock>& blocks,
                           const CollTuning& tuning = {});

/// Neighborhood alltoall-w: each op sends one `send_type` from `buf` to
/// `neighbor` and receives one `recv_type` into `buf` from it — the halo
/// collective (MPI_Neighbor_alltoallw over a cartesian communicator). A
/// send's `send_tag` is the `recv_tag` of the neighbor's op receiving it.
struct NeighborOp {
  int neighbor;
  ddt::DatatypePtr send_type;
  ddt::DatatypePtr recv_type;
  int send_tag;
  int recv_tag;
};
sim::Task<void> neighborAlltoallw(Proc& proc, gpu::MemSpan buf,
                                  const std::vector<NeighborOp>& ops);

}  // namespace dkf::mpi
