// HaloExchanger: a persistent, high-level halo-exchange helper over the
// MPI runtime — the API shape a domain-decomposition application (Comb,
// SPECFEM3D, MILC) would adopt instead of hand-rolling Algorithm 1/2/3.
//
// The application registers its local block, the rank grid, and the ghost
// width once; the exchanger derives the subarray datatypes and neighbor
// mapping (periodic torus), and each exchange() is one neighborAlltoallw
// over the six faces — all non-blocking face transfers posted, then one
// wait, which is exactly the bulk pattern the fusion engine batches.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "mpi/collectives.hpp"
#include "workloads/workloads.hpp"

namespace dkf::workloads {

class HaloExchanger {
 public:
  struct Config {
    std::size_t n{16};         ///< owned cells per dimension
    std::size_t ghost{1};      ///< ghost-shell width
    std::array<int, 3> grid{2, 2, 2};  ///< ranks per dimension (periodic)
  };

  /// `block` must hold (n+2*ghost)^3 doubles on the proc's GPU.
  HaloExchanger(mpi::Proc& proc, gpu::MemSpan block, Config config);

  /// Perform one full 6-face halo exchange (12 non-blocking operations).
  sim::Task<void> exchange();

  /// Number of point-to-point operations per exchange (sends + recvs).
  std::size_t messagesPerExchange() const { return faces_.size() * 2; }
  /// Payload bytes moved per exchange (sum over faces, one direction).
  std::size_t bytesPerExchange() const { return bytes_per_exchange_; }
  std::size_t exchangesDone() const { return exchanges_; }

  const Config& config() const { return config_; }
  /// This rank's coordinates in the rank grid.
  std::array<int, 3> coords() const { return coords_; }
  /// The rank at grid coordinates (periodic wrap).
  int rankAt(std::array<int, 3> c) const;

 private:
  mpi::Proc* proc_;
  gpu::MemSpan block_;
  Config config_;
  std::array<int, 3> coords_{};
  std::vector<mpi::NeighborOp> faces_;
  std::size_t bytes_per_exchange_{0};
  std::size_t exchanges_{0};
};

}  // namespace dkf::workloads
