#include "workloads/halo_exchanger.hpp"

#include "common/check.hpp"

namespace dkf::workloads {

HaloExchanger::HaloExchanger(mpi::Proc& proc, gpu::MemSpan block,
                             Config config)
    : proc_(&proc), block_(block), config_(config) {
  const std::size_t total = config_.n + 2 * config_.ghost;
  DKF_CHECK_MSG(block_.size() >= total * total * total * 8,
                "halo block too small: need "
                    << total * total * total * 8 << " bytes, got "
                    << block_.size());
  const int grid_ranks =
      config_.grid[0] * config_.grid[1] * config_.grid[2];
  DKF_CHECK_MSG(proc.rank() < grid_ranks,
                "rank " << proc.rank() << " outside the " << grid_ranks
                        << "-rank grid");

  // Node-major rank layout: rank = (x * gy + y) * gz + z.
  coords_ = {proc.rank() / (config_.grid[1] * config_.grid[2]),
             (proc.rank() / config_.grid[2]) % config_.grid[1],
             proc.rank() % config_.grid[2]};

  const auto faces = halo3dFaces(config_.n, config_.ghost);
  for (std::size_t f = 0; f < faces.size(); ++f) {
    const auto& face = faces[f];
    // Face f pairs with the mirrored face f^1 on the neighbor.
    faces_.push_back({.neighbor = rankAt({coords_[0] + face.neighbor_dx[0],
                                          coords_[1] + face.neighbor_dx[1],
                                          coords_[2] + face.neighbor_dx[2]}),
                      .send_type = face.send_type,
                      .recv_type = face.recv_type,
                      .send_tag = static_cast<int>(f),
                      .recv_tag = static_cast<int>(f ^ 1)});
    bytes_per_exchange_ += face.send_type->size();
  }
}

int HaloExchanger::rankAt(std::array<int, 3> c) const {
  auto wrap = [](int v, int m) { return ((v % m) + m) % m; };
  const int x = wrap(c[0], config_.grid[0]);
  const int y = wrap(c[1], config_.grid[1]);
  const int z = wrap(c[2], config_.grid[2]);
  return (x * config_.grid[1] + y) * config_.grid[2] + z;
}

sim::Task<void> HaloExchanger::exchange() {
  co_await mpi::neighborAlltoallw(*proc_, block_, faces_);
  ++exchanges_;
}

}  // namespace dkf::workloads
