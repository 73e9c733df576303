#include "workloads/workloads.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dkf::workloads {

namespace {

/// Deterministic irregular boundary list: `n` strictly increasing element
/// displacements with pseudo-random gaps of 1..5 elements — the shape of an
/// unstructured-mesh boundary (SPECFEM3D).
std::vector<std::int64_t> boundaryList(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> displs(n);
  std::int64_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    displs[i] = cursor;
    cursor += 1 + static_cast<std::int64_t>(rng.range(1, 4));
  }
  return displs;
}

}  // namespace

Workload specfem3dOc(std::size_t dim) {
  DKF_CHECK(dim > 0);
  const std::size_t points = 32 * dim;
  const auto displs = boundaryList(points, /*seed=*/0x0C);
  const std::vector<std::size_t> lens(points, 1);
  auto type = ddt::Datatype::indexed(lens, displs, ddt::Datatype::float32());
  return Workload{"specfem3D_oc", std::move(type), 1, /*sparse=*/true};
}

Workload specfem3dCm(std::size_t dim) {
  DKF_CHECK(dim > 0);
  const std::size_t points = 16 * dim;
  const auto displs = boundaryList(points, /*seed=*/0xC3);
  const std::vector<std::size_t> lens(points, 1);
  auto field = ddt::Datatype::indexed(lens, displs, ddt::Datatype::float32());

  // Three displacement fields (x, y, z) stored as separate arrays; the
  // struct places each field's indexed pattern at its array base.
  const auto field_extent = static_cast<std::int64_t>(field->extent());
  const std::vector<std::size_t> slens{1, 1, 1};
  const std::vector<std::int64_t> sdispls{0, field_extent, 2 * field_extent};
  const std::vector<ddt::DatatypePtr> stypes{field, field, field};
  auto type = ddt::Datatype::struct_(slens, sdispls, stypes);
  return Workload{"specfem3D_cm", std::move(type), 1, /*sparse=*/true};
}

Workload milcZdown(std::size_t dim) {
  DKF_CHECK(dim >= 2);
  // One lattice site carries an su3 vector: 3 complex doubles, 48 B.
  auto su3 = ddt::Datatype::contiguous(3, ddt::Datatype::complexDouble());
  // The z-face: dim rows, each a contiguous run of dim/2 sites, strided by
  // a full row of dim sites (nested-vector construction as in ddtbench).
  auto inner = ddt::Datatype::vector(dim / 2, 1, 1, su3);
  auto type = ddt::Datatype::hvector(
      dim, 1, static_cast<std::int64_t>(48 * dim), inner);
  return Workload{"MILC", std::move(type), 1, /*sparse=*/false};
}

Workload nasMgFace(std::size_t dim) {
  DKF_CHECK(dim > 0);
  // y-face of a dim^3 double grid: dim rows of dim contiguous doubles,
  // strided by a dim^2 plane.
  auto type = ddt::Datatype::vector(
      dim, dim, static_cast<std::int64_t>(dim * dim),
      ddt::Datatype::float64());
  return Workload{"NAS_MG", std::move(type), 1, /*sparse=*/false};
}

std::vector<Workload> paperWorkloads(std::size_t dim) {
  return {specfem3dOc(dim), specfem3dCm(dim), milcZdown(dim), nasMgFace(dim)};
}

Workload wrfXzPlane(std::size_t dim) {
  DKF_CHECK(dim >= 2);
  // One variable's x-z ghost plane: subarray [dim, 1, dim] at y = dim-1 of
  // a dim^3 float grid.
  const std::vector<std::size_t> sizes{dim, dim, dim};
  const std::vector<std::size_t> subsizes{dim, 1, dim};
  const std::vector<std::size_t> starts{0, dim - 1, 0};
  auto plane = ddt::Datatype::subarray(sizes, subsizes, starts,
                                       ddt::Datatype::Order::C,
                                       ddt::Datatype::float32());
  // Two field variables stored back to back (struct-of-subarrays, as the
  // ddtbench wrf_*_vec tests build from the WRF halo code).
  const auto var_extent = static_cast<std::int64_t>(plane->extent());
  const std::vector<std::size_t> lens{1, 1};
  const std::vector<std::int64_t> displs{0, var_extent};
  const std::vector<ddt::DatatypePtr> members{plane, plane};
  auto type = ddt::Datatype::struct_(lens, displs, members);
  return Workload{"WRF", std::move(type), 1, /*sparse=*/false};
}

Workload lammpsFull(std::size_t dim) {
  DKF_CHECK(dim > 0);
  // 16*dim exchanged atoms at irregular indices; each atom carries an
  // 8-double record (x, v, q, ...) = 64 contiguous bytes.
  const std::size_t atoms = 16 * dim;
  Rng rng(0x1A44);
  std::vector<std::int64_t> displs(atoms);
  std::int64_t cursor = 0;
  for (std::size_t i = 0; i < atoms; ++i) {
    displs[i] = cursor;
    cursor += 1 + static_cast<std::int64_t>(rng.range(0, 3));
  }
  auto record = ddt::Datatype::contiguous(8, ddt::Datatype::float64());
  auto type = ddt::Datatype::indexedBlock(1, displs, record);
  return Workload{"LAMMPS_full", std::move(type), 1, /*sparse=*/true};
}

std::vector<HaloFace> halo3dFaces(std::size_t n, std::size_t ghost) {
  DKF_CHECK(n > 2 * ghost);
  // Local block of (n+2g)^3 doubles including ghost shells.
  const std::size_t total = n + 2 * ghost;
  const std::vector<std::size_t> sizes{total, total, total};
  auto dbl = ddt::Datatype::float64();

  std::vector<HaloFace> faces;
  for (int axis = 0; axis < 3; ++axis) {
    for (int dir = -1; dir <= 1; dir += 2) {
      HaloFace face{};
      face.neighbor_dx[0] = face.neighbor_dx[1] = face.neighbor_dx[2] = 0;
      face.neighbor_dx[axis] = dir;

      std::vector<std::size_t> subsizes{n, n, n};
      subsizes[static_cast<std::size_t>(axis)] = ghost;

      // Send the owned boundary layer adjacent to the neighbor...
      std::vector<std::size_t> send_start{ghost, ghost, ghost};
      send_start[static_cast<std::size_t>(axis)] =
          dir < 0 ? ghost : ghost + n - ghost;
      face.send_type = ddt::Datatype::subarray(
          sizes, subsizes, send_start, ddt::Datatype::Order::C, dbl);

      // ...into the neighbor's ghost shell on the opposite side.
      std::vector<std::size_t> recv_start{ghost, ghost, ghost};
      recv_start[static_cast<std::size_t>(axis)] =
          dir < 0 ? 0 : ghost + n;
      face.recv_type = ddt::Datatype::subarray(
          sizes, subsizes, recv_start, ddt::Datatype::Order::C, dbl);

      faces.push_back(std::move(face));
    }
  }
  return faces;
}

}  // namespace dkf::workloads
