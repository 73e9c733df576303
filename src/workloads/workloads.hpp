// Application-kernel workloads (§V-A).
//
// The paper evaluates four representative datatype layouts, built after the
// ddtbench micro-applications [32]:
//
//   specfem3D_oc  — MPI_Type_indexed over single floats: the ocean-crust
//                   boundary list of the SPECFEM3D seismic code. SPARSE:
//                   thousands of tiny blocks at irregular offsets.
//   specfem3D_cm  — struct-on-indexed (three field arrays share one
//                   boundary list): SPECFEM3D crust-mantle. SPARSE.
//   MILC          — nested vectors over su3 vectors (3 complex doubles):
//                   the z-face of the 4-D MILC lattice. DENSE: fewer,
//                   larger blocks.
//   NAS_MG        — MPI_Type_vector: the y-face of the NAS MG 3-D grid.
//                   DENSE.
//
// `dim` is the "dimension size" on the x-axis of Figs. 9/10/12/13; each
// builder documents how it scales block count and block size.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ddt/datatype.hpp"
#include "ddt/layout.hpp"

namespace dkf::workloads {

struct Workload {
  std::string name;
  ddt::DatatypePtr type;
  std::size_t count{1};  ///< elements of `type` per operation
  bool sparse{false};    ///< the paper's layout classification

  /// Bytes of origin buffer one operation touches (count * extent).
  std::size_t regionBytes() const {
    return count * type->extent();
  }
  /// Packed payload size of one operation.
  std::size_t packedBytes() const { return count * type->size(); }
};

/// Sparse: `32*dim` single-float blocks at irregular (deterministic)
/// displacements, as produced by SPECFEM3D's ocean-crust boundary mesh.
Workload specfem3dOc(std::size_t dim);

/// Sparse: struct over three indexed field arrays sharing one irregular
/// boundary list of `16*dim` points each (48*dim blocks total).
Workload specfem3dCm(std::size_t dim);

/// Dense: nested vector of su3 vectors — `dim` blocks of `24*dim` bytes
/// (the MILC z-face, blocklength dim/2 sites of 48 B each).
Workload milcZdown(std::size_t dim);

/// Dense: `dim` rows of `8*dim` contiguous bytes out of a dim^3 double
/// grid (the NAS MG y-face).
Workload nasMgFace(std::size_t dim);

/// The four workloads in the order the paper's figures present them.
std::vector<Workload> paperWorkloads(std::size_t dim);

// ---- Extended workloads (the paper's future work: "evaluate the proposed
// designs with more application workloads") — two further ddtbench [32]
// patterns with different sparsity characteristics. ----

/// WRF (weather): struct over two field variables, each exchanging the x-z
/// ghost plane of a dim^3 float grid — medium-dense blocks of 4*dim bytes,
/// 2*dim of them.
Workload wrfXzPlane(std::size_t dim);

/// LAMMPS (molecular dynamics, "full" atom style): an indexed-block pick of
/// 16*dim atoms, each an 8-double property record (64 B) at irregular
/// positions — semi-sparse: many medium blocks.
Workload lammpsFull(std::size_t dim);

/// 3-D domain-decomposition halo description (Comb [33] style): for a
/// rank at `coords` in a `grid` of ranks over a `n`^3 local block of
/// doubles, enumerate the 6 face exchanges with subarray datatypes.
struct HaloFace {
  int neighbor_dx[3];        ///< offset of the neighbor in the rank grid
  ddt::DatatypePtr send_type;  ///< subarray over the local block (send side)
  ddt::DatatypePtr recv_type;  ///< subarray over the local block (recv side)
};
std::vector<HaloFace> halo3dFaces(std::size_t n, std::size_t ghost = 1);

}  // namespace dkf::workloads
