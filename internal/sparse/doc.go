// Package sparse implements the KDRSolvers view of sparse matrix storage
// formats (Section 3 of the paper).
//
// A sparse R × D matrix is a collection of numbers indexed by a kernel
// space K together with a column relation col ⊆ K × D and a row relation
// row ⊆ K × R (equation 2). Every storage format in Figure 3 of the paper
// is provided — Dense, COO, CSR, CSC, ELL, ELL′, DIA, BCSR, and BCSC —
// each exposing its row and column relations through the Matrix interface
// so that the universal co-partitioning operators of package dpart apply
// uniformly, including to user-defined formats implemented outside this
// package.
//
// The nine formats are six storage layouts. Because a format is its pair
// of relations, the column-major formats are views of their row-major
// twins under exchanged relations (transposed): CSC is the CSR of Aᵀ,
// ELL′ the ELL of Aᵀ and BCSC the BCSR of Aᵀ, with row and column
// relation, domain and range, and forward and adjoint kernel swapped.
// One table (formats) states which formats exist, how each is converted
// to, how large its arrays are for a given structure — the bound every
// named conversion is held to — and the calibrated rates of the formats
// the tuner ranks.
//
// Computational kernels are expressed as in-place multiply-adds
// (y ← Ax + y), the primitive into which Section 4.1 decomposes all
// matrix-vector products on multi-operator systems. A format supplies
// one range kernel per direction, processing only the kernel points of
// a partition piece; the whole-matrix products MultiplyAdd,
// MultiplyAddT, SpMV and SpMVT are package functions that run it over
// all of K.
//
// The package also provides the stencil matrix generators used throughout
// the paper's evaluation: 3-point 1D, 5-point 2D, 7-point 3D, and 27-point
// 3D Laplacians on Cartesian grids.
package sparse
