// Package dpart implements dependent partitioning: relations between index
// spaces and the image/preimage projections of Section 3.1 of the
// KDRSolvers paper.
//
// A Relation is a subset of I × J for two index spaces I and J. Given a
// partition of I, projecting each piece along the relation (Image) yields a
// compatible partition of J, and vice versa (Preimage). The row and column
// relations of a sparse matrix storage format are Relations between the
// kernel space K and the range space R or domain space D; the four
// projection operators
//
//	col[K→D], row[K→R], col[D→K], row[R→K]
//
// are Image and Preimage applied to those relations. Because projections
// only use the Relation interface, co-partitioning is universal: it works
// identically for every storage format, including user-defined ones.
//
// The package provides relation implementations covering every format in
// Figure 3 of the paper: explicit function arrays (COO row/col), segment
// maps (CSR/CSC/BCSR rowptr/colptr), implicit div/mod projections of
// product spaces (Dense, ELL, BCSR block structure), per-diagonal offset
// maps (DIA).
package dpart
