// Package core implements the KDRSolvers planner: the user-facing API for
// describing a multi-operator linear system (Figure 5 of the paper) and
// the solver-facing API of mathematical operations that Krylov subspace
// methods are written against (Figure 6).
//
// A multi-operator system (Section 4) is a logical linear system
// A_total · x_total = b_total whose solution vector is a sequence of
// components over domain spaces D_1 … D_n, whose right-hand side is a
// sequence over range spaces R_1 … R_m, and whose operator is a set of
// quadruples (K_ℓ, A_ℓ, i_ℓ, j_ℓ) — sparse matrices each relating one
// domain component to one range component, with arbitrary aliasing and
// overlap permitted (equation 8 defines the product).
//
// The planner decomposes every logical operation into per-component,
// per-piece tasks launched on the task runtime (adjacent pieces smaller
// than a launch grain share one task; see launchGroups): vector data is
// partitioned by user-supplied canonical partitions, matrix kernels are
// co-partitioned automatically with the universal projection operators of
// package dpart, and the runtime's interference analysis orders
// conflicting multiply-adds (Section 4.1). Scalars, including dot-product
// results, are futures a reading task receives by value: it awaits the
// tasks they are computed from, so scalar dataflow is ordered like any
// other dependence, and a virtual planner records every reduction's combine
// so the simulator charges its synchronization cost (see Scalar).
//
// Solvers (package solvers) are written purely against the planner and
// are therefore independent of storage formats, component structure, and
// data placement — the separation the paper's Section 5 describes.
package core
