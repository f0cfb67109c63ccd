// Package kdrsolvers is a from-scratch Go reproduction of "KDRSolvers:
// Scalable, Flexible, Task-Oriented Krylov Solvers" (Zhang, Yadav, Aiken,
// Kjolstad, Treichler; SC Workshops '25).
//
// The library implements the paper's two contributions — the KDR
// (kernel/domain/range) representation of sparse matrix storage formats
// with universal dependent-partitioning co-partitioning operators, and
// multi-operator linear systems — together with every substrate they need:
// a Legion-style task runtime with privilege-based interference analysis,
// a discrete-event cluster simulator standing in for the Lassen
// supercomputer, the full Figure 3 format zoo, eleven Krylov solvers (solvers.Names), and
// PETSc/Trilinos-style baseline stacks.
//
// Start with README.md for a tour, DESIGN.md for the system inventory and
// the substitutions made for hardware this reproduction cannot access, and
// EXPERIMENTS.md for paper-versus-measured results. The packages live
// under internal/; runnable entry points are under cmd/ and examples/.
package kdrsolvers
