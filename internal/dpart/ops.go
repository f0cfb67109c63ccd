package dpart

import "kdrsolvers/internal/index"

// ImagePartition projects a partition of the relation's left space to a
// partition of its right space, piece by piece (equation 3). The result
// has the same color space; it is complete and disjoint only when the
// relation's structure makes it so.
func ImagePartition(rel Relation, p index.Partition) index.Partition {
	pieces := make([]index.IntervalSet, p.NumColors())
	for c := 0; c < p.NumColors(); c++ {
		pieces[c] = rel.Image(p.Piece(c))
	}
	return index.NewPartition(rel.Right(), pieces)
}

// PreimagePartition projects a partition of the relation's right space to a
// partition of its left space, piece by piece (equation 4).
func PreimagePartition(rel Relation, q index.Partition) index.Partition {
	pieces := make([]index.IntervalSet, q.NumColors())
	for c := 0; c < q.NumColors(); c++ {
		pieces[c] = rel.Preimage(q.Piece(c))
	}
	return index.NewPartition(rel.Left(), pieces)
}

// The four named projection operators of Section 3.1. By the package
// convention, both the row relation (K ↔ R) and the column relation
// (K ↔ D) have the kernel space K on the left.

// ColKToD projects a kernel-space partition along the column relation to a
// domain-space partition: the columns touched by each kernel piece.
func ColKToD(col Relation, p index.Partition) index.Partition {
	return ImagePartition(col, p)
}

// RowKToR projects a kernel-space partition along the row relation to a
// range-space partition: the rows written by each kernel piece.
func RowKToR(row Relation, p index.Partition) index.Partition {
	return ImagePartition(row, p)
}

// ColDToK projects a domain-space partition along the column relation to a
// kernel-space partition: the entries reading each domain piece.
func ColDToK(col Relation, q index.Partition) index.Partition {
	return PreimagePartition(col, q)
}

// RowRToK projects a range-space partition along the row relation to a
// kernel-space partition: the entries writing each range piece.
func RowRToK(row Relation, q index.Partition) index.Partition {
	return PreimagePartition(row, q)
}

// MatVecInputPartition computes, for a given partition of the range space
// R, the finest partition of the domain space D from which each piece y_c
// of y = Ax can be computed independently:
//
//	col[K→D][ row[R→K][P] ]
//
// This is the universal co-partitioning operator the paper motivates: it is
// derived purely from the row and column relations, so it applies to any
// storage format.
func MatVecInputPartition(row, col Relation, rangePart index.Partition) index.Partition {
	return ColKToD(col, RowRToK(row, rangePart))
}

// PartitionByField builds a partition from an explicit coloring — the
// third dependent-partitioning primitive of Treichler et al. alongside
// image and preimage. colors[i] is the color of point i of a dense space
// [0, len(colors)); negative colors leave the point unassigned. The
// result has nColors pieces and is disjoint by construction (each point
// has one color); it is complete when no color is negative.
//
// This is how applications inject irregular, data-dependent
// distributions (a graph partitioner's output, say) into the framework;
// every derived partition then follows through the projection operators.
func PartitionByField(space index.Space, colors []int64, nColors int) index.Partition {
	if int64(len(colors)) != space.Size() {
		panic("dpart: one color per point required")
	}
	// Points arrive in increasing order, so each lands at the end of its
	// piece: extending the last interval or opening the next, no sort.
	pieces := make([]index.IntervalSet, nColors)
	for i, c := range colors {
		if c < 0 {
			continue
		}
		if c >= int64(nColors) {
			panic("dpart: color out of range")
		}
		pieces[c].AddInterval(index.Interval{Lo: int64(i), Hi: int64(i)})
	}
	return index.NewPartition(space, pieces)
}
