package index

// A Partition of an index space I is a function from a finite color space
// C = {0, ..., NumColors-1} to subsets of I (Section 3.1). Unlike the
// set-theoretic notion, a Partition need not be complete (cover I) nor
// disjoint (assign each point one color); KDRSolvers projections routinely
// produce aliased partitions.
type Partition struct {
	// Space is the partitioned index space.
	Space Space
	// pieces[c] holds the points assigned color c.
	pieces []IntervalSet
}

// NewPartition assembles a partition from explicit pieces. The pieces
// slice is retained by the partition.
func NewPartition(space Space, pieces []IntervalSet) Partition {
	return Partition{Space: space, pieces: pieces}
}

// EqualPartition splits a space into n pieces of nearly equal size,
// assigning contiguous runs of points to consecutive colors. It is the
// canonical row-block partition when applied to a range space.
func EqualPartition(space Space, n int) Partition {
	if n <= 0 {
		panic("index: EqualPartition requires n > 0")
	}
	total := space.Size()
	pieces := make([]IntervalSet, n)
	// Walk the space's intervals, peeling off quota-sized chunks.
	quota := func(c int) int64 {
		// Colors [0, total%n) receive one extra point.
		q := total / int64(n)
		if int64(c) < total%int64(n) {
			q++
		}
		return q
	}
	c := 0
	remaining := quota(0)
	for _, iv := range space.Set.Intervals() {
		lo := iv.Lo
		for lo <= iv.Hi {
			if remaining == 0 {
				c++
				remaining = quota(c)
				continue
			}
			take := min64(remaining, iv.Hi-lo+1)
			pieces[c].AddInterval(Interval{lo, lo + take - 1})
			lo += take
			remaining -= take
		}
	}
	return Partition{Space: space, pieces: pieces}
}

// NumColors returns the size of the color space.
func (p Partition) NumColors() int { return len(p.pieces) }

// Piece returns the subset assigned color c. The returned set must not be
// modified.
func (p Partition) Piece(c int) IntervalSet {
	return p.pieces[c]
}

// Pieces returns all pieces in color order. The returned slice must not be
// modified.
func (p Partition) Pieces() []IntervalSet { return p.pieces }

// Complete reports whether every point of the space has at least one color.
func (p Partition) Complete() bool {
	var u IntervalSet
	for _, pc := range p.pieces {
		u = u.Union(pc)
	}
	return u.ContainsSet(p.Space.Set)
}

// Disjoint reports whether no point of the space has more than one color.
func (p Partition) Disjoint() bool {
	var u IntervalSet
	for _, pc := range p.pieces {
		if u.Overlaps(pc) {
			return false
		}
		u = u.Union(pc)
	}
	return true
}
