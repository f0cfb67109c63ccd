// Package region provides logical regions in the style of Legion's
// region abstraction, reduced to what the solvers use: a region is one
// float64 array over an index space. There are no field spaces, region
// trees or subregions; a partition is a set of index subsets, and a task
// names the part of a region it touches with a Ref.
//
// The task runtime (package taskrt) performs dependence analysis on
// region references — (region, subset, privilege) tuples — while
// computational kernels operate directly on the region's array.
package region

import (
	"fmt"
	"sync/atomic"

	"kdrsolvers/internal/index"
)

// ID uniquely identifies a logical region within a process. IDs come
// from one process-wide counter, so a region's ID is never reused: the
// dependence history and trace fingerprints of package taskrt key on it.
type ID int64

var nextID atomic.Int64

// A Region is a logical region: an index space paired with one float64
// array backing it.
type Region struct {
	id    ID
	name  string
	space index.Space
	// data is dense storage indexed by the points of the space's bounding
	// interval (the common case is a dense space).
	data []float64
	// virtual regions carry no storage; see NewVirtual.
	virtual bool
}

// NewVirtual creates a region with no physical storage. Virtual regions
// participate fully in dependence analysis — which only needs index
// subsets — and let paper-scale problems (up to 2^32 unknowns) run through
// the simulator without allocating vectors. Data panics on a virtual
// region.
func NewVirtual(name string, space index.Space) *Region {
	return &Region{
		id:      ID(nextID.Add(1)),
		name:    name,
		space:   space,
		virtual: true,
	}
}

// Adopt creates a region over the given index space whose array aliases
// caller-owned storage, implementing the paper's in-place
// ingestion (P4): vector data is consumed where it already lives, with no
// copy into library-specific structures. len(data) must cover the space.
func Adopt(name string, space index.Space, data []float64) *Region {
	if n := space.Set.Bounds().Hi + 1; int64(len(data)) < n {
		panic(fmt.Sprintf("region: Adopt storage too small: %d < %d", len(data), n))
	}
	return &Region{id: ID(nextID.Add(1)), name: name, space: space, data: data}
}

// New creates a region over the given index space with a zero-initialized
// array covering the space's bounding interval.
func New(name string, space index.Space) *Region {
	n := max(space.Set.Bounds().Hi+1, 0)
	return &Region{id: ID(nextID.Add(1)), name: name, space: space, data: make([]float64, n)}
}

// ID returns the region's unique identifier.
func (r *Region) ID() ID { return r.id }

// Space returns the region's index space.
func (r *Region) Space() index.Space { return r.space }

// Data returns the region's array. It panics on a virtual region, since
// reading storage that does not exist is a programming error.
func (r *Region) Data() []float64 {
	if r.virtual {
		panic(fmt.Sprintf("region: %s is virtual and has no storage", r.name))
	}
	return r.data
}

// Ref names data touched by a task: a subset of one region together with
// the access privilege. Refs are what the task runtime's dependence
// (interference) analysis operates on.
type Ref struct {
	Region ID
	Subset index.IntervalSet
	Priv   Privilege
}

// Privilege is the access mode a task declares on a region reference,
// mirroring Legion's privilege system.
type Privilege int

const (
	// ReadOnly data is only read; concurrent readers do not conflict.
	ReadOnly Privilege = iota
	// ReadWrite data is read and written; conflicts with everything.
	ReadWrite
	// WriteDiscard data is overwritten without reading; conflicts with
	// everything but needs no data from prior writers.
	WriteDiscard
	// ReduceSum data is updated with a commutative sum; mutually ordered
	// to keep floating-point execution deterministic, but requires no
	// incoming data transfer of the accumulator.
	ReduceSum
)

// String returns the privilege name.
func (p Privilege) String() string {
	switch p {
	case ReadOnly:
		return "RO"
	case ReadWrite:
		return "RW"
	case WriteDiscard:
		return "WD"
	case ReduceSum:
		return "R+"
	}
	return fmt.Sprintf("Privilege(%d)", int(p))
}

// Conflicts reports whether two privileges on overlapping data require an
// ordering edge between their tasks.
func Conflicts(a, b Privilege) bool {
	if a == ReadOnly && b == ReadOnly {
		return false
	}
	return true
}

// Writes reports whether the privilege modifies data.
func (p Privilege) Writes() bool { return p != ReadOnly }

// VectorBytesOf returns the size in bytes of the float64 data covered by
// a subset — the payload a dependence edge over that subset must move.
func VectorBytesOf(s index.IntervalSet) int64 { return 8 * s.Size() }
