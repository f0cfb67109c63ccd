// Package region provides logical regions: named, field-structured data
// collections over index spaces, in the style of Legion's region
// abstraction. A logical region pairs an index space with a field space;
// a physical instance holds the actual storage as structure-of-arrays.
//
// The task runtime (package taskrt) performs dependence analysis on
// logical region references — (region, field, subset, privilege) tuples —
// while computational kernels operate directly on the physical storage.
package region

import (
	"fmt"
	"sync/atomic"

	"kdrsolvers/internal/index"
)

// ID uniquely identifies a logical region within a process.
type ID int64

var nextID atomic.Int64

// LastID returns the most recently assigned region ID. IDs are assigned
// from a process-wide monotonic counter, so a region r was created after
// a call to LastID exactly when r.ID() > the returned watermark — the
// property trace memoization uses to tell iteration-scoped scratch
// regions from long-lived ones.
func LastID() ID { return ID(nextID.Load()) }

// A Region is a logical region: an index space paired with a set of named
// float64 fields and a physical structure-of-arrays instance backing them.
type Region struct {
	id    ID
	name  string
	space index.Space
	// fields maps field names to dense storage indexed by the points of
	// the space's bounding interval (the common case is a dense space).
	fields map[string][]float64
	// virtual regions carry no storage; see NewVirtual.
	virtual bool
}

// NewVirtual creates a region with no physical storage. Virtual regions
// participate fully in dependence analysis — which only needs index
// subsets — and let paper-scale problems (up to 2^32 unknowns) run through
// the simulator without allocating vectors. Field panics on a virtual
// region.
func NewVirtual(name string, space index.Space) *Region {
	return &Region{
		id:      ID(nextID.Add(1)),
		name:    name,
		space:   space,
		virtual: true,
	}
}

// Adopt creates a region over the given index space whose single field
// aliases caller-owned storage, implementing the paper's in-place
// ingestion (P4): vector data is consumed where it already lives, with no
// copy into library-specific structures. len(data) must cover the space.
func Adopt(name string, space index.Space, field string, data []float64) *Region {
	if n := space.Set.Bounds().Hi + 1; int64(len(data)) < n {
		panic(fmt.Sprintf("region: Adopt storage too small: %d < %d", len(data), n))
	}
	return &Region{
		id:     ID(nextID.Add(1)),
		name:   name,
		space:  space,
		fields: map[string][]float64{field: data},
	}
}

// New creates a region over the given index space with the named float64
// fields, all zero-initialized.
func New(name string, space index.Space, fieldNames ...string) *Region {
	n := space.Set.Bounds().Hi + 1
	if n < 0 {
		n = 0
	}
	fields := make(map[string][]float64, len(fieldNames))
	for _, f := range fieldNames {
		fields[f] = make([]float64, n)
	}
	return &Region{
		id:     ID(nextID.Add(1)),
		name:   name,
		space:  space,
		fields: fields,
	}
}

// ID returns the region's unique identifier.
func (r *Region) ID() ID { return r.id }

// Space returns the region's index space.
func (r *Region) Space() index.Space { return r.space }

// Field returns the storage of the named field. It panics if the field
// does not exist or the region is virtual, since both are programming
// errors.
func (r *Region) Field(name string) []float64 {
	if r.virtual {
		panic(fmt.Sprintf("region: %s is virtual and has no storage", r.name))
	}
	f, ok := r.fields[name]
	if !ok {
		panic(fmt.Sprintf("region: %s has no field %q", r.name, name))
	}
	return f
}

// Ref names data touched by a task: a subset of one field of one region
// together with the access privilege. Refs are what the task runtime's
// dependence (interference) analysis operates on.
type Ref struct {
	Region ID
	Field  string
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
