package index

// A Space is a named index space: a finite set of int64 identifiers.
// Spaces name the three fundamental sets of a linear system — the kernel
// space K, domain space D, and range space R — as well as total
// domain/range spaces assembled from multiple components.
type Space struct {
	// Name identifies the space in diagnostics ("K", "D", "R", ...).
	Name string
	// Set holds the points of the space.
	Set IntervalSet
}

// NewSpace returns a dense space [0, n).
func NewSpace(name string, n int64) Space {
	return Space{Name: name, Set: Span(0, n-1)}
}

// Size returns the number of points in the space.
func (sp Space) Size() int64 { return sp.Set.Size() }
