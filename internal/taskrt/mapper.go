package taskrt

// A Mapper assigns tasks to simulated processors, mirroring Legion's
// mapper interface. The runtime consults the mapper at every launch, so a
// mapper may change its answers over time — that is exactly how the
// dynamic load-balancing experiment of Section 6.3 retargets matrix tiles
// while the solver runs.
type Mapper interface {
	// SelectProc picks the processor for one point task. name identifies
	// the task kind and color is the task's index-launch color (or 0 for
	// single launches).
	SelectProc(name string, color int) int
}

// RoundRobinMapper spreads index-launch colors across processors,
// assigning color c to processor c mod NumProcs. With the canonical
// partitions of the stencil benchmarks (one piece per GPU), this is the
// paper's static block mapping.
type RoundRobinMapper struct {
	NumProcs int
}

// SelectProc implements Mapper.
func (m RoundRobinMapper) SelectProc(_ string, color int) int {
	if m.NumProcs <= 0 {
		return 0
	}
	return color % m.NumProcs
}

// FuncMapper adapts a function to the Mapper interface.
type FuncMapper func(name string, color int) int

// SelectProc implements Mapper.
func (m FuncMapper) SelectProc(name string, color int) int { return m(name, color) }
