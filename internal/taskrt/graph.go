package taskrt

// Node is one task in a recorded task graph, carrying everything the
// discrete-event simulator needs: a processor assignment, a compute cost,
// dependence edges, and the bytes each edge must move.
type Node struct {
	// ID is the task's ID within the session that launched it, which is
	// also its position in that session's graph (dense, starting at 0).
	ID int64
	// Name labels the task kind ("matmul", "axpy", "dot", ...).
	Name string
	// Phase is the solver-phase label active when the task was launched
	// ("cg.step", "gmres.arnoldi", ...), empty when untagged.
	Phase string
	// Proc is the simulated processor the task was placed on.
	Proc int
	// Cost is the task's compute time in seconds on that processor.
	Cost float64
	// Deps lists the IDs of tasks that must finish first.
	Deps []int64
	// DepBytes[i] is the number of bytes task Deps[i] must deliver to
	// this task before it can start (0 for pure ordering edges).
	DepBytes []int64
	// Traced marks tasks replayed from a memoized trace, which carry a
	// lower launch overhead in the simulator.
	Traced bool
	// Host marks host-side future operations (scalar arithmetic): they
	// pay neither kernel-launch nor runtime-analysis overhead in the
	// simulator, only a small fixed cost.
	Host bool
}

// Graph is a recorded task graph, the exchange format between the runtime
// (or a hand-built bulk-synchronous schedule) and the simulator.
type Graph struct {
	Nodes []Node
}

// Add appends a node, assigning its ID, and returns the ID.
func (g *Graph) Add(n Node) int64 {
	n.ID = int64(len(g.Nodes))
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// Len returns the number of tasks in the graph.
func (g Graph) Len() int { return len(g.Nodes) }

// DepLists returns the dependence lists indexed by task ID — the shape
// the obs critical-path analyzer consumes. The inner slices share the
// nodes' storage; callers must not modify them.
func (g Graph) DepLists() [][]int64 {
	deps := make([][]int64, len(g.Nodes))
	for i, n := range g.Nodes {
		deps[i] = n.Deps
	}
	return deps
}
