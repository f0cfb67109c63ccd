package figures

import (
	"kdrsolvers/internal/core"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/loadbalance"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/sim"
	"kdrsolvers/internal/solvers"
	"kdrsolvers/internal/sparse"
)

// Fig10Config describes the Section 6.3 dynamic load-balancing
// experiment. The paper runs CG on a 5-point stencil over a 2^16 × 2^16
// grid on 32 CPU nodes, with the grid in 64 domain pieces and the matrix
// in 64 × 64 tiles; each node's background task re-randomizes its core
// occupancy every 100 iterations, and the balancer migrates tiles every
// 10 iterations with β = 10⁻³ ms⁻¹.
//
// Tile decomposition note (recorded in DESIGN.md): the domain pieces are
// column strips of the grid and the range pieces are row strips, so
// every tile A_{i,j} is the dense grid block at their intersection with
// two genuinely distinct candidate owners — the aliasing row/column
// partitioning KDRSolvers supports and MPI libraries do not (Section
// 2.2). With both cuts row strips, off-tridiagonal tiles would be empty
// and carry no migratable work.
type Fig10Config struct {
	// GridExp: the grid is 2^GridExp × 2^GridExp.
	GridExp int
	// Nodes is the node count (paper: 32).
	Nodes int
	// Pieces is the domain/range piece count (paper: 64, two per node).
	Pieces int
	// Iters is the number of CG iterations to trace.
	Iters int
	// RebalanceEvery and RandomizeEvery are the migration and
	// background-load periods in iterations (paper: 10 and 100).
	RebalanceEvery, RandomizeEvery int
	// Beta is the adaptation rate in 1/seconds (paper: 10⁻³ ms⁻¹).
	Beta float64
	// Seed drives both the background load and the balancer.
	Seed int64
}

// DefaultFig10 returns the paper's configuration.
func DefaultFig10() Fig10Config {
	return Fig10Config{
		GridExp: 16, Nodes: 32, Pieces: 64, Iters: 500,
		RebalanceEvery: 10, RandomizeEvery: 100, Beta: 1.0, Seed: 1,
	}
}

// Fig10Result holds the per-iteration traces and totals.
type Fig10Result struct {
	// StaticIterTimes and DynamicIterTimes are seconds per iteration for
	// the two mappers.
	StaticIterTimes, DynamicIterTimes []float64
	// StaticTotal and DynamicTotal are summed iteration times.
	StaticTotal, DynamicTotal float64
	// Reduction is 1 − dynamic/static, the paper's headline (66%).
	Reduction float64
	// Moves is the number of tile migrations the balancer performed.
	Moves int
}

// fig10Tiles builds the tile candidate table: tile (i, j) may live with
// the input (column strip j) or output (row strip i) owner; the static
// assignment gives node n the tiles of its two output strips.
func fig10Tiles(pieces, nodes int) []loadbalance.Tile {
	perNode := pieces / nodes
	tiles := make([]loadbalance.Tile, 0, pieces*pieces)
	for i := 0; i < pieces; i++ {
		for j := 0; j < pieces; j++ {
			out := i / perNode
			in := j / perNode
			tiles = append(tiles, loadbalance.Tile{InNode: in, OutNode: out, Owner: out})
		}
	}
	return tiles
}

// fig10Planner assembles the 64-component, 64×64-tile virtual system.
// owner(op) maps an operator index to its executing node.
func fig10Planner(cfg Fig10Config, m machine.Machine, owner func(op int) int) *core.Planner {
	pieces := int64(cfg.Pieces)
	side := int64(1) << uint(cfg.GridExp)
	strip := side / pieces     // grid rows (or cols) per strip
	compSize := side * strip   // unknowns per strip
	blockSize := strip * strip // unknowns per tile block
	nnz := 5 * blockSize       // 5-point stencil entries per block
	perNode := cfg.Pieces / cfg.Nodes

	p := core.NewPlanner(core.Config{
		Machine:    m,
		Virtual:    true,
		VectorProc: func(color int) int { return (color % cfg.Pieces) / perNode },
		MatmulProc: func(op, _ int) int { return owner(op) },
	})
	for j := 0; j < cfg.Pieces; j++ {
		p.AddSolVectorVirtual(compSize, index.Partition{})
	}
	for i := 0; i < cfg.Pieces; i++ {
		p.AddRHSVectorVirtual(compSize, index.Partition{})
	}
	// Tile (i, j): reads block i of column strip j, writes block j of row
	// strip i (contiguous in the strip-local layouts chosen in DESIGN.md).
	for i := int64(0); i < pieces; i++ {
		for j := int64(0); j < pieces; j++ {
			inBlock := index.Interval{Lo: i * blockSize, Hi: (i+1)*blockSize - 1}
			outBlock := index.Interval{Lo: j * blockSize, Hi: (j+1)*blockSize - 1}
			tile := sparse.NewVirtualTile(compSize, compSize, nnz, inBlock, outBlock)
			p.AddOperator(tile, int(j), int(i))
		}
	}
	p.Finalize()
	return p
}

// runFig10 executes one mapper variant, returning per-iteration times.
func runFig10(cfg Fig10Config, dynamic bool) ([]float64, int) {
	m := machine.LassenCPU(cfg.Nodes)
	bal := loadbalance.New(cfg.Beta, 0, fig10Tiles(cfg.Pieces, cfg.Nodes), cfg.Seed)
	p := fig10Planner(cfg, m, bal.Owner)
	s := solvers.NewCG(p)
	p.Drain()
	load := loadbalance.NewNodeLoad(cfg.Nodes, 40, cfg.Seed)
	opts := sim.Options{TaskOverhead: KDRTaskOverhead, TracedOverhead: KDRTracedOverhead}

	// Reference time T0: one iteration under the average background load.
	mark := p.Runtime().Graph().Len()
	s.Step()
	p.Drain()
	ref := sim.Window(p.Runtime().Graph(), mark)
	uniform := make([]float64, cfg.Nodes)
	for i := range uniform {
		uniform[i] = load.AverageSlowdown()
	}
	refOpts := opts
	refOpts.NodeSlowdown = uniform
	refRes := sim.Simulate(ref, m, refOpts)
	bal.T0 = mean(refRes.NodeBusy)

	times := make([]float64, 0, cfg.Iters)
	for it := 0; it < cfg.Iters; it++ {
		if it%cfg.RandomizeEvery == 0 {
			load.Randomize()
		}
		mark = p.Runtime().Graph().Len()
		s.Step()
		p.Drain()
		w := sim.Window(p.Runtime().Graph(), mark)
		iterOpts := opts
		iterOpts.NodeSlowdown = load.Slowdowns()
		res := sim.Simulate(w, m, iterOpts)
		times = append(times, res.Makespan)
		if dynamic && (it+1)%cfg.RebalanceEvery == 0 {
			bal.Rebalance(res.NodeBusy)
		}
	}
	return times, bal.Moves()
}

// Fig10 runs the experiment with both the static and the dynamic mapper
// under identical background-load sequences.
func Fig10(cfg Fig10Config) Fig10Result {
	static, _ := runFig10(cfg, false)
	dynamic, moves := runFig10(cfg, true)
	r := Fig10Result{StaticIterTimes: static, DynamicIterTimes: dynamic, Moves: moves}
	for _, t := range static {
		r.StaticTotal += t
	}
	for _, t := range dynamic {
		r.DynamicTotal += t
	}
	if r.StaticTotal > 0 {
		r.Reduction = 1 - r.DynamicTotal/r.StaticTotal
	}
	return r
}
