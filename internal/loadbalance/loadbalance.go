// Package loadbalance implements the dynamic load-balancing strategy of
// the paper's Section 6.3: matrix tiles of a multi-operator system
// migrate between their two potential owners in response to per-node
// timing feedback, while a stochastic background load competes for each
// node's cores.
//
// The paper's rule: after every 10th CG iteration, each node i compares
// its execution time T_i to a reference T_0 (the time under an average
// background load) and, when slower, gives each tile it owns away with a
// probability controlled by β. (The probability as printed in the paper,
// min(e^{β(T_i−T_0)}, 1), is identically 1 whenever T_i > T_0, which
// would make β — described as "the rate of adaptation" — inert; this
// implementation uses 1 − e^{−β(T_i−T_0)}, the standard thermodynamic
// acceptance form with the stated limiting behavior. The deviation is
// recorded in DESIGN.md.) A tile's give-away target is its other
// potential owner — the node holding the tile's input or output vector
// piece — so no global communication is involved.
package loadbalance

import (
	"math"
	"math/rand"
)

// Tile is one matrix tile A_{i,j} of the multi-operator system: it may
// live on the node owning the input piece D_j or the node owning the
// output piece D_i.
type Tile struct {
	// InNode owns the input vector piece D_j.
	InNode int
	// OutNode owns the output vector piece D_i.
	OutNode int
	// Owner is the node currently executing the tile's multiply-add;
	// it is always InNode or OutNode.
	Owner int
}

// Balancer holds the tile ownership table and applies the thermodynamic
// giveaway rule.
type Balancer struct {
	// Beta is the adaptation rate in 1/seconds (the paper uses
	// 10⁻³ ms⁻¹ = 1 s⁻¹).
	Beta float64
	// T0 is the reference execution time in seconds (precomputed under
	// an average background load).
	T0 float64

	tiles []Tile
	rng   *rand.Rand
	moves int
}

// New builds a balancer over the given tiles. The tile slice is retained
// and mutated by Rebalance. seed makes runs reproducible.
func New(beta, t0 float64, tiles []Tile, seed int64) *Balancer {
	for i, t := range tiles {
		if t.Owner != t.InNode && t.Owner != t.OutNode {
			panic("loadbalance: tile owner must be one of its two candidates")
		}
		_ = i
	}
	return &Balancer{
		Beta:  beta,
		T0:    t0,
		tiles: tiles,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Owner returns the node currently owning tile op.
func (b *Balancer) Owner(op int) int { return b.tiles[op].Owner }

// Moves returns the cumulative number of tile migrations.
func (b *Balancer) Moves() int { return b.moves }

// GiveawayProbability returns the probability that a node with execution
// time t gives away one tile.
func (b *Balancer) GiveawayProbability(t float64) float64 {
	if t <= b.T0 {
		return 0
	}
	return 1 - math.Exp(-b.Beta*(t-b.T0))
}

// Rebalance applies one giveaway round: nodeTime[n] is node n's most
// recent per-iteration execution time. Each tile whose owner is slower
// than the reference flips to its other candidate with the giveaway
// probability. It returns the number of tiles moved this round.
func (b *Balancer) Rebalance(nodeTime []float64) int {
	moved := 0
	for i := range b.tiles {
		t := &b.tiles[i]
		owner := t.Owner
		if owner >= len(nodeTime) {
			continue
		}
		p := b.GiveawayProbability(nodeTime[owner])
		if p > 0 && b.rng.Float64() < p {
			if t.Owner == t.InNode {
				t.Owner = t.OutNode
			} else {
				t.Owner = t.InNode
			}
			if t.Owner != owner {
				moved++
			}
		}
	}
	b.moves += moved
	return moved
}

// NodeLoad models the stochastic background load of the experiment: each
// node has cores ∈ [0, Cores-1] occupied by a competing task, re-drawn
// uniformly at a fixed iteration period.
type NodeLoad struct {
	// Cores is the core count per node (40 on Lassen).
	Cores int
	// Occupied[n] is the number of cores the background task holds on
	// node n.
	Occupied []int
	rng      *rand.Rand
}

// NewNodeLoad builds a load generator for nodes nodes, starting from an
// average load (Cores/2 occupied everywhere).
func NewNodeLoad(nodes, cores int, seed int64) *NodeLoad {
	occ := make([]int, nodes)
	for i := range occ {
		occ[i] = cores / 2
	}
	return &NodeLoad{Cores: cores, Occupied: occ, rng: rand.New(rand.NewSource(seed))}
}

// Randomize re-draws every node's occupied cores uniformly in
// [0, Cores-1], the paper's every-100th-iteration perturbation.
func (l *NodeLoad) Randomize() {
	for i := range l.Occupied {
		l.Occupied[i] = l.rng.Intn(l.Cores)
	}
}

// Slowdowns returns the per-node compute multiplier Cores/(Cores−occupied)
// for the simulator's NodeSlowdown option.
func (l *NodeLoad) Slowdowns() []float64 {
	out := make([]float64, len(l.Occupied))
	for i, k := range l.Occupied {
		out[i] = float64(l.Cores) / float64(l.Cores-k)
	}
	return out
}

// AverageSlowdown returns the multiplier under the reference load
// (half the cores occupied), used to precompute T0.
func (l *NodeLoad) AverageSlowdown() float64 {
	return float64(l.Cores) / float64(l.Cores-l.Cores/2)
}
