package core

import (
	"fmt"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/taskrt"
)

// Matrix-powers kernel (communication-avoiding Krylov, "Hardware-Oriented
// Krylov Methods for HPC"): compute the basis [A·x, A²·x, …, Aˢ·x] — or
// its shifted Newton variant [(A−θ₁)x, (A−θ₂)(A−θ₁)x, …] — with ONE task
// per output piece instead of one task per (level, piece). Each piece
// task reads the level-s halo of its piece (the ghost region deep enough
// to cover s applications of the operator) and computes every level
// locally, redundantly recomputing the halo overlap; the payoff is that
// no intermediate level synchronizes or communicates, which is what lets
// an s-step method run s iterations per global reduction.
//
// The level row sets come from the planner's dependent-partitioning
// relations, so every operator format — assembled, matrix-free, or the
// adaptive Auto composite — works under the kernel unchanged: the
// recurrence below is PowerInputPartition unrolled with the intermediate
// sets kept.

// PowersPlan is the reusable per-piece ghost-set analysis for a
// matrix-powers sweep of a fixed maximum depth on one system. Building a
// plan performs the halo recurrence once; Sweep then launches against the
// precomputed sets, so repeated sweeps (one per s-step block) pay no
// partition work.
type PowersPlan struct {
	p      *Planner
	depth  int
	pieces []powersPiece
}

// powersPiece is the launch recipe for one output piece.
type powersPiece struct {
	color int
	proc  int
	piece index.IntervalSet
	// rset[k] is R_k, the rows level k must be computed on, for
	// k = 0..depth: R_depth is the canonical piece itself, and each
	// shallower level adds the halo the next level's kernel reads
	// (R_{k-1} = piece ∪ H_k ⊇ R_k, so the sets nest). rset[0] is the
	// sweep's total input read set.
	rset []index.IntervalSet
	// kset[k-1][op] is the kernel piece of operator op writing R_k.
	kset [][]index.IntervalSet
	// scratch ping-pong fields for the intermediate levels, private to
	// this piece's task (full component length, indexed globally).
	scrA, scrB *region.Region
}

// NewPowersPlan analyses the halo structure for matrix-powers sweeps up
// to the given depth. The system must be finalized, square, and
// single-component (the s-step methods that use the kernel are).
func NewPowersPlan(p *Planner, depth int) *PowersPlan {
	p.mustBeFinalized()
	if depth < 1 {
		panic("core: powers depth must be >= 1")
	}
	if !p.IsSquare() || len(p.sol) != 1 || len(p.rhs) != 1 {
		panic("core: matrix-powers kernel requires a square single-component system")
	}
	if len(p.ops) == 0 {
		panic("core: matrix-powers kernel requires at least one operator")
	}
	out := p.rhs[0]
	pl := &PowersPlan{p: p, depth: depth}
	for color := 0; color < out.part.NumColors(); color++ {
		piece := out.part.Piece(color)
		pc := powersPiece{
			color: color,
			proc:  out.procs[color],
			piece: piece,
			rset:  make([]index.IntervalSet, depth+1),
			kset:  make([][]index.IntervalSet, depth),
		}
		// Downward halo recurrence: R_depth = piece; R_{k-1} = piece ∪ H_k
		// where H_k is the union over operators of the columns read by the
		// kernel entries writing R_k. Image and preimage are monotone, so
		// the sets nest (R_0 ⊇ R_1 ⊇ … ⊇ R_depth) and a level's input —
		// needed on H_k ⊆ R_{k-1} — is always covered by the level below.
		pc.rset[depth] = piece
		for k := depth; k >= 1; k-- {
			ks := make([]index.IntervalSet, len(p.ops))
			var halo index.IntervalSet
			for oi := range p.ops {
				op := &p.ops[oi]
				ks[oi] = op.mat.RowRelation().Preimage(pc.rset[k])
				halo = halo.Union(op.mat.ColRelation().Image(ks[oi]))
			}
			pc.kset[k-1] = ks
			pc.rset[k-1] = piece.Union(halo)
		}
		if depth >= 2 {
			space := out.space
			name := fmt.Sprintf("powscr%d", color)
			if p.virtual {
				pc.scrA = region.NewVirtual(name+".a", space)
				pc.scrB = region.NewVirtual(name+".b", space)
			} else {
				pc.scrA = region.New(name+".a", space, "v")
				pc.scrB = region.New(name+".b", space, "v")
			}
		}
		pl.pieces = append(pl.pieces, pc)
	}
	return pl
}

// Sweep launches the matrix-powers computation: dsts[k] ← (A−shifts[k])·
// dsts[k-1] (with dsts[-1] = src), one task per output piece, each
// computing all len(dsts) levels from its level-deep halo. A nil shifts
// is the monomial basis [Ax, A²x, …]; non-zero shifts give the Newton
// basis. len(dsts) may be at most the plan's depth — a shallower sweep
// reuses the deeper plan's (slightly wider) halo sets. src and the dsts
// must be distinct single-component vectors of the system's size.
func (pl *PowersPlan) Sweep(dsts []VecID, src VecID, shifts []float64) {
	p := pl.p
	levels := len(dsts)
	if levels < 1 || levels > pl.depth {
		panic(fmt.Sprintf("core: powers sweep wants %d levels, plan depth is %d", levels, pl.depth))
	}
	if shifts != nil && len(shifts) != levels {
		panic("core: powers sweep needs one shift per level (or nil)")
	}
	seen := map[VecID]bool{src: true}
	for _, d := range dsts {
		if seen[d] {
			panic("core: powers sweep vectors must be distinct")
		}
		seen[d] = true
	}
	n := p.rhs[0].space.Size()
	for _, id := range append([]VecID{src}, dsts...) {
		if len(p.vecs[id].regs) != 1 || p.vecs[id].regs[0].Space().Size() != n {
			panic("core: powers sweep vectors must match the system's single component")
		}
	}
	offset := pl.depth - levels

	for pi := range pl.pieces {
		pc := &pl.pieces[pi]
		srcReg := p.vecs[src].regs[0]
		readSet := pc.rset[offset]

		refs := make([]region.Ref, 0, levels+3)
		refs = append(refs, pieceRef(srcReg, readSet, region.ReadOnly))
		for _, d := range dsts {
			refs = append(refs, pieceRef(p.vecs[d].regs[0], pc.piece, region.WriteDiscard))
		}
		// Intermediate levels ping-pong through the piece's private
		// scratch; the final level lands directly in its dst (its row set
		// is exactly the piece). Declaring the scratch write-discard also
		// serializes successive sweeps that share the plan, piece by piece.
		if levels >= 2 {
			refs = append(refs, region.Ref{Region: pc.scrA.ID(), Field: "v",
				Subset: pc.rset[offset+1], Priv: region.WriteDiscard})
		}
		if levels >= 3 {
			refs = append(refs, region.Ref{Region: pc.scrB.ID(), Field: "v",
				Subset: pc.rset[offset+2], Priv: region.WriteDiscard})
		}

		var cost float64
		for i := 0; i < levels; i++ {
			rows := pc.rset[offset+i+1]
			for oi := range p.ops {
				cost += p.mach.SpMVCost(pc.kset[offset+i][oi].Size(), rows.Size())
			}
			if shifts != nil && shifts[i] != 0 {
				cost += p.mach.AxpyCost(rows.Size())
			}
			if i < levels-1 {
				cost += p.mach.CopyCost(pc.piece.Size())
			}
		}

		if p.sdcOn() {
			// The sweep fully recomputes each dst piece, so each dst's
			// checksum slot is refreshed from the computed output.
			for _, d := range dsts {
				refs = append(refs, p.chkRef(d, pc.color, 1, region.WriteDiscard))
			}
		}

		var run func() float64
		if !p.virtual {
			run = pl.sweepBody(pc, offset, levels, src, dsts, shifts)
		}
		spec := taskrt.TaskSpec{
			Name: "powers.sweep", Proc: pc.proc, Piece: pc.color + 1,
			Cost: cost, Refs: refs,
			// The body zeroes every row before accumulating and writes only
			// scratch and write-discard outputs: idempotent, so retryable.
			Run: run, Retryable: true,
		}
		if p.faultHooks() {
			targets := make([]corruptTarget, 0, levels)
			for _, d := range dsts {
				targets = append(targets, corruptTarget{p.vecs[d].regs[0].Field("v"), pc.piece})
			}
			spec.Corrupt = corruptHook(targets...)
		}
		p.batch(spec)
	}
	p.flushBatch()
}

// sweepBody builds the real-mode task body of one piece's powers sweep.
func (pl *PowersPlan) sweepBody(pc *powersPiece, offset, levels int, src VecID, dsts []VecID, shifts []float64) func() float64 {
	p := pl.p
	srcData := p.vecs[src].regs[0].Field("v")
	dstData := make([][]float64, levels)
	for i, d := range dsts {
		dstData[i] = p.vecs[d].regs[0].Field("v")
	}
	var scr [2][]float64
	if levels >= 2 {
		scr[0] = pc.scrA.Field("v")
		scr[1] = pc.scrB.Field("v")
	}
	mats := make([]interface {
		MultiplyAddPart(y, x []float64, kset index.IntervalSet)
	}, len(p.ops))
	ksets := make([][]index.IntervalSet, levels)
	rows := make([]index.IntervalSet, levels)
	for i := 0; i < levels; i++ {
		ksets[i] = pc.kset[offset+i]
		rows[i] = pc.rset[offset+i+1]
	}
	for oi := range p.ops {
		mats[oi] = p.ops[oi].mat
	}
	piece := pc.piece
	sdc := p.sdcOn()
	var chks [][]float64
	if sdc {
		chks = make([][]float64, levels)
		for i, d := range dsts {
			chks[i] = p.chkData(d)
		}
	}
	color := pc.color
	return func() float64 {
		cur := srcData
		for i := 0; i < levels; i++ {
			var out []float64
			if i == levels-1 {
				out = dstData[i] // final level's rows are exactly the piece
			} else {
				out = scr[i%2]
			}
			rs := rows[i]
			rs.EachInterval(func(iv index.Interval) {
				for r := iv.Lo; r <= iv.Hi; r++ {
					out[r] = 0
				}
			})
			for oi, m := range mats {
				m.MultiplyAddPart(out, cur, ksets[i][oi])
			}
			if shifts != nil && shifts[i] != 0 {
				th := shifts[i]
				rs.EachInterval(func(iv index.Interval) {
					for r := iv.Lo; r <= iv.Hi; r++ {
						out[r] -= th * cur[r]
					}
				})
			}
			if i < levels-1 {
				piece.EachInterval(func(iv index.Interval) {
					copy(dstData[i][iv.Lo:iv.Hi+1], out[iv.Lo:iv.Hi+1])
				})
			}
			cur = out
		}
		if sdc {
			for i := range chks {
				sum, _ := sumPiece(dstData[i], piece)
				chks[i][color] = sum
			}
		}
		return 0
	}
}

// Gram computes the Gram matrix G[i][j] = vs[i]·vs[j] of a basis with a
// single batched reduction: one partial task per piece computing every
// distinct pair, one combine total. The s-step methods fold all
// their inner products into this call — the one global synchronization
// of an s-iteration block. The returned matrix is symmetric (the lower
// triangle aliases the upper triangle's scalars).
func (p *Planner) Gram(vs ...VecID) [][]*Scalar {
	if len(vs) == 0 {
		panic("core: Gram of an empty basis")
	}
	pairs := make([]DotPair, 0, len(vs)*(len(vs)+1)/2)
	for i := range vs {
		for j := i; j < len(vs); j++ {
			pairs = append(pairs, DotPair{V: vs[i], W: vs[j]})
		}
	}
	flat := p.DotBatch(pairs...)
	g := make([][]*Scalar, len(vs))
	for i := range g {
		g[i] = make([]*Scalar, len(vs))
	}
	k := 0
	for i := range vs {
		for j := i; j < len(vs); j++ {
			g[i][j] = flat[k]
			g[j][i] = flat[k]
			k++
		}
	}
	return g
}
