package solvers

import (
	"math"
	"sync"

	"kdrsolvers/internal/core"
)

// GCRO-DR (Parks et al.): GMRES with deflated restarting and subspace
// recycling across solves. The solver maintains k recycle vectors U with
// C = A·U orthonormal; every restart projects the residual onto the
// complement of range(C) (x += U Cᵀr, r −= C Cᵀr), and every Arnoldi
// step deflates A v_j against C, so the Krylov iteration runs on
// (I − CCᵀ)A and never re-discovers the deflated directions. At each
// cycle end the recycle space is refreshed from the Ritz vectors of
// smallest magnitude — the slowly-converging directions worth keeping.
//
// Across solves the space travels through a RecycleCache, which holds
// one space: its owner decides which solves share it — the server keeps
// one per matrix, a library caller passes the same cache to a sequence
// of related systems (examples/multirhs). A loaded space is projected
// through C = A·U afresh, so it warm-starts any operator of the same
// size. The restart cycle around the deflated steps is arnoldi's.

// RecycleCache carries one harvested recycle space between solves.
// The zero value is empty and ready for use. Safe for concurrent use:
// load and store deep-copy the space, so a solve reading a warm start
// can never observe a concurrent store mutating it, and concurrent
// GCRO-DR sessions sharing one cache do not race.
type RecycleCache struct {
	mu sync.Mutex
	u  [][]float64
}

func (c *RecycleCache) load() [][]float64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return cloneSpace(c.u)
}

func (c *RecycleCache) store(u [][]float64) {
	if c == nil {
		return
	}
	cp := cloneSpace(u)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.u = cp
}

func cloneSpace(u [][]float64) [][]float64 {
	out := make([][]float64, len(u))
	for i := range u {
		out[i] = append([]float64(nil), u[i]...)
	}
	return out
}

// GCRODR is the recycling solver. A nil cache still performs deflated
// restarting within one solve; a shared cache adds cross-solve recycling.
type GCRODR struct {
	arnoldi
	k     int
	cache *RecycleCache
	w     core.VecID
	uvec  []core.VecID     // recycle space U
	cvec  []core.VecID     // C = A·U, orthonormal
	nrec  int              // active recycle vectors (0 until first harvest)
	bcol  [][]*core.Scalar // deflation coefficients B[j][i] = ⟨A v_j, c_i⟩
}

// NewGCRODR builds a GCRO-DR solver with cycle length m keeping k
// recycle vectors. If cache holds a space of k vectors of the system's
// length (real planners only), the solve warm-starts from it.
func NewGCRODR(p *core.Planner, m, k int, cache *RecycleCache) *GCRODR {
	if !p.IsSquare() {
		panic("solvers: GCRO-DR requires a square system")
	}
	if m < 1 || k < 1 || k >= m {
		panic("solvers: GCRO-DR needs 1 ≤ k < m")
	}
	s := &GCRODR{arnoldi: arnoldi{p: p, name: "gcrodr", m: m}, k: k, cache: cache, w: p.AllocateWorkspace(core.RhsShape)}
	s.prologue, s.finish = s.projectedBegin, s.correctAndHarvest
	for i := 0; i <= m; i++ {
		s.basis = append(s.basis, p.AllocateWorkspace(core.RhsShape))
	}
	for i := 0; i < k; i++ {
		s.uvec = append(s.uvec, p.AllocateWorkspace(core.RhsShape))
		s.cvec = append(s.cvec, p.AllocateWorkspace(core.RhsShape))
	}
	s.restart()
	return s
}

// restart implements restarter: the recycle space re-warms from the
// cache — or, without a cached space of the system's size, empties — and
// the cycle prologue projects b − A·x against it.
func (s *GCRODR) restart() {
	p := s.p
	p.TraceEnd(s.tr) // the warm-up is no part of the discarded cycle
	s.tr = false
	s.nrec = 0
	if !p.Virtual() {
		if cached := s.cache.load(); len(cached) == s.k {
			ok := true
			for i := range cached {
				if len(cached[i]) != len(p.VecData(s.uvec[i], 0)) {
					ok = false
					break
				}
			}
			if ok {
				// The space is copied straight into the workspaces'
				// backing storage, so no task may still be reading them.
				p.Drain()
				for i := range cached {
					copy(p.VecData(s.uvec[i], 0), cached[i])
				}
				s.nrec = s.k
				s.refreshC()
			}
		}
	}
	s.arnoldi.restart()
}

// refreshC recomputes C = A·U and MGS-orthonormalizes the pairs so that
// C stays orthonormal with A·uᵢ = cᵢ (every combination applied to C is
// mirrored on U).
func (s *GCRODR) refreshC() {
	p := s.p
	p.BeginPhase("gcrodr.recycle")
	for i := 0; i < s.nrec; i++ {
		p.Matmul(s.cvec[i], s.uvec[i])
	}
	for i := 0; i < s.nrec; i++ {
		for l := 0; l < i; l++ {
			d := p.Dot(s.cvec[i], s.cvec[l])
			p.Axpy(s.cvec[i], p.Neg(d), s.cvec[l])
			p.Axpy(s.uvec[i], p.Neg(d), s.uvec[l])
		}
		inv := p.Div(p.Constant(1), p.Sqrt(p.Dot(s.cvec[i], s.cvec[i])))
		p.FusedUpdate(
			core.VecUpdate{Kind: core.UpdScal, Dst: s.cvec[i], Alpha: inv},
			core.VecUpdate{Kind: core.UpdScal, Dst: s.uvec[i], Alpha: inv})
	}
}

// projectedBegin is the restart prologue: recompute the true residual,
// project it against the recycle space (improving x), and normalize v₀.
func (s *GCRODR) projectedBegin() {
	p := s.p
	p.BeginPhase("gcrodr.restart")
	r := s.basis[0]
	residualInit(p, r)
	// Optimal correction within range(U): x += U Cᵀr, r −= C Cᵀr. Since
	// A·uᵢ = cᵢ, the residual identity r = b − Ax is preserved exactly.
	for i := 0; i < s.nrec; i++ {
		z := p.Dot(r, s.cvec[i])
		p.Axpy(core.SOL, z, s.uvec[i])
		p.Axpy(r, p.Neg(z), s.cvec[i])
	}
	s.normalize()
	s.bcol = make([][]*core.Scalar, 0, s.m)
}

// Name implements Solver.
func (s *GCRODR) Name() string { return "GCRO-DR" }

// Step implements Solver: one deflated Arnoldi step.
func (s *GCRODR) Step() {
	p := s.p
	j := s.open()
	// The product carries the first coefficient w takes: the first
	// deflation one, or without a recycle space the first Gram-Schmidt one.
	first := s.basis[0]
	if s.nrec > 0 {
		first = s.cvec[0]
	}
	h := p.Matmul(s.w, s.basis[j], core.DotPair{V: s.w, W: first})[0]
	// Deflate against the recycle space: w ← (I − CCᵀ) A v_j, recording
	// the C-components as the B coupling block.
	bc := make([]*core.Scalar, s.nrec)
	for i := 0; i < s.nrec; i++ {
		bij := h
		if i > 0 {
			bij = p.Dot(s.w, s.cvec[i])
		}
		bc[i] = bij
		p.Axpy(s.w, p.Neg(bij), s.cvec[i])
	}
	s.bcol = append(s.bcol, bc)
	if s.nrec > 0 {
		h = nil
	}
	s.mgsStep(s.w, h)
}

// correctAndHarvest finishes a cycle after x += V y: it applies
// x −= U (B y) (the C-block of A·(Vy) is cancelled through U, as in
// GCRO) and harvests the next recycle space from the cycle's smallest
// Ritz vectors.
func (s *GCRODR) correctAndHarvest(h [][]float64, y []float64) {
	p := s.p
	if s.nrec > 0 {
		by := make([]float64, s.nrec)
		for j, yj := range y {
			if math.IsNaN(yj) {
				continue
			}
			for i := 0; i < s.nrec; i++ {
				by[i] += s.bcol[j][i].Value() * yj
			}
		}
		for i := 0; i < s.nrec; i++ {
			if !math.IsNaN(by[i]) {
				p.AxpyConst(core.SOL, -by[i], s.uvec[i])
			}
		}
	}
	s.harvest(h)
}

// harvest replaces the recycle space with the cycle's k Ritz vectors of
// smallest magnitude — U_t = Σ_j y_t[j] v_j, launched in the dataflow
// (the runtime orders the reads before the next cycle overwrites the
// basis) — and relinearizes C = A·U.
func (s *GCRODR) harvest(h [][]float64) {
	m := len(h)
	if s.p.Virtual() || m <= s.k {
		return
	}
	// Ritz values of the deflated operator from the symmetrized m×m
	// Hessenberg block.
	sym := make([][]float64, m)
	for i := 0; i < m; i++ {
		sym[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			if i < len(h[j]) {
				sym[i][j] = h[j][i]
			}
		}
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			v := (sym[i][j] + sym[j][i]) / 2
			if math.IsNaN(v) {
				return
			}
			sym[i][j], sym[j][i] = v, v
		}
	}
	vals, vecs := jacobiEigen(sym)
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	for a := 0; a < m; a++ { // selection sort by |θ|, smallest first
		best := a
		for b := a + 1; b < m; b++ {
			if math.Abs(vals[order[b]]) < math.Abs(vals[order[best]]) {
				best = b
			}
		}
		order[a], order[best] = order[best], order[a]
	}
	p := s.p
	p.BeginPhase("gcrodr.harvest")
	var ups []core.VecUpdate
	for t := 0; t < s.k; t++ {
		yt := vecs[order[t]]
		ups = append(ups, core.VecUpdate{Kind: core.UpdZero, Dst: s.uvec[t]})
		for j := 0; j < m; j++ {
			if !math.IsNaN(yt[j]) {
				ups = append(ups, core.VecUpdate{Kind: core.UpdAxpy, Dst: s.uvec[t], Alpha: p.Constant(yt[j]), Src: s.basis[j]})
			}
		}
	}
	p.FusedUpdate(ups...)
	s.nrec = s.k
	s.refreshC()
}

// SaveRecycleSpace publishes the current recycle space into the cache,
// replacing what it held, so the next solve sharing the cache
// warm-starts from it. Call after the planner has drained;
// it reads vector data host-side. No-op without an active space, on
// virtual planners, or with a nil cache.
func (s *GCRODR) SaveRecycleSpace() {
	if s.cache == nil || s.nrec == 0 || s.p.Virtual() {
		return
	}
	u := make([][]float64, s.nrec)
	for i := 0; i < s.nrec; i++ {
		u[i] = s.p.VecData(s.uvec[i], 0) // store copies
	}
	s.cache.store(u)
}
