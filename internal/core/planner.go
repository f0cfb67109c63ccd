package core

import (
	"fmt"
	"sync"

	"kdrsolvers/internal/dpart"
	"kdrsolvers/internal/index"
	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/region"
	"kdrsolvers/internal/sparse"
	"kdrsolvers/internal/taskrt"
)

// VecID names a logical vector managed by the planner.
type VecID int

// The two vectors every linear system starts with, as in Figure 7.
const (
	// SOL is the multi-component solution vector assembled by
	// AddSolVector calls.
	SOL VecID = 0
	// RHS is the multi-component right-hand-side vector assembled by
	// AddRHSVector calls.
	RHS VecID = 1
)

// Shape says whether a vector is laid out over the domain components
// (solution-shaped) or the range components (right-hand-side-shaped).
type Shape int

const (
	// SolShape vectors live in R^(D_total).
	SolShape Shape = iota
	// RhsShape vectors live in R^(R_total).
	RhsShape
)

// Config configures a planner.
type Config struct {
	// Machine provides the cost model for simulated task costs. Required.
	Machine machine.Machine
	// Virtual disables physical storage and real arithmetic: tasks are
	// recorded with costs for the simulator but perform no work. Virtual
	// planners scale to the paper's 2^32-unknown problems.
	Virtual bool
	// MatmulProc, if non-nil, overrides the processor for the
	// multiply-add task of operator op and output color c. This is the
	// hook the dynamic load balancer of Section 6.3 uses to migrate
	// matrix tiles between nodes. Returning a negative value keeps the
	// default placement (the owner of the output piece).
	MatmulProc func(op, color int) int
	// VectorProc, if non-nil, picks the processor owning vector piece
	// color (colors count on across components in the order they are
	// added); compute tasks run on the owner of the piece they write.
	// Defaults to color mod the machine's processor count — the paper's
	// static block mapping when there is one piece per GPU.
	VectorProc func(color int) int
	// Session, if non-nil, makes the planner launch into the given
	// session of an existing shared runtime instead of creating a fresh
	// runtime of its own. Every launch, phase label, trace scope, fault
	// injector, and recorder the planner touches goes through the
	// session, so many planners — one per concurrent solve — can
	// multiplex one runtime's worker pool without sharing failure state.
	Session *taskrt.Session
}

// component is one domain or range component with its canonical partition
// and the processor owning each piece.
type component struct {
	space index.Space
	part  index.Partition
	procs []int
}

// vec is one logical vector: one region per component.
type vec struct {
	shape Shape
	regs  []*region.Region
}

// opEntry is one (K_ℓ, A_ℓ, i_ℓ, j_ℓ) quadruple with its derived
// co-partitions.
type opEntry struct {
	mat    sparse.Matrix
	solIdx int // i_ℓ: domain component the operator reads (forward)
	rhsIdx int // j_ℓ: range component the operator writes (forward)

	// Forward product partitions, derived from the output component's
	// canonical partition: kpart[c] is the kernel piece writing output
	// piece c, inHalo[c] is the input data it reads, and outImage[c] is
	// the true write set (the row-relation image of the kernel piece) —
	// operators writing disjoint parts of one component stay parallel.
	kpart, inHalo, outImage index.Partition
	// Adjoint product partitions, derived from the input component's
	// canonical partition by the first MatmulT (deriveAdjoint).
	kpartT, inHaloT, outImageT index.Partition
}

// coPartition derives one product direction's partitions (Section 3.1):
// out relates the kernel to the output space and in to the input space.
// The kernel is partitioned by the preimage of the output partition, then
// projected along in to the input halo each piece reads and along out to
// the output points it really writes.
func coPartition(out, in dpart.Relation, outPart index.Partition) (kpart, inHalo, outImage index.Partition) {
	kpart = dpart.PreimagePartition(out, outPart)
	inHalo = dpart.ImagePartition(in, kpart)
	outImage = intersectPieces(dpart.ImagePartition(out, kpart), outPart)
	return kpart, inHalo, outImage
}

// Planner assembles a multi-operator system and exposes the mathematical
// operations KSMs are written against. Methods are not safe for
// concurrent use; the expected client is one solver goroutine (the tasks
// it launches run concurrently under the runtime).
type Planner struct {
	rt      *taskrt.Runtime
	sess    *taskrt.Session
	mach    machine.Machine
	virtual bool
	mmProc  func(op, color int) int
	vecProc func(color int) int

	sol, rhs  []component
	ops, pre  []opEntry
	vecs      []vec
	finalized bool
	// adjoint is set once every operator's adjoint partitions exist.
	adjoint bool
	// grain is the launch grain (launchGrain; a test may zero it before
	// the first launch) and groups caches each shape's launch groups.
	grain  int64
	groups [2][][]pieceGroup
	// leaves numbers each shape's dot leaves (fusedops.go), built on
	// first use; partials holds the memory of folded dot batches for
	// reuse (newPartials).
	leaves    [2]leafMap
	partials  sync.Pool
	colorBase int
	// step counts TraceBegin calls: an expression never spans two (Scalar).
	step      int
	tracing   bool
	traceOpen bool

	// tmpls holds one launch template per call site (launch.go), keyed by
	// the site's encoding, which site writes into the reused key.
	tmpls map[string]*launchTmpl
	key   []byte
	// specBuf collects the specs of one call so they submit through a
	// single LaunchBatch (one runtime-lock round trip per operation instead
	// of per task). The buffer is reused across operations; Planner
	// methods are single-goroutine, so no launch can interleave with an
	// open batch.
	specBuf []taskrt.TaskSpec

	// sdc holds the checksummed-kernel state when EnableSDCDetection has
	// been called; nil means every kernel runs its plain form.
	sdc *sdcState
}

// NewPlanner returns an empty planner running on a fresh task runtime,
// or — when cfg.Session is set — launching into that session of a
// shared runtime.
func NewPlanner(cfg Config) *Planner {
	vecProc := cfg.VectorProc
	if vecProc == nil {
		n := max(cfg.Machine.NumProcs(), 1)
		vecProc = func(color int) int { return color % n }
	}
	sess := cfg.Session
	if sess == nil {
		sess = taskrt.New().DefaultSession()
	}
	return &Planner{
		rt:      sess.Runtime(),
		sess:    sess,
		mach:    cfg.Machine,
		virtual: cfg.Virtual,
		mmProc:  cfg.MatmulProc,
		vecProc: vecProc,
		grain:   launchGrain,
		vecs:    make([]vec, 2), // SOL and RHS, filled by Add*Vector
	}
}

// Runtime returns the underlying task runtime (for Graph, Stats, and
// runtime-wide configuration). With a shared runtime, prefer Session
// for anything scoped to this planner's solve.
func (p *Planner) Runtime() *taskrt.Runtime { return p.rt }

// Session returns the session the planner launches into — the default
// session of its own runtime unless Config.Session bound it elsewhere.
func (p *Planner) Session() *taskrt.Session { return p.sess }

// BeginPhase tags every task launched from here on with a solver-phase
// label ("cg.step", "gmres.arnoldi", ...). Labels flow into the recorded
// graph and any attached obs.Recorder, giving profiles and traces a
// solver-level grouping on top of task names. An empty label clears the
// tag.
func (p *Planner) BeginPhase(label string) { p.sess.SetPhase(label) }

// SetTracing turns trace memoization on or off for solvers driving this
// planner: when on, solver iteration loops bracket each iteration (or
// GMRES restart cycle) in a runtime trace scope, so the dependence
// analysis of repeated launch sequences is memoized and replayed. Off by
// default; flipping it costs nothing for correctness either way — a
// wrongly scoped trace falls back to full analysis automatically.
func (p *Planner) SetTracing(on bool) { p.tracing = on }

// TraceBegin opens a runtime trace scope under the given key when
// tracing is enabled, reporting whether it did. Solvers call it at the
// top of a repeated launch sequence and hand the result to TraceEnd:
//
//	in := p.TraceBegin("cg.step")
//	defer p.TraceEnd(in)
//
// A scope still open from an abandoned sequence — a GMRES solve that
// converged mid-restart-cycle — is closed first; the runtime treats the
// short instance as a miss and re-records, so abandonment costs only
// performance. Every call, tracing or not, also starts a new step of the
// planner's scalar expressions (see Scalar).
func (p *Planner) TraceBegin(key string) bool {
	p.step++
	if !p.tracing {
		return false
	}
	if p.traceOpen {
		p.sess.EndTrace()
	}
	p.sess.BeginTrace(key)
	p.traceOpen = true
	return true
}

// TraceEnd closes the trace scope TraceBegin opened, if it opened one.
func (p *Planner) TraceEnd(began bool) {
	if began && p.traceOpen {
		p.sess.EndTrace()
		p.traceOpen = false
	}
}

// Machine returns the machine model used for task costs.
func (p *Planner) Machine() machine.Machine { return p.mach }

// Virtual reports whether the planner skips real arithmetic.
func (p *Planner) Virtual() bool { return p.virtual }

// addComponent registers a component with its canonical partition and
// assigns piece owners through vecProc. A real planner adopts data; a
// virtual one stores nothing and, given nil data, takes the size from
// the partition.
func (p *Planner) addComponent(name string, data []float64, part index.Partition) (component, *region.Region) {
	n := int64(len(data))
	switch {
	case !p.virtual && data == nil:
		panic("core: a real planner needs a vector's data")
	case p.virtual && data == nil:
		if part.NumColors() == 0 {
			panic("core: a virtual planner takes a vector's size from its partition, which is empty")
		}
		n = part.Space.Size()
	}
	space := index.NewSpace(name, n)
	if part.NumColors() == 0 {
		part = index.EqualPartition(space, 1)
	}
	if part.Space.Size() != n {
		panic(fmt.Sprintf("core: canonical partition covers %d points, component has %d",
			part.Space.Size(), n))
	}
	if !part.Complete() || !part.Disjoint() {
		panic("core: canonical partitions must be complete and disjoint")
	}
	procs := make([]int, part.NumColors())
	for c := range procs {
		procs[c] = p.vecProc(p.colorBase + c)
	}
	p.colorBase += part.NumColors()

	reg := region.NewVirtual(name, space)
	if !p.virtual {
		reg = region.Adopt(name, space, data)
	}
	return component{space: space, part: part, procs: procs}, reg
}

// AddSolVector supplies one component of the initial solution vector,
// adopting the caller's storage in place (no copy). An empty partition
// means a single piece. It returns the component's index i for use in
// AddOperator. A virtual planner may pass nil data: the component then
// has the partition's size.
func (p *Planner) AddSolVector(data []float64, part index.Partition) int {
	p.mustNotBeFinalized()
	comp, reg := p.addComponent(fmt.Sprintf("sol%d", len(p.sol)), data, part)
	p.sol = append(p.sol, comp)
	p.vecs[SOL].shape = SolShape
	p.vecs[SOL].regs = append(p.vecs[SOL].regs, reg)
	return len(p.sol) - 1
}

// AddRHSVector supplies one component of the right-hand-side vector,
// adopting the caller's storage in place (nil on a virtual planner, as
// for AddSolVector). It returns the component's index j for use in
// AddOperator.
func (p *Planner) AddRHSVector(data []float64, part index.Partition) int {
	p.mustNotBeFinalized()
	comp, reg := p.addComponent(fmt.Sprintf("rhs%d", len(p.rhs)), data, part)
	p.rhs = append(p.rhs, comp)
	p.vecs[RHS].shape = RhsShape
	p.vecs[RHS].regs = append(p.vecs[RHS].regs, reg)
	return len(p.rhs) - 1
}

// AddOperator adds the quadruple (K, A, i, j): matrix mat maps solution
// component solIdx to right-hand-side component rhsIdx. Any number of
// operators may share a (solIdx, rhsIdx) pair, and the same matrix may be
// added several times (aliasing); overlapping writes are summed
// (equation 8).
func (p *Planner) AddOperator(mat sparse.Matrix, solIdx, rhsIdx int) {
	p.mustNotBeFinalized()
	if solIdx < 0 || solIdx >= len(p.sol) || rhsIdx < 0 || rhsIdx >= len(p.rhs) {
		panic("core: AddOperator component index out of range")
	}
	if mat.Domain().Size() != p.sol[solIdx].space.Size() {
		panic(fmt.Sprintf("core: operator domain %d != component %d size %d",
			mat.Domain().Size(), solIdx, p.sol[solIdx].space.Size()))
	}
	if mat.Range().Size() != p.rhs[rhsIdx].space.Size() {
		panic(fmt.Sprintf("core: operator range %d != component %d size %d",
			mat.Range().Size(), rhsIdx, p.rhs[rhsIdx].space.Size()))
	}
	p.ops = append(p.ops, opEntry{mat: mat, solIdx: solIdx, rhsIdx: rhsIdx})
}

// AddOperatorAuto adds a CSR operator after adaptive format tuning: the
// matrix's row bands are taken from the range component's canonical
// partition (so every task piece computes over a single tile), each band
// is profiled, and each is converted to the format the calibrated model
// predicts fastest for its local structure. It returns the tuned
// composite so callers can report the chosen formats.
func (p *Planner) AddOperatorAuto(a *sparse.CSR, solIdx, rhsIdx int) *sparse.Auto {
	p.mustNotBeFinalized()
	if rhsIdx < 0 || rhsIdx >= len(p.rhs) {
		panic("core: AddOperatorAuto component index out of range")
	}
	tuned := sparse.AutoSelectBands(a, p.rhs[rhsIdx].part)
	p.AddOperator(tuned, solIdx, rhsIdx)
	return tuned
}

// AddPreconditioner adds a component of the preconditioner P_total, a map
// from the range space back to the domain space: mat maps right-hand-side
// component rhsIdx to solution component solIdx.
func (p *Planner) AddPreconditioner(mat sparse.Matrix, solIdx, rhsIdx int) {
	p.mustNotBeFinalized()
	if solIdx < 0 || solIdx >= len(p.sol) || rhsIdx < 0 || rhsIdx >= len(p.rhs) {
		panic("core: AddPreconditioner component index out of range")
	}
	if mat.Domain().Size() != p.rhs[rhsIdx].space.Size() {
		panic("core: preconditioner domain must match the range component")
	}
	if mat.Range().Size() != p.sol[solIdx].space.Size() {
		panic("core: preconditioner range must match the domain component")
	}
	p.pre = append(p.pre, opEntry{mat: mat, solIdx: solIdx, rhsIdx: rhsIdx})
}

// Finalize derives the forward co-partitions of every operator and
// preconditioner from the canonical partitions using the universal
// projection operators, after which the mathematical operations become
// available. Finalize must be called exactly once, after all Add* calls.
// The adjoint co-partitions wait for the first MatmulT: only solvers
// that run Aᵀ read them, and the preimage along the column relation they
// start from is the costliest projection (for an explicit column array it
// builds the relation's inverted index).
func (p *Planner) Finalize() {
	p.mustNotBeFinalized()
	if len(p.sol) == 0 || len(p.rhs) == 0 {
		panic("core: a system needs at least one solution and one right-hand-side component")
	}
	for i := range p.ops {
		op := &p.ops[i]
		op.kpart, op.inHalo, op.outImage = coPartition(op.mat.RowRelation(), op.mat.ColRelation(),
			p.rhs[op.rhsIdx].part)
	}
	for i := range p.pre {
		// A preconditioner writes a solution component: its output
		// partition is the domain component's canonical partition.
		op := &p.pre[i]
		op.kpart, op.inHalo, op.outImage = coPartition(op.mat.RowRelation(), op.mat.ColRelation(),
			p.sol[op.solIdx].part)
	}
	p.finalized = true
}

// deriveAdjoint derives every operator's adjoint co-partitions on the
// first call: the roles of the relations swap, and the input (domain)
// component's canonical partition drives the kernel.
func (p *Planner) deriveAdjoint() {
	if p.adjoint {
		return
	}
	for i := range p.ops {
		op := &p.ops[i]
		op.kpartT, op.inHaloT, op.outImageT = coPartition(op.mat.ColRelation(), op.mat.RowRelation(),
			p.sol[op.solIdx].part)
	}
	p.adjoint = true
}

// intersectPieces clips each piece of an image partition to the
// corresponding canonical piece (padding entries in some formats can
// image onto rows outside the piece that derived the kernel).
func intersectPieces(img, canon index.Partition) index.Partition {
	pieces := make([]index.IntervalSet, img.NumColors())
	for c := range pieces {
		pieces[c] = img.Piece(c).Intersect(canon.Piece(c))
	}
	return index.NewPartition(img.Space, pieces)
}

// IsSquare reports whether every solution component matches the
// same-indexed right-hand-side component in count and size, so that
// solution- and range-shaped vectors are interchangeable (required by CG,
// BiCGStab, and friends).
func (p *Planner) IsSquare() bool {
	if len(p.sol) != len(p.rhs) {
		return false
	}
	for i := range p.sol {
		if p.sol[i].space.Size() != p.rhs[i].space.Size() {
			return false
		}
	}
	return true
}

// HasPreconditioner reports whether any preconditioner component was
// added.
func (p *Planner) HasPreconditioner() bool { return len(p.pre) > 0 }

// AllocateWorkspace creates a zeroed workspace vector with the given
// shape and returns its ID.
func (p *Planner) AllocateWorkspace(shape Shape) VecID {
	p.mustBeFinalized()
	comps := p.comps(shape)
	v := vec{shape: shape}
	for i, c := range comps {
		name := fmt.Sprintf("ws%d.%d", len(p.vecs), i)
		if p.virtual {
			v.regs = append(v.regs, region.NewVirtual(name, c.space))
		} else {
			v.regs = append(v.regs, region.New(name, c.space))
		}
	}
	p.vecs = append(p.vecs, v)
	id := VecID(len(p.vecs) - 1)
	if p.sdcOn() {
		p.sdcAddVec(id)
	}
	return id
}

// comps returns the component list for a shape.
func (p *Planner) comps(shape Shape) []component {
	if shape == SolShape {
		return p.sol
	}
	return p.rhs
}

// vecComps returns a vector's regions and matching components.
func (p *Planner) vecComps(id VecID) (vec, []component) {
	v := p.vecs[id]
	return v, p.comps(v.shape)
}

// VecData returns the storage of component comp of any vector, for tests
// and examples. Real planners only.
func (p *Planner) VecData(id VecID, comp int) []float64 {
	return p.vecs[id].regs[comp].Data()
}

// Drain blocks until all tasks launched through this planner's session
// complete. Other sessions sharing the runtime are not waited on.
func (p *Planner) Drain() { p.sess.Drain() }

// CheckpointSol deep-copies the storage of every solution component,
// the planner-level checkpoint a resilient driver restarts from. Call
// Drain first so no task is mid-write. Real planners only.
func (p *Planner) CheckpointSol() [][]float64 {
	if p.virtual {
		panic("core: checkpointing requires a real planner")
	}
	out := make([][]float64, len(p.vecs[SOL].regs))
	for i, reg := range p.vecs[SOL].regs {
		out[i] = append([]float64(nil), reg.Data()...)
	}
	return out
}

// RestoreSol writes a checkpoint taken by CheckpointSol back into the
// solution vector's storage. The runtime must be quiescent (Drain first):
// the write happens host-side, outside the dependence analysis, and is
// safe only when no task is in flight. Real planners only.
func (p *Planner) RestoreSol(ckpt [][]float64) {
	if p.virtual {
		panic("core: checkpointing requires a real planner")
	}
	if len(ckpt) != len(p.vecs[SOL].regs) {
		panic("core: checkpoint component count mismatch")
	}
	for i, reg := range p.vecs[SOL].regs {
		dst := reg.Data()
		if len(ckpt[i]) != len(dst) {
			panic("core: checkpoint component size mismatch")
		}
		copy(dst, ckpt[i])
	}
	if p.sdcOn() {
		p.seedChecksum(SOL)
	}
}

func (p *Planner) mustBeFinalized() {
	if !p.finalized {
		panic("core: call Finalize before using planner operations")
	}
}

func (p *Planner) mustNotBeFinalized() {
	if p.finalized {
		panic("core: planner already finalized")
	}
}

// checkCompatible panics unless both vectors exist and have the same
// component structure, as every elementwise operation and sweep requires.
// Square systems make SolShape and RhsShape interchangeable.
func (p *Planner) checkCompatible(a, b VecID) {
	ac, bc := p.comps(p.vecs[a].shape), p.comps(p.vecs[b].shape)
	if len(ac) != len(bc) {
		panic("core: vectors have different component counts")
	}
	for i := range ac {
		if ac[i].space.Size() != bc[i].space.Size() {
			panic(fmt.Sprintf("core: component %d size mismatch: %d vs %d",
				i, ac[i].space.Size(), bc[i].space.Size()))
		}
	}
}
