package taskrt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
)

// A random task program for TestTracedEqualsUntracedOnRandomPrograms:
// per session, a script of trace scopes over a body of tasks on a few
// small regions, with overlapping interval refs, all four privileges,
// futures each instance produces and awaits (the previous instance's
// too), occasional shape changes and launches between instances. Scripts
// name regions and futures by index, so a traced and an untraced run
// execute the same program.

const (
	progRegs    = 3  // regions per session
	progRegSize = 32 // points per region
	progFresh   = 2  // futures each instance may produce
)

// progRef is one ref of a task.
type progRef struct {
	reg    int
	lo, hi int64
	priv   region.Privilege
}

// progAwait is one future a task awaits: k < progFresh names the current
// instance's future k, and from progFresh on the previous instance's
// future k−progFresh. A slot no task has produced yet holds a resolved
// future, which adds no edge.
type progAwait struct {
	k     int
	bytes int64
}

type progTask struct {
	name    string
	refs    []progRef
	awaits  []progAwait
	produce int // the current instance's future the task produces, or -1
}

// progOp is one step of a session's script.
type progOp struct {
	kind  int // opBegin, opEnd, opFresh, opLaunch
	tasks []progTask
}

const (
	opBegin  = iota // BeginTrace (traced run only)
	opEnd           // EndTrace (traced run only)
	opFresh         // start the next instance's futures
	opLaunch        // Launch one task, or LaunchBatch several
)

var progPrivs = []region.Privilege{region.ReadOnly, region.ReadWrite, region.WriteDiscard, region.ReduceSum}

func randProgRef(rng *rand.Rand) progRef {
	r := progRef{reg: rng.Intn(progRegs), priv: progPrivs[rng.Intn(len(progPrivs))]}
	r.lo = rng.Int63n(progRegSize)
	r.hi = r.lo + rng.Int63n(progRegSize-r.lo)
	return r
}

func randProgAwait(rng *rand.Rand) progAwait {
	return progAwait{k: rng.Intn(2 * progFresh), bytes: 8 * (1 + rng.Int63n(4))}
}

func randProgTask(rng *rand.Rand, name string) progTask {
	t := progTask{name: name, produce: rng.Intn(progFresh+1) - 1}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		t.refs = append(t.refs, randProgRef(rng))
	}
	for k := rng.Intn(3); k > 0; k-- {
		t.awaits = append(t.awaits, randProgAwait(rng))
	}
	return t
}

// reshape returns a copy of body with one change: a ref's subset alone, a
// ref's privilege, the region a ref names, a task's name, an extra task,
// one task fewer — each a structural change — or the futures a task
// awaits, which no fingerprint holds.
func reshape(rng *rand.Rand, body []progTask) []progTask {
	out := make([]progTask, len(body))
	for i, t := range body {
		out[i] = progTask{name: t.name, refs: slices.Clone(t.refs), awaits: slices.Clone(t.awaits), produce: t.produce}
	}
	t := &out[rng.Intn(len(out))]
	ref := &t.refs[rng.Intn(len(t.refs))]
	switch rng.Intn(7) {
	case 0:
		ref.lo, ref.hi = (ref.lo+1+rng.Int63n(progRegSize-1))%progRegSize, progRegSize-1
	case 1:
		ref.priv = progPrivs[(slices.Index(progPrivs, ref.priv)+1+rng.Intn(3))%len(progPrivs)]
	case 2:
		ref.reg = (ref.reg + 1) % progRegs
	case 3:
		t.name += "'"
	case 4:
		out = append(out, randProgTask(rng, "extra"))
	case 5:
		t.awaits = append(t.awaits[:0:0], randProgAwait(rng))
	default:
		if len(out) > 1 {
			out = out[:len(out)-1]
		}
	}
	return out
}

// genScript builds one session's script.
func genScript(rng *rand.Rand) []progOp {
	body := make([]progTask, 3+rng.Intn(4))
	for i := range body {
		body[i] = randProgTask(rng, fmt.Sprintf("t%d", i))
	}
	// Pre-trace code produces the futures the first instance awaits as its
	// predecessor's.
	ops := []progOp{{kind: opFresh}, {kind: opLaunch, tasks: []progTask{
		{name: "init0", refs: []progRef{{reg: 0, hi: progRegSize - 1, priv: region.ReadOnly}}, produce: 0},
		{name: "init1", refs: []progRef{{reg: 1, hi: progRegSize - 1, priv: region.ReadOnly}}, produce: 1},
	}}}
	for n := 8 + rng.Intn(8); n > 0; n-- {
		tasks := body
		if rng.Intn(6) == 0 {
			tasks = reshape(rng, body)
			if rng.Intn(2) == 0 {
				body = tasks // the program changed for good
			}
		}
		ops = append(ops, progOp{kind: opBegin}, progOp{kind: opFresh})
		for j := 0; j < len(tasks); {
			k := min(j+1+rng.Intn(2), len(tasks))
			ops = append(ops, progOp{kind: opLaunch, tasks: tasks[j:k]})
			j = k
		}
		ops = append(ops, progOp{kind: opEnd})
		if rng.Intn(8) == 0 {
			ops = append(ops, progOp{kind: opLaunch, tasks: []progTask{randProgTask(rng, "gap")}})
		}
	}
	return ops
}

// progRun executes one session's script.
type progRun struct {
	sess     *Session
	traced   bool
	regs     []*region.Region
	fresh    []*Future // the current instance's, then the previous one's
	produced []*Future // every future a task produced, in order
	early    atomic.Int64
}

func (r *progRun) newRegion(name string, size int64) *region.Region {
	reg := region.New(name, index.NewSpace(name, size))
	for i, d := 0, reg.Data(); i < len(d); i++ {
		d[i] = float64(len(r.regs)*100 + i + 1)
	}
	return reg
}

// spec turns a task into a launch whose body really reads and writes
// what it declares, in declaration order, after folding in the values of
// the futures it awaits. A body that finds an awaited future not yet
// resolved counts a missing edge.
func (r *progRun) spec(t progTask) TaskSpec {
	spec := TaskSpec{Name: t.name, Detached: t.produce < 0}
	type access struct {
		data   []float64
		lo, hi int64
		priv   region.Privilege
	}
	var acc []access
	for _, pr := range t.refs {
		reg := r.regs[pr.reg]
		spec.Refs = append(spec.Refs, region.Ref{Region: reg.ID(), Subset: index.Span(pr.lo, pr.hi), Priv: pr.priv})
		acc = append(acc, access{reg.Data(), pr.lo, pr.hi, pr.priv})
	}
	for _, a := range t.awaits {
		spec.Awaits = append(spec.Awaits, Await{Future: r.fresh[a.k], Bytes: a.bytes})
	}
	awaits := spec.Awaits
	spec.Run = func() float64 {
		v := 1.0
		for _, a := range awaits {
			if !a.Future.Ready() {
				r.early.Add(1)
			}
			v = 0.5*v + 0.25*a.Future.Value()
		}
		for _, a := range acc {
			for i := a.lo; i <= a.hi; i++ {
				switch a.priv {
				case region.ReadOnly:
					v = 0.5*v + 0.25*a.data[i]
				case region.ReadWrite:
					a.data[i] = 0.5*a.data[i] + 0.5*v + 1
				case region.WriteDiscard:
					a.data[i] = v + float64(i)
				default:
					a.data[i] += 0.125 * v
				}
			}
		}
		return v
	}
	return spec
}

func (r *progRun) do(op progOp) {
	switch op.kind {
	case opBegin:
		if r.traced {
			r.sess.BeginTrace("body")
		}
	case opEnd:
		if r.traced {
			r.sess.EndTrace()
		}
	case opFresh:
		prev := r.fresh[:progFresh]
		r.fresh = nil
		for k := 0; k < progFresh; k++ {
			r.fresh = append(r.fresh, Resolved(float64(k+1)))
		}
		r.fresh = append(r.fresh, prev...)
	default:
		specs := make([]TaskSpec, len(op.tasks))
		for i, t := range op.tasks {
			specs[i] = r.spec(t)
		}
		futs := r.sess.LaunchBatch(specs)
		for i, t := range op.tasks {
			if t.produce >= 0 {
				r.fresh[t.produce] = futs[i]
				r.produced = append(r.produced, futs[i])
			}
		}
	}
}

// runProgram runs two sessions' scripts on one fresh runtime, merged in
// the seeded order, and returns both runs once drained.
func runProgram(seed int64, traced bool) (*Runtime, [2]*progRun) {
	rng := rand.New(rand.NewSource(seed))
	scripts := [2][]progOp{genScript(rng), genScript(rng)}
	rt := New()
	var runs [2]*progRun
	for i, s := range []*Session{rt.DefaultSession(), rt.NewSession("b")} {
		runs[i] = &progRun{sess: s, traced: traced, fresh: make([]*Future, 2*progFresh)}
		for k := 0; k < progRegs; k++ {
			runs[i].regs = append(runs[i].regs, runs[i].newRegion(fmt.Sprintf("r%d", k), progRegSize))
		}
	}
	// The second session's steps land anywhere in the first's, inside
	// its trace instances included.
	var next [2]int
	for next[0] < len(scripts[0]) || next[1] < len(scripts[1]) {
		i := rng.Intn(2)
		if next[i] == len(scripts[i]) {
			i = 1 - i
		}
		runs[i].do(scripts[i][next[i]])
		next[i]++
	}
	rt.Drain()
	return rt, runs
}

// Traced ≡ untraced on random programs: whatever a program does —
// overlapping refs, every privilege, awaited futures of this instance and
// the previous one, shape changes, gaps, a second session launching inside
// its instances — a traced run must record the graph an untraced run
// records, session by session, run no task before a future it awaits, and
// leave every region and future bit for bit the same.
func TestTracedEqualsUntracedOnRandomPrograms(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 24
	}
	var total Stats
	for seed := int64(1); seed <= int64(seeds); seed++ {
		_, plain := runProgram(seed, false)
		rt, traced := runProgram(seed, true)
		for i := range plain {
			if d := graphDiff(plain[i].sess.Graph(), traced[i].sess.Graph()); d != "" {
				t.Fatalf("seed %d, session %d: %s", seed, i, d)
			}
			if n := plain[i].early.Load() + traced[i].early.Load(); n > 0 {
				t.Fatalf("seed %d, session %d: %d task bodies ran before a future they await", seed, i, n)
			}
			for k, reg := range plain[i].regs {
				want, got := reg.Data(), traced[i].regs[k].Data()
				for j := range want {
					if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
						t.Fatalf("seed %d, session %d, region %d point %d: untraced %v, traced %v",
							seed, i, k, j, want[j], got[j])
					}
				}
			}
			for k, f := range plain[i].produced {
				if want, got := f.Value(), traced[i].produced[k].Value(); math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("seed %d, session %d, future %d: untraced %v, traced %v", seed, i, k, want, got)
				}
			}
		}
		st := rt.Stats()
		total.TraceReplays += st.TraceReplays
		total.TraceHits += st.TraceHits
		total.TraceFallbacks += st.TraceFallbacks
	}
	// The property is vacuous unless the programs replay and fall back.
	if total.TraceHits == 0 || total.TraceReplays == 0 || total.TraceFallbacks == 0 {
		t.Fatalf("over %d programs: %d hits, %d replayed launches, %d fallbacks — the generator no longer exercises replay",
			seeds, total.TraceHits, total.TraceReplays, total.TraceFallbacks)
	}
	t.Logf("over %d programs: %d hits, %d replayed launches, %d fallbacks",
		seeds, total.TraceHits, total.TraceReplays, total.TraceFallbacks)
}
