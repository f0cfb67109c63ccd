package taskrt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/region"
)

// A random task program for TestTracedEqualsUntracedOnRandomPrograms:
// per session, a script of trace scopes over a body of tasks on a few
// small regions, with overlapping interval refs, all four privileges,
// fresh regions per instance (read by the next instance too), occasional
// shape changes and launches between instances. Scripts name regions by
// index, so a traced and an untraced run execute the same program.

const (
	progRegs      = 3  // long-lived regions per session
	progRegSize   = 32 // points per long-lived region
	progFresh     = 2  // fresh regions each instance creates
	progFreshSize = 8  // points per fresh region
)

// progRef is one ref of a task. reg names a long-lived region when ≥ 0;
// otherwise k = −reg−1 names the current instance's fresh region k, or,
// from progFresh on, the previous instance's fresh region k−progFresh.
type progRef struct {
	reg    int
	lo, hi int64
	priv   region.Privilege
}

func (r progRef) size() int64 {
	if r.reg < 0 {
		return progFreshSize
	}
	return progRegSize
}

type progTask struct {
	name string
	refs []progRef
}

// progOp is one step of a session's script.
type progOp struct {
	kind  int // opBegin, opEnd, opFresh, opLaunch
	tasks []progTask
}

const (
	opBegin  = iota // BeginTrace (traced run only)
	opEnd           // EndTrace (traced run only)
	opFresh         // create the next instance's fresh regions
	opLaunch        // Launch one task, or LaunchBatch several
)

var progPrivs = []region.Privilege{region.ReadOnly, region.ReadWrite, region.WriteDiscard, region.ReduceSum}

func randProgRef(rng *rand.Rand) progRef {
	r := progRef{reg: rng.Intn(progRegs+2*progFresh) - 2*progFresh, priv: progPrivs[rng.Intn(len(progPrivs))]}
	r.lo = rng.Int63n(r.size())
	r.hi = r.lo + rng.Int63n(r.size()-r.lo)
	return r
}

func randProgTask(rng *rand.Rand, name string) progTask {
	t := progTask{name: name}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		t.refs = append(t.refs, randProgRef(rng))
	}
	return t
}

// reshape returns a copy of body with one structural change: a ref's
// subset alone, a ref's privilege, the region a ref names (another of
// the same kind and size), a task's name, an extra task, or one task
// fewer.
func reshape(rng *rand.Rand, body []progTask) []progTask {
	out := make([]progTask, len(body))
	for i, t := range body {
		out[i] = progTask{name: t.name, refs: slices.Clone(t.refs)}
	}
	t := &out[rng.Intn(len(out))]
	ref := &t.refs[rng.Intn(len(t.refs))]
	switch rng.Intn(6) {
	case 0:
		ref.lo, ref.hi = (ref.lo+1+rng.Int63n(ref.size()-1))%ref.size(), ref.size()-1
	case 1:
		ref.priv = progPrivs[(slices.Index(progPrivs, ref.priv)+1+rng.Intn(3))%len(progPrivs)]
	case 2:
		if ref.reg >= 0 {
			ref.reg = (ref.reg + 1) % progRegs
		} else {
			ref.reg = -((-ref.reg - 1) ^ 1) - 1 // the other fresh region of its instance
		}
	case 3:
		t.name += "'"
	case 4:
		out = append(out, randProgTask(rng, "extra"))
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
	// Pre-trace code creates the regions the first instance reads as its
	// predecessor's (the calibrate-only stable→prev upgrade).
	ops := []progOp{{kind: opFresh}, {kind: opLaunch, tasks: []progTask{{name: "init", refs: []progRef{
		{reg: -1, hi: progFreshSize - 1, priv: region.WriteDiscard},
		{reg: -2, hi: progFreshSize - 1, priv: region.WriteDiscard},
	}}}}}
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
	sess   *Session
	traced bool
	regs   []*region.Region
	fresh  []*region.Region // the current instance's, then the previous one's
	all    []*region.Region // every region the run created, in order
}

func (r *progRun) newRegion(name string, size int64) *region.Region {
	reg := region.New(name, index.NewSpace(name, size))
	for i, d := 0, reg.Data(); i < len(d); i++ {
		d[i] = float64(len(r.all)*100 + i + 1)
	}
	r.all = append(r.all, reg)
	return reg
}

// spec turns a task into a launch whose body really reads and writes
// what it declares, in declaration order.
func (r *progRun) spec(t progTask) TaskSpec {
	spec := TaskSpec{Name: t.name}
	type access struct {
		data   []float64
		lo, hi int64
		priv   region.Privilege
	}
	var acc []access
	for _, pr := range t.refs {
		var reg *region.Region
		if pr.reg >= 0 {
			reg = r.regs[pr.reg]
		} else {
			reg = r.fresh[-pr.reg-1]
		}
		spec.Refs = append(spec.Refs, region.Ref{Region: reg.ID(), Subset: index.Span(pr.lo, pr.hi), Priv: pr.priv})
		acc = append(acc, access{reg.Data(), pr.lo, pr.hi, pr.priv})
	}
	spec.Run = func() float64 {
		v := 1.0
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
			r.fresh = append(r.fresh, r.newRegion("fresh", progFreshSize))
		}
		r.fresh = append(r.fresh, prev...)
	default:
		specs := make([]TaskSpec, len(op.tasks))
		for i, t := range op.tasks {
			specs[i] = r.spec(t)
		}
		if len(specs) == 1 {
			r.sess.Launch(specs[0])
		} else {
			r.sess.LaunchBatch(specs)
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
		runs[i] = &progRun{sess: s, traced: traced, fresh: make([]*region.Region, 2*progFresh)}
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
// overlapping refs, every privilege, fresh regions, shape changes, gaps,
// a second session launching inside its instances — a traced run must
// record the graph an untraced run records, session by session, and
// leave every region bit for bit the same.
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
			for k, reg := range plain[i].all {
				want, got := reg.Data(), traced[i].all[k].Data()
				for j := range want {
					if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
						t.Fatalf("seed %d, session %d, region %d point %d: untraced %v, traced %v",
							seed, i, k, j, want[j], got[j])
					}
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
