package core

import (
	"encoding/binary"
	"slices"

	"kdrsolvers/internal/index"
	"kdrsolvers/internal/taskrt"
)

// Launch templates. Every argument of an operation's launch — each task's
// name, processor, pieces, cost, refs and subsets, retry and detach flags,
// a product's members and input halos, the riders and bound kernel bodies,
// the corruption targets — is a function of the call site: the operation,
// its operand vectors, its updates (kinds, signs, which coefficient each
// reads) and dot pairs, and the planner's detection and injector modes.
// The site's first call builds them (buildSweep, buildProduct: the only
// code that makes a launch) into a template the planner keeps, and every
// call, the first included, fills in only what is its own: the
// coefficient scalars its tasks read, the futures they await, the memory
// its dots' partials go to and the scalars it returns. Legion's tracing
// memoizes a repeated step's dependence analysis; a template memoizes the
// arguments that feed it, so a launch costs a copy of its specs.
//
// Two calls of one site can be in flight at once — step k+1 launches
// while step k's tasks still run — so a call's state reaches its tasks
// only through the call's own launchCall, which each task's Run closes
// over, never through the template.
type launchTmpl struct {
	specs []taskrt.TaskSpec // all but a task's per-call Run, Corrupt and Awaits
	tasks []tmplTask        // parallel to specs
	// alphaOf lists, for each distinct coefficient of a sweep in
	// sweepOperands order, the update that names it.
	alphaOf []int
	// k is the number of dots the tasks compute (0 when they compute
	// none), over vectors of shape; reduce names their combine.
	k      int
	shape  Shape
	reduce string
	// sdc and hooks are the detection and injector modes it was built in.
	sdc, hooks bool
}

// tmplTask is what a template keeps of one task besides its spec.
type tmplTask struct {
	// body runs the task for one call. A task that reads nothing of the
	// call has its Run built once instead (add), and body is nil.
	body func(c *launchCall) float64
	// op and color are a multiply-add's operator and first output color,
	// which Config.MatmulProc may place anew at every call; op is -1 for
	// every other task.
	op, color int
	// targets are the task's writable points a fault plan may corrupt
	// besides its dots' partials, which sit at span in the call's buffer.
	targets []corruptTarget
	span    index.IntervalSet
	// bytes is what an edge from the task to a reader of its dots carries.
	bytes int64
}

// launchCall is one call's own state: the coefficient scalars its tasks
// evaluate, in sweepOperands order, and the memory its dots' partials go
// to (newPartials).
type launchCall struct {
	alphas []*Scalar
	out    []float64
	inline [2]*Scalar // alphas' storage for the common one or two
}

// noCall is the call a body that reads nothing of its call is run with.
var noCall = &launchCall{}

// perCall reports whether the template's tasks read per-call state.
func (t *launchTmpl) perCall() bool { return len(t.alphaOf) > 0 || t.k > 0 }

// add appends one task to the template; a body that reads nothing of the
// call becomes the spec's Run, built once.
func (t *launchTmpl) add(spec taskrt.TaskSpec, tt tmplTask) {
	if body := tt.body; body != nil && !t.perCall() {
		spec.Run = func() float64 { return body(noCall) }
		tt.body = nil
	}
	t.specs = append(t.specs, spec)
	t.tasks = append(t.tasks, tt)
}

// site returns the template of a call site, calling build and keeping its
// result on the site's first call. The key encodes the operation's name,
// the detection and injector modes, the product's vectors, each update's
// kind, sign, vectors and the first update reading the same coefficient,
// and the dot pairs; it is written into the planner's reused buffer and
// read only here, so a build that launches another site cannot clobber it.
func (p *Planner) site(name string, dst, src VecID, ups []VecUpdate, dots []DotPair, build func() *launchTmpl) *launchTmpl {
	k := append(p.key[:0], name...)
	k = append(k, 0, boolByte(p.sdcOn()), boolByte(p.faultHooks()))
	k = binary.AppendVarint(k, int64(dst))
	k = binary.AppendVarint(k, int64(src))
	k = binary.AppendUvarint(k, uint64(len(ups)))
	for _, u := range ups {
		k = append(k, byte(u.Kind), boolByte(u.Neg))
		k = binary.AppendVarint(k, int64(u.Dst))
		if u.Kind.hasSrc() {
			k = binary.AppendVarint(k, int64(u.Src))
		}
		if u.Kind.scaled() {
			j := 0
			for !ups[j].Kind.scaled() || ups[j].Alpha != u.Alpha {
				j++
			}
			k = binary.AppendUvarint(k, uint64(j))
		}
	}
	for _, d := range dots {
		k = binary.AppendVarint(k, int64(d.V))
		k = binary.AppendVarint(k, int64(d.W))
	}
	p.key = k
	if t := p.tmpls[string(k)]; t != nil {
		return t
	}
	key := string(k)
	t := build()
	if p.tmpls == nil {
		p.tmpls = make(map[string]*launchTmpl)
	}
	p.tmpls[key] = t
	return t
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// launch submits one call of t as a batch: the template's specs, each with
// the call's body, corruption hook and awaited futures. It returns the
// tasks' futures when they compute dots.
func (p *Planner) launch(t *launchTmpl, c *launchCall, awaits []taskrt.Await) []*taskrt.Future {
	for i := range t.specs {
		spec, tt := t.specs[i], &t.tasks[i]
		if body := tt.body; body != nil {
			spec.Run = func() float64 { return body(c) }
		}
		if tt.op >= 0 && p.mmProc != nil {
			if q := p.mmProc(tt.op, tt.color); q >= 0 {
				spec.Proc = q
			}
		}
		if t.hooks {
			targets := tt.targets
			if t.k > 0 {
				targets = append(slices.Clip(targets), corruptTarget{c.out, tt.span})
			}
			spec.Corrupt = corruptHook(targets...)
		}
		spec.Awaits = awaits
		p.specBuf = append(p.specBuf, spec)
	}
	futs := p.sess.LaunchBatch(p.specBuf)
	// Scrubbed, so the buffer does not retain the call past its launch.
	clear(p.specBuf)
	p.specBuf = p.specBuf[:0]
	return futs
}

// dotResults returns the k scalars of the dots one call of t computed:
// futs are its tasks' futures, buf the memory their partials went to. A
// virtual planner combines them in one task (batchReduce). On a real one
// the first reader of each scalar folds its partials pairwise (consuming
// them) and later readers read the sum; once all k have folded, buf goes
// back to the planner for the next call. With guards, the first fold of
// any of them first recomputes every piece's guard sum — the partials
// were written and summed in the same order, so any corruption of them
// makes the bitwise comparison fail — and alarms under t's reduce name.
func (p *Planner) dotResults(t *launchTmpl, futs []*taskrt.Future, buf *[]float64) []*Scalar {
	b := &dotBatch{buf: buf, pool: &p.partials}
	b.leaf.awaits = make([]taskrt.Await, len(futs))
	for i, f := range futs {
		b.leaf.awaits[i] = taskrt.Await{Future: f, Bytes: t.tasks[i].bytes}
	}
	if p.virtual {
		return p.batchReduce(t.reduce, &b.leaf, t.k)
	}
	b.leaves[0] = &b.leaf
	b.left.Store(int32(t.k))
	if t.sdc {
		b.verify = func() { p.checkGuards(t.reduce, *buf, t.shape, t.k) }
	}
	total := p.leafMap(t.shape).total
	dots := make([]Scalar, t.k)
	outs := make([]*Scalar, t.k)
	for j := range outs {
		s := &dots[j]
		s.leaves, s.durable = b.leaves[:], true
		s.dot.partials, s.dot.batch = (*buf)[j*total:(j+1)*total], b
		outs[j] = s
	}
	return outs
}
