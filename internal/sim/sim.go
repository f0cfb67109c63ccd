// Package sim is a discrete-event simulator that replays a recorded task
// graph against a machine model and reports the schedule's makespan.
//
// The reproduction cannot time 1,024 GPUs, so per the substitution rule
// the experiments measure simulated time instead: the runtime records the
// real dependence graph of the real computation (package taskrt), and this
// package schedules that graph on the modeled cluster — finite-bandwidth
// accelerators, serialized per-node network channels, per-task launch
// overheads. Because the graph is exact, the properties the paper's
// results hinge on (which communication hides under which computation,
// how much fixed overhead each iteration pays) transfer to the model.
//
// Two schedulers are provided. Simulate performs dependence-driven list
// scheduling with communication overlap — the task-oriented execution
// model of Legion and KDRSolvers. SimulateBSP runs the same graph
// bulk-synchronously — level by level with barriers, communication not
// overlapped across levels — which models the MPI execution style of the
// PETSc/Trilinos baselines and doubles as the "overlap off" ablation.
package sim

import (
	"fmt"

	"kdrsolvers/internal/machine"
	"kdrsolvers/internal/obs"
	"kdrsolvers/internal/taskrt"
)

// Options tunes the simulated runtime system.
type Options struct {
	// TaskOverhead is the per-task launch cost of the dynamic runtime
	// (dependence analysis, mapping, deferred-execution bookkeeping).
	TaskOverhead float64
	// TracedOverhead replaces TaskOverhead for tasks inside a memoized
	// trace (dynamic tracing skips the analysis).
	TracedOverhead float64
	// NodeSlowdown optionally scales compute costs per node (≥ 1), the
	// Figure 10 background-load mechanism. nil means no slowdown.
	NodeSlowdown []float64

	// RecordSpans fills Result.Spans with one obs.Span per task on the
	// simulated timeline (time zero = schedule start), so the critical-path
	// analyzer and Chrome-trace exporter work on simulated schedules
	// exactly as on real ones.
	RecordSpans bool

	// barriers switches the scheduler to bulk-synchronous mode; set by
	// SimulateBSP.
	barriers bool
}

// hostOpCost is the fixed simulated cost of a host-side future operation
// (scalar arithmetic between tasks).
const hostOpCost = 5e-7

// Result reports a simulated schedule.
type Result struct {
	// Makespan is the end-to-end simulated time in seconds.
	Makespan float64
	// ProcBusy is the per-processor compute time (including overheads).
	ProcBusy []float64
	// NodeBusy is the per-node compute time, summed over the node's
	// processors.
	NodeBusy []float64
	// CommBytes is the total bytes moved between nodes.
	CommBytes int64
	// IntraBytes is the total bytes moved within nodes.
	IntraBytes int64
	// Spans is the simulated schedule as observability spans, indexed by
	// task ID; only filled when Options.RecordSpans is set. Launch is the
	// time the task's last input arrived, so QueueLatency is the time
	// spent waiting for a free processor.
	Spans []obs.Span
}

// slowdown returns the compute multiplier for a node.
func (o Options) slowdown(node int) float64 {
	if o.NodeSlowdown == nil || node >= len(o.NodeSlowdown) {
		return 1
	}
	if s := o.NodeSlowdown[node]; s > 1 {
		return s
	}
	return 1
}

// Simulate schedules the graph with dependence-driven overlap as a
// work-conserving discrete-event simulation: a processor runs any task
// whose inputs have arrived (ready tasks are served in ready-time order,
// ties by launch order), and transfers start eagerly the moment their
// producer finishes, queueing on per-node network channels. This is the
// execution model of a task-based runtime like Legion: waiting for one
// task's data never idles the processor while other work is ready.
func Simulate(g taskrt.Graph, m machine.Machine, opt Options) Result {
	nprocs := m.NumProcs()
	sendFree := make([]float64, m.Nodes)
	recvFree := make([]float64, m.Nodes)
	intraFree := make([]float64, m.Nodes)
	res := Result{
		ProcBusy: make([]float64, nprocs),
		NodeBusy: make([]float64, m.Nodes),
	}
	if opt.RecordSpans {
		res.Spans = make([]obs.Span, g.Len())
	}

	// Per-task state.
	type taskState struct {
		pendingArrivals int     // edges whose data has not arrived
		ready           float64 // time the last input arrived
	}
	st := make([]taskState, g.Len())
	succs := make([][]int32, g.Len())     // consumers of each task
	succBytes := make([][]int64, g.Len()) // bytes owed to each consumer
	for i, n := range g.Nodes {
		st[i].pendingArrivals = len(n.Deps)
		for di, d := range n.Deps {
			succs[d] = append(succs[d], int32(i))
			succBytes[d] = append(succBytes[d], n.DepBytes[di])
		}
	}

	// Bulk-synchronous mode: tasks are grouped into dependence levels
	// separated by barriers. A task additionally waits for the previous
	// level's barrier, and cross-processor transfers are deferred to the
	// producing level's barrier — communication does not overlap compute,
	// which is precisely the constraint the task model relaxes.
	var level []int
	var levelRemaining []int
	type deferredXfer struct {
		producer, consumer int32
		bytes              int64
	}
	var deferred [][]deferredXfer
	var tasksAtLevel [][]int32
	if opt.barriers {
		level = make([]int, g.Len())
		maxLevel := 0
		for i, n := range g.Nodes {
			for _, d := range n.Deps {
				if level[d]+1 > level[i] {
					level[i] = level[d] + 1
				}
			}
			if level[i] > maxLevel {
				maxLevel = level[i]
			}
		}
		levelRemaining = make([]int, maxLevel+1)
		deferred = make([][]deferredXfer, maxLevel+1)
		tasksAtLevel = make([][]int32, maxLevel+1)
		for i := range g.Nodes {
			lv := level[i]
			levelRemaining[lv]++
			tasksAtLevel[lv] = append(tasksAtLevel[lv], int32(i))
			if lv > 0 {
				// The barrier release is one more pending arrival.
				st[i].pendingArrivals++
			}
		}
	}

	// Event heap: task finishes (kind 0) and data arrivals (kind 1),
	// processed in time order, ties by sequence for determinism.
	var heap eventHeap
	var seq int64
	push := func(t float64, task int32, kind int8) {
		seq++
		heap.push(simEvent{time: t, seq: seq, task: task, kind: kind})
	}

	// Per-proc ready queues and availability.
	readyQ := make([][]int32, nprocs)
	procFree := make([]float64, nprocs)
	procIdle := make([]bool, nprocs)
	for p := range procIdle {
		procIdle[p] = true
	}

	startTask := func(i int32, now float64) {
		n := &g.Nodes[i]
		proc := n.Proc % nprocs
		node := m.NodeOf(proc)
		var compute float64
		if n.Host {
			// Host-side future arithmetic: no kernel launch, no runtime
			// analysis — just the cost of waking the deferred value.
			compute = hostOpCost
		} else {
			overhead := opt.TaskOverhead
			if n.Traced {
				overhead = opt.TracedOverhead
			}
			compute = overhead + m.KernelLaunch + n.Cost*opt.slowdown(node)
		}
		fin := now + compute
		procFree[proc] = fin
		procIdle[proc] = false
		res.ProcBusy[proc] += compute
		res.NodeBusy[node] += compute
		if fin > res.Makespan {
			res.Makespan = fin
		}
		if opt.RecordSpans {
			res.Spans[i] = obs.Span{
				ID: int64(i), Name: n.Name, Phase: n.Phase,
				Proc: proc, Worker: proc,
				Launch: st[i].ready, Start: now, End: fin,
			}
		}
		push(fin, i, 0)
	}

	enqueueReady := func(i int32, now float64) {
		proc := g.Nodes[i].Proc % nprocs
		if procIdle[proc] {
			startTask(i, now)
			return
		}
		readyQ[proc] = append(readyQ[proc], i)
	}

	// Seed: tasks with no dependences are ready at time 0.
	for i := range g.Nodes {
		if st[i].pendingArrivals == 0 {
			enqueueReady(int32(i), 0)
		}
	}

	deliver := func(consumer int32, now float64) {
		s := &st[consumer]
		if now > s.ready {
			s.ready = now
		}
		s.pendingArrivals--
		if s.pendingArrivals == 0 {
			enqueueReady(consumer, s.ready)
		}
	}

	// transfer moves bytes from producer p to consumer c starting no
	// earlier than reqTime, scheduling the data-arrival event.
	transfer := func(p, c int32, b int64, reqTime float64) {
		srcProc := g.Nodes[p].Proc % nprocs
		node := m.NodeOf(srcProc)
		dstNode := m.NodeOf(g.Nodes[c].Proc % nprocs)
		var arrive float64
		if dstNode == node {
			dur := float64(b) / m.IntraBandwidth
			start := maxf(reqTime, intraFree[node])
			intraFree[node] = start + dur
			arrive = start + dur + m.IntraLatency
			res.IntraBytes += b
		} else {
			// Two pipelined stages: the source's injection (send)
			// channel, then the destination's receive channel. Keeping
			// the reservations independent avoids artificial convoying
			// across node chains while still serializing each node's own
			// traffic.
			dur := float64(b) / m.NetBandwidth
			sStart := maxf(reqTime, sendFree[node])
			sendFree[node] = sStart + dur
			rStart := maxf(sStart, recvFree[dstNode])
			recvFree[dstNode] = rStart + dur
			arrive = rStart + dur + m.NetLatency
			res.CommBytes += b
		}
		push(arrive, c, 1)
	}

	for heap.len() > 0 {
		ev := heap.pop()
		now := ev.time
		switch ev.kind {
		case 0: // task finish
			i := ev.task
			n := &g.Nodes[i]
			proc := n.Proc % nprocs
			for si, c := range succs[i] {
				b := succBytes[i][si]
				dst := g.Nodes[c].Proc % nprocs
				if b == 0 || dst == proc {
					deliver(c, now)
					continue
				}
				if opt.barriers {
					// Defer the transfer to this level's barrier.
					deferred[level[i]] = append(deferred[level[i]],
						deferredXfer{producer: i, consumer: c, bytes: b})
					continue
				}
				transfer(i, c, b, now)
			}
			if opt.barriers {
				lv := level[i]
				levelRemaining[lv]--
				if levelRemaining[lv] == 0 {
					// Barrier: flush the level's communication and
					// release the next level's tasks.
					for _, dx := range deferred[lv] {
						transfer(dx.producer, dx.consumer, dx.bytes, now)
					}
					deferred[lv] = nil
					if lv+1 < len(tasksAtLevel) {
						for _, j := range tasksAtLevel[lv+1] {
							deliver(j, now)
						}
					}
				}
			}
			// The processor picks its next ready task (earliest ready,
			// then launch order).
			if q := readyQ[proc]; len(q) > 0 {
				best := 0
				for k := 1; k < len(q); k++ {
					if st[q[k]].ready < st[q[best]].ready ||
						(st[q[k]].ready == st[q[best]].ready && q[k] < q[best]) {
						best = k
					}
				}
				next := q[best]
				readyQ[proc] = append(q[:best], q[best+1:]...)
				startTask(next, maxf(now, st[next].ready))
			} else {
				procIdle[proc] = true
			}
		case 1: // data arrival
			deliver(ev.task, now)
		}
	}
	return res
}

// eventHeap is a small binary min-heap ordered by (time, seq).
type eventHeap struct {
	ev []simEvent
}

type simEvent struct {
	time float64
	seq  int64
	task int32
	kind int8
}

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) less(a, b simEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e simEvent) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.ev[i], h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() simEvent {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.ev) && h.less(h.ev[l], h.ev[small]) {
			small = l
		}
		if r < len(h.ev) && h.less(h.ev[r], h.ev[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.ev[i], h.ev[small] = h.ev[small], h.ev[i]
		i = small
	}
	return top
}

// SimulateBSP schedules the same graph bulk-synchronously: tasks are
// grouped into dependence levels separated by barriers, every task waits
// for the previous level's barrier, and all communication is deferred to
// the producing level's barrier — no overlap of communication with
// compute and no slack between levels. This is the MPI execution model of
// the paper's baseline libraries and the "overlap off" ablation; because
// it only adds constraints to the same event-driven scheduler, the task
// schedule can never lose to it.
func SimulateBSP(g taskrt.Graph, m machine.Machine, opt Options) Result {
	opt.barriers = true
	return Simulate(g, m, opt)
}

// Validate checks a graph for simulator preconditions: dependences must
// point backwards (launch order is topological) and DepBytes must pair
// with Deps. It returns a descriptive error for the first violation.
func Validate(g taskrt.Graph) error {
	for i, n := range g.Nodes {
		if len(n.Deps) != len(n.DepBytes) {
			return fmt.Errorf("sim: node %d has %d deps but %d dep-byte entries",
				i, len(n.Deps), len(n.DepBytes))
		}
		for _, d := range n.Deps {
			if d < 0 || d >= int64(i) {
				return fmt.Errorf("sim: node %d depends on %d, not a predecessor", i, d)
			}
		}
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
