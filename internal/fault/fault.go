// Package fault is a deterministic, seedable fault injector for the task
// runtime. A Plan describes which tasks should misbehave and how often; an
// Injector draws a reproducible schedule from the plan, so every failure
// path — panics, silent NaN corruption, stragglers, bit flips in region
// data — is exercisable in tests and from the CLI with the same schedule
// for the same seed.
//
// Determinism contract: the Injector consumes one pseudo-random draw per
// *eligible* decision, in call order, plus a bounded number of extra draws
// when a decision lands on a data-corruption kind (to pick the corrupted
// element and, optionally, the bit). The runtime calls Decide once per
// task launch under its launch lock, so a single-threaded launcher (the
// usual solver goroutine) sees an identical fault schedule on every run
// with the same seed, plan, and program.
//
// A plan addresses tasks, and a task may hold a run of pieces: the
// planner launches adjacent small pieces as one task (a launch group),
// whether or not an injector is installed, so a plan observes the graph a
// plain run launches. A task is eligible under a piece filter when its
// piece range holds a listed piece. A data corruption lands on any point
// the eligible task writes, in a listed piece or not. A failed task's
// retry re-runs the whole task, every piece of its group, under the
// runtime's usual retryability rules.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind classifies an injected fault.
type Kind int

const (
	// None means the task runs clean.
	None Kind = iota
	// Panic makes the task body panic before doing any work — the
	// transient-crash model. Because no work has been done the task is
	// always safe to re-execute, but the runtime cannot know that and
	// applies its usual retryability rules.
	Panic
	// NaN runs the task body normally and then silently overwrites one
	// float64 of its output region data with NaN (or its scalar result,
	// when the task exposes no region hook) — the silent-data-corruption
	// model. No error is raised; detection is the solver's job.
	NaN
	// Stall sleeps for the plan's stall duration before running the body —
	// the straggler model, visible to the runtime watchdog.
	Stall
	// BitFlip runs the task body normally and then flips one bit of one
	// float64 in the task's output region data (or of its scalar result
	// when the task exposes no region hook) — the soft-error model. No
	// error is raised and no control flow changes; only the data lies.
	BitFlip
	// Scale runs the task body normally and then multiplies one output
	// element by the plan's scale factor — a tunable-magnitude silent
	// corruption for studying detection thresholds.
	Scale
)

// String returns the kind's conventional name.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Panic:
		return "panic"
	case NaN:
		return "nan"
	case Stall:
		return "stall"
	case BitFlip:
		return "bitflip"
	case Scale:
		return "scale"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// FlipBit returns v with one bit of its IEEE-754 representation flipped.
// Bits 0–51 are the mantissa (0 least significant), 52–62 the exponent,
// 63 the sign.
func FlipBit(v float64, bit int) float64 {
	if bit < 0 || bit > 63 {
		return v
	}
	return math.Float64frombits(math.Float64bits(v) ^ (1 << uint(bit)))
}

// Injection is the fault chosen for one task at launch. The zero value
// means no fault.
type Injection struct {
	// Kind is what happens to the task.
	Kind Kind
	// Sticky faults re-fire on every execution attempt; non-sticky faults
	// fire only on the first attempt, so a retry runs clean (the
	// transient-fault model).
	Sticky bool
	// Stall is how long a Stall fault sleeps.
	Stall time.Duration
	// Bit is the bit index a BitFlip corrupts (0 = lowest mantissa bit,
	// 52–62 exponent, 63 sign).
	Bit int
	// Factor is the multiplier a Scale corruption applies.
	Factor float64
	// Pos in [0,1) selects which output element a BitFlip or Scale
	// corrupts: the hook maps it over the task's writable points. A NaN
	// draws none and lands on the first.
	Pos float64
}

// CorruptValue applies a NaN, BitFlip or Scale corruption to one float64
// and returns the corrupted value; other kinds return v unchanged.
func (inj Injection) CorruptValue(v float64) float64 {
	switch inj.Kind {
	case NaN:
		return math.NaN()
	case BitFlip:
		return FlipBit(v, inj.Bit)
	case Scale:
		return v * inj.Factor
	}
	return v
}

// Plan describes a fault workload. Rates are per eligible task launch and
// partition a single uniform draw, so the five rates must not exceed 1 in
// sum.
type Plan struct {
	// Seed seeds the schedule; equal seeds give equal schedules.
	Seed int64
	// PanicRate, NaNRate, StallRate, BitFlipRate, ScaleRate are the
	// per-launch probabilities of each fault kind.
	PanicRate, NaNRate, StallRate, BitFlipRate, ScaleRate float64
	// StallFor is the injected straggler delay (default 50ms).
	StallFor time.Duration
	// Bit pins the bit a BitFlip corrupts (0–63; default 0, the lowest
	// mantissa bit — the quietest possible corruption). Ignored when
	// RandomBit is set.
	Bit int
	// RandomBit draws the flipped bit uniformly from 0–63 per fault.
	RandomBit bool
	// ScaleBy is the Scale corruption's multiplier (default 1 + 2⁻¹⁰).
	ScaleBy float64
	// Names restricts injection to the listed task names (empty = all).
	Names []string
	// Phases restricts injection to the listed solver phases (empty = all).
	Phases []string
	// Pieces restricts injection to tasks holding one of the listed piece
	// indices (empty = all). Tasks not associated with a piece are never
	// eligible under a piece filter.
	Pieces []int
	// Sticky makes faults re-fire on retry attempts.
	Sticky bool
	// MaxFaults caps the total number of injected faults (0 = unlimited).
	MaxFaults int
}

// Active reports whether the plan can inject anything at all.
func (p Plan) Active() bool {
	return p.PanicRate > 0 || p.NaNRate > 0 || p.StallRate > 0 ||
		p.BitFlipRate > 0 || p.ScaleRate > 0
}

func (p Plan) rateSum() float64 {
	return p.PanicRate + p.NaNRate + p.StallRate + p.BitFlipRate + p.ScaleRate
}

func (p Plan) ratesValid() bool {
	return p.PanicRate >= 0 && p.NaNRate >= 0 && p.StallRate >= 0 &&
		p.BitFlipRate >= 0 && p.ScaleRate >= 0 && p.rateSum() <= 1
}

// Injector draws a deterministic fault schedule from a Plan. Methods are
// safe for concurrent use, though determinism additionally requires that
// Decide calls arrive in a deterministic order (see the package comment).
type Injector struct {
	mu      sync.Mutex
	plan    Plan
	rng     *rand.Rand
	names   map[string]bool
	phases  map[string]bool
	decided int64
	counts  map[Kind]int64
}

// NewInjector builds an injector for the plan. It panics when the rates
// sum past 1 or the pinned bit is out of range.
func NewInjector(p Plan) *Injector {
	if !p.ratesValid() {
		panic("fault: rates must be non-negative and sum to at most 1")
	}
	if p.Bit < 0 || p.Bit > 63 {
		panic("fault: bit must be in 0..63")
	}
	if p.StallFor <= 0 {
		p.StallFor = 50 * time.Millisecond
	}
	if p.ScaleBy == 0 {
		p.ScaleBy = 1 + 1.0/1024
	}
	p.Pieces = slices.Clone(p.Pieces) // Decide reads it; the caller keeps its own
	in := &Injector{
		plan:   p,
		rng:    rand.New(rand.NewSource(p.Seed)),
		counts: make(map[Kind]int64),
	}
	if len(p.Names) > 0 {
		in.names = make(map[string]bool, len(p.Names))
		for _, n := range p.Names {
			in.names[n] = true
		}
	}
	if len(p.Phases) > 0 {
		in.phases = make(map[string]bool, len(p.Phases))
		for _, ph := range p.Phases {
			in.phases[ph] = true
		}
	}
	return in
}

// Decide chooses the fault (possibly None) for one task launch. pieces
// is the range of piece indices the task holds, first and one past the
// last; an empty range marks a task not associated with pieces. Filtered
// tasks consume no randomness, so adding tasks outside the filter does
// not perturb the schedule of tasks inside it.
func (in *Injector) Decide(name, phase string, pieces [2]int) Injection {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.names != nil && !in.names[name] {
		return Injection{}
	}
	if in.phases != nil && !in.phases[phase] {
		return Injection{}
	}
	if len(in.plan.Pieces) > 0 && !slices.ContainsFunc(in.plan.Pieces, func(pc int) bool {
		return pieces[0] <= pc && pc < pieces[1]
	}) {
		return Injection{}
	}
	if in.plan.MaxFaults > 0 && in.total() >= int64(in.plan.MaxFaults) {
		return Injection{}
	}
	in.decided++
	u := in.rng.Float64()
	pr, nr, sr, br := in.plan.PanicRate, in.plan.NaNRate, in.plan.StallRate, in.plan.BitFlipRate
	var kind Kind
	switch {
	case u < pr:
		kind = Panic
	case u < pr+nr:
		kind = NaN
	case u < pr+nr+sr:
		kind = Stall
	case u < pr+nr+sr+br:
		kind = BitFlip
	case u < pr+nr+sr+br+in.plan.ScaleRate:
		kind = Scale
	default:
		return Injection{}
	}
	in.counts[kind]++
	inj := Injection{Kind: kind, Sticky: in.plan.Sticky, Stall: in.plan.StallFor}
	if kind == BitFlip || kind == Scale {
		// Data corruptions draw the target element (and optionally the bit)
		// here, so the corruption site is as reproducible as the schedule.
		inj.Pos = in.rng.Float64()
		inj.Factor = in.plan.ScaleBy
		inj.Bit = in.plan.Bit
		if kind == BitFlip && in.plan.RandomBit {
			inj.Bit = in.rng.Intn(64)
		}
	}
	return inj
}

func (in *Injector) total() int64 {
	var t int64
	for _, c := range in.counts {
		t += c
	}
	return t
}

// Injected returns the total number of faults handed out so far.
func (in *Injector) Injected() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total()
}

// planKeys lists every key ParsePlan accepts, for error messages.
const planKeys = "panic, nan, stall, bitflip, scale, seed, stallms, bit, factor, sticky, max, name, phase, piece"

// ParsePlan parses the CLI fault-plan syntax: a comma-separated list of
// key=value settings.
//
//	panic=0.01,nan=0.001,seed=1,sticky=true,name=axpy|dot.partial
//	bitflip=0.02,bit=52,max=1,seed=3,phase=cg.step
//
// Keys: panic, nan, stall, bitflip, scale (rates in [0,1], keyed by the
// kind names of Kind.String()); seed (int); stallms (straggler delay in
// milliseconds); bit (flipped bit 0–63, or "rand"); factor (scale
// multiplier); sticky (bool); max (fault cap); name, phase ('|'-separated
// filter lists); piece ('|'-separated piece indices).
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("fault: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "panic":
			p.PanicRate, err = strconv.ParseFloat(v, 64)
		case "nan":
			p.NaNRate, err = strconv.ParseFloat(v, 64)
		case "stall":
			p.StallRate, err = strconv.ParseFloat(v, 64)
		case "bitflip":
			p.BitFlipRate, err = strconv.ParseFloat(v, 64)
		case "scale":
			p.ScaleRate, err = strconv.ParseFloat(v, 64)
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "stallms":
			var ms int64
			ms, err = strconv.ParseInt(v, 10, 64)
			p.StallFor = time.Duration(ms) * time.Millisecond
		case "bit":
			if v == "rand" {
				p.RandomBit = true
			} else {
				p.Bit, err = strconv.Atoi(v)
				if err == nil && (p.Bit < 0 || p.Bit > 63) {
					err = fmt.Errorf("bit %d out of range 0..63", p.Bit)
				}
			}
		case "factor":
			p.ScaleBy, err = strconv.ParseFloat(v, 64)
		case "sticky":
			p.Sticky, err = strconv.ParseBool(v)
		case "max":
			p.MaxFaults, err = strconv.Atoi(v)
		case "name":
			p.Names = strings.Split(v, "|")
		case "phase":
			p.Phases = strings.Split(v, "|")
		case "piece":
			for _, s := range strings.Split(v, "|") {
				var pc int
				pc, err = strconv.Atoi(s)
				if err != nil {
					break
				}
				p.Pieces = append(p.Pieces, pc)
			}
		default:
			return p, fmt.Errorf("fault: unknown plan key %q (valid keys: %s)", k, planKeys)
		}
		if err != nil {
			return p, fmt.Errorf("fault: bad value for %s: %v", k, err)
		}
	}
	if !p.ratesValid() {
		return p, fmt.Errorf("fault: rates must be non-negative and sum to at most 1")
	}
	return p, nil
}
