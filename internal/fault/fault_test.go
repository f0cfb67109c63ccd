package fault

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// schedule draws n decisions and returns the chosen kinds.
func schedule(in *Injector, n int, name, phase string) []Kind {
	out := make([]Kind, n)
	for i := range out {
		out[i] = in.Decide(name, phase, [2]int{}).Kind
	}
	return out
}

func TestFaultDeterministicSchedule(t *testing.T) {
	plan := Plan{Seed: 42, PanicRate: 0.2, NaNRate: 0.1, StallRate: 0.05}
	a := schedule(NewInjector(plan), 500, "axpy", "cg.step")
	b := schedule(NewInjector(plan), 500, "axpy", "cg.step")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d: %v vs %v", i, a[i], b[i])
		}
	}
	// A different seed must (with overwhelming probability) differ somewhere.
	c := schedule(NewInjector(Plan{Seed: 43, PanicRate: 0.2, NaNRate: 0.1, StallRate: 0.05}), 500, "axpy", "cg.step")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 500-decision schedules")
	}
}

func TestFaultRatesPartitionOneDraw(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, PanicRate: 0.3, NaNRate: 0.3, StallRate: 0.3})
	const n = 10000
	var got [8]int
	for _, k := range schedule(in, n, "t", "") {
		got[k]++
	}
	for k, want := range map[Kind]float64{Panic: 0.3, NaN: 0.3, Stall: 0.3, None: 0.1} {
		frac := float64(got[k]) / n
		if frac < want-0.05 || frac > want+0.05 {
			t.Errorf("%v rate = %.3f, want ≈ %.2f", k, frac, want)
		}
	}
	if in.Injected() != int64(got[Panic]+got[NaN]+got[Stall]) {
		t.Fatalf("Injected = %d, counts say %d", in.Injected(), got[Panic]+got[NaN]+got[Stall])
	}
	if in.counts[Panic] != int64(got[Panic]) {
		t.Fatalf("counts[Panic] = %d, want %d", in.counts[Panic], got[Panic])
	}
}

func TestFaultFiltersConsumeNoRandomness(t *testing.T) {
	plan := Plan{Seed: 7, PanicRate: 0.5, Names: []string{"axpy"}}
	// Schedule A: only eligible decisions.
	a := schedule(NewInjector(plan), 100, "axpy", "")
	// Schedule B: the same eligible decisions interleaved with filtered-out
	// ones. The eligible subsequence must be identical.
	in := NewInjector(plan)
	var b []Kind
	for i := 0; i < 100; i++ {
		if got := in.Decide("dot.partial", "", [2]int{}); got.Kind != None {
			t.Fatal("filtered-out task was injected")
		}
		b = append(b, in.Decide("axpy", "", [2]int{}).Kind)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("filtered tasks perturbed the schedule at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFaultPhaseFilter(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, PanicRate: 1, Phases: []string{"cg.step"}})
	if in.Decide("axpy", "resilient.verify", [2]int{}).Kind != None {
		t.Fatal("wrong phase was injected")
	}
	if in.Decide("axpy", "cg.step", [2]int{}).Kind != Panic {
		t.Fatal("matching phase was not injected at rate 1")
	}
}

func TestFaultPieceFilter(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, BitFlipRate: 1, Pieces: []int{2}})
	if in.Decide("axpy", "", [2]int{0, 1}).Kind != None {
		t.Fatal("wrong piece was injected")
	}
	if in.Decide("axpy", "", [2]int{}).Kind != None {
		t.Fatal("pieceless task was injected under a piece filter")
	}
	if in.Decide("axpy", "", [2]int{2, 3}).Kind != BitFlip {
		t.Fatal("matching piece was not injected at rate 1")
	}
	// A task holding a run of pieces (a launch group) is eligible when
	// the run holds a listed piece.
	if in.Decide("axpy", "", [2]int{1, 3}).Kind != BitFlip {
		t.Fatal("a task over pieces [1,3) was not injected under piece 2")
	}
	if in.Decide("axpy", "", [2]int{0, 2}).Kind != None {
		t.Fatal("a task over pieces [0,2) was injected under piece 2")
	}
	// Filtered pieces consume no randomness: the eligible subsequence is
	// unperturbed by interleaved off-piece decisions.
	plan := Plan{Seed: 11, BitFlipRate: 0.5, Pieces: []int{1}}
	a, b := NewInjector(plan), NewInjector(plan)
	for i := 0; i < 50; i++ {
		b.Decide("axpy", "", [2]int{0, 1})
		if a.Decide("axpy", "", [2]int{1, 2}).Kind != b.Decide("axpy", "", [2]int{1, 2}).Kind {
			t.Fatalf("off-piece decisions perturbed the schedule at %d", i)
		}
	}
}

func TestFaultMaxFaultsCap(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, PanicRate: 1, MaxFaults: 3})
	for _, k := range schedule(in, 10, "t", "") {
		_ = k
	}
	if in.Injected() != 3 {
		t.Fatalf("Injected = %d, want cap 3", in.Injected())
	}
}

func TestFaultStickyAndStallPropagate(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, StallRate: 1, StallFor: 7 * time.Millisecond, Sticky: true})
	inj := in.Decide("t", "", [2]int{})
	if inj.Kind != Stall || !inj.Sticky || inj.Stall != 7*time.Millisecond {
		t.Fatalf("injection = %+v", inj)
	}
}

func TestFaultDefaultStall(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, StallRate: 1})
	if got := in.Decide("t", "", [2]int{}).Stall; got != 50*time.Millisecond {
		t.Fatalf("default stall = %v, want 50ms", got)
	}
}

func TestFaultBitFlipInjectionParams(t *testing.T) {
	in := NewInjector(Plan{Seed: 5, BitFlipRate: 1, Bit: 52})
	inj := in.Decide("t", "", [2]int{})
	if inj.Kind != BitFlip || inj.Bit != 52 {
		t.Fatalf("injection = %+v, want pinned bit 52", inj)
	}
	if inj.Pos < 0 || inj.Pos >= 1 {
		t.Fatalf("Pos = %v, want in [0,1)", inj.Pos)
	}
	// Same seed, same corruption site.
	again := NewInjector(Plan{Seed: 5, BitFlipRate: 1, Bit: 52}).Decide("t", "", [2]int{})
	if again.Pos != inj.Pos || again.Bit != inj.Bit {
		t.Fatalf("corruption params not deterministic: %+v vs %+v", inj, again)
	}
	// Random bit mode stays in range and is deterministic too.
	rb := NewInjector(Plan{Seed: 9, BitFlipRate: 1, RandomBit: true})
	b1 := rb.Decide("t", "", [2]int{}).Bit
	b2 := NewInjector(Plan{Seed: 9, BitFlipRate: 1, RandomBit: true}).Decide("t", "", [2]int{}).Bit
	if b1 != b2 || b1 < 0 || b1 > 63 {
		t.Fatalf("random bit: %d vs %d", b1, b2)
	}
}

func TestFaultCorruptValue(t *testing.T) {
	if got := FlipBit(1.0, 63); got != -1.0 {
		t.Fatalf("sign flip of 1.0 = %v, want -1", got)
	}
	// 1.5 has biased exponent 1023 (odd), so flipping exponent bit 52
	// clears it to 1022: the value halves.
	if got := FlipBit(1.5, 52); got != 0.75 {
		t.Fatalf("exponent-bit flip of 1.5 = %v, want 0.75", got)
	}
	if got := FlipBit(FlipBit(2.25, 17), 17); got != 2.25 {
		t.Fatalf("double flip not an involution: %v", got)
	}
	inj := Injection{Kind: Scale, Factor: 2}
	if got := inj.CorruptValue(3.0); got != 6.0 {
		t.Fatalf("scale corruption = %v, want 6", got)
	}
	if got := (Injection{Kind: Stall}).CorruptValue(3.0); got != 3.0 {
		t.Fatalf("non-corrupting kind changed the value: %v", got)
	}
	if v := FlipBit(1.0, 64); v != 1.0 {
		t.Fatalf("out-of-range bit changed the value: %v", v)
	}
}

// A nan fault is data corruption like a bit flip: the value a task's
// corruption hook writes into its output is NaN. Its decision draws no
// target; it lands on the first writable point.
func TestFaultNaNCorruptsData(t *testing.T) {
	for _, v := range []float64{0, 3, math.Inf(-1)} {
		if got := (Injection{Kind: NaN}).CorruptValue(v); !math.IsNaN(got) {
			t.Fatalf("nan corruption of %v = %v, want NaN", v, got)
		}
	}
	in := NewInjector(Plan{Seed: 4, NaNRate: 1})
	if inj := in.Decide("dot.partial", "", [2]int{0, 1}); inj.Kind != NaN || inj.Pos != 0 {
		t.Fatalf("nan decision = %+v, want kind nan at position 0", inj)
	}
}

// kinds lists every injectable fault kind; the rate key ParsePlan accepts
// for each is exactly Kind.String().
var kinds = []Kind{Panic, NaN, Stall, BitFlip, Scale}

// Every kind's rate key round-trips: ParsePlan("<kind>=1") must yield an
// injector whose decisions stringify back to the same kind name.
func TestFaultKindRoundTrip(t *testing.T) {
	for _, k := range kinds {
		spec := fmt.Sprintf("%s=1", k)
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		got := NewInjector(p).Decide("t", "", [2]int{}).Kind
		if got.String() != k.String() {
			t.Errorf("ParsePlan(%q) → Decide → %q, want %q", spec, got, k)
		}
	}
	if None.String() != "none" {
		t.Errorf("None.String() = %q", None)
	}
}

func TestFaultNewInjectorRejectsBadRates(t *testing.T) {
	for _, p := range []Plan{
		{PanicRate: 0.6, NaNRate: 0.6},
		{PanicRate: -0.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewInjector(%+v) did not panic", p)
				}
			}()
			NewInjector(p)
		}()
	}
}

func TestFaultParsePlan(t *testing.T) {
	p, err := ParsePlan("panic=0.01,nan=0.001,stall=0.002,seed=9,stallms=25,sticky=true,max=4,name=axpy|dot.partial,phase=cg.step")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Seed: 9, PanicRate: 0.01, NaNRate: 0.001, StallRate: 0.002,
		StallFor: 25 * time.Millisecond, Sticky: true, MaxFaults: 4,
	}
	if p.Seed != want.Seed || p.PanicRate != want.PanicRate || p.NaNRate != want.NaNRate ||
		p.StallRate != want.StallRate || p.StallFor != want.StallFor ||
		p.Sticky != want.Sticky || p.MaxFaults != want.MaxFaults {
		t.Fatalf("ParsePlan = %+v", p)
	}
	if len(p.Names) != 2 || p.Names[0] != "axpy" || p.Names[1] != "dot.partial" {
		t.Fatalf("Names = %v", p.Names)
	}
	if len(p.Phases) != 1 || p.Phases[0] != "cg.step" {
		t.Fatalf("Phases = %v", p.Phases)
	}
	if !p.Active() {
		t.Fatal("parsed plan should be active")
	}
}

func TestFaultParsePlanEmptyAndErrors(t *testing.T) {
	if p, err := ParsePlan("   "); err != nil || p.Active() {
		t.Fatalf("empty spec: plan %+v, err %v", p, err)
	}
	for _, bad := range []string{
		"panic",                 // not key=value
		"panic=lots",            // bad float
		"bogus=1",               // unknown key
		"panic=0.9,nan=0.9",     // rates sum past 1
		"panic=-0.1",            // negative rate
		"bitflip=0.9,scale=0.2", // new rates join the sum check
		"bit=64",                // bit out of range
		"piece=0|x",             // bad piece list
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) succeeded, want error", bad)
		}
	}
	// Unknown keys name every valid key, so a typo'd kind is self-repairing
	// from the error text alone (mirrors sparse.ErrUnknownFormat).
	_, err := ParsePlan("bogus=1")
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, k := range kinds {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("unknown-key error %q does not list kind %q", err, k)
		}
	}
}

func TestFaultParsePlanCorruptionKeys(t *testing.T) {
	p, err := ParsePlan("bitflip=0.02,scale=0.01,bit=52,factor=1.5,piece=0|3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if p.BitFlipRate != 0.02 || p.ScaleRate != 0.01 || p.Bit != 52 || p.ScaleBy != 1.5 {
		t.Fatalf("parsed plan = %+v", p)
	}
	if len(p.Pieces) != 2 || p.Pieces[0] != 0 || p.Pieces[1] != 3 {
		t.Fatalf("Pieces = %v", p.Pieces)
	}
	if !p.Active() {
		t.Fatal("corruption-only plan should be active")
	}
	if rp, err := ParsePlan("bitflip=1,bit=rand"); err != nil || !rp.RandomBit {
		t.Fatalf("bit=rand: plan %+v, err %v", rp, err)
	}
}
