package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterAndTimer(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	c.Add(10)
	if got := c.Load(); got != 810 {
		t.Fatalf("Counter = %d, want 810", got)
	}

	var tm Timer
	tm.Observe(3 * time.Millisecond)
	tm.ObserveN(2*time.Millisecond, 3)
	if got := tm.Snapshot(); got.Count != 4 || got.Total != 5*time.Millisecond {
		t.Fatalf("Timer snapshot = %+v, want 4 sections totalling 5ms", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		g := g
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := int64(g*25 + i)
				now := r.Now()
				r.Record(Span{ID: id, Name: "t", Launch: now, Start: now, End: now})
			}
		}()
	}
	wg.Wait()
	spans := r.Spans()
	if len(spans) != 100 {
		t.Fatalf("spans = %d", len(spans))
	}
	for i, s := range spans {
		if s.ID != int64(i) {
			t.Fatalf("spans not sorted by ID: %d at %d", s.ID, i)
		}
	}
}

// diamond builds the spans and deps of a 4-task diamond:
//
//	0 (1s) → {1 (2s), 2 (5s)} → 3 (1s)
//
// Critical path 0→2→3, length 7.
func diamond() ([]Span, [][]int64) {
	spans := []Span{
		{ID: 0, Name: "init", Phase: "setup", Worker: 0, Launch: 0, Start: 0, End: 1},
		{ID: 1, Name: "fast", Phase: "iter", Worker: 1, Launch: 0, Start: 1, End: 3},
		{ID: 2, Name: "slow", Phase: "iter", Worker: 0, Launch: 0, Start: 1, End: 6},
		{ID: 3, Name: "join", Phase: "iter", Worker: 0, Launch: 0, Start: 6, End: 7},
	}
	deps := [][]int64{nil, {0}, {0}, {1, 2}}
	return spans, deps
}

func TestAnalyzeCriticalPath(t *testing.T) {
	spans, deps := diamond()
	rep := Analyze(spans, deps)
	if rep.Tasks != 4 {
		t.Fatalf("Tasks = %d", rep.Tasks)
	}
	if rep.WallTime != 7 {
		t.Fatalf("WallTime = %g, want 7", rep.WallTime)
	}
	if rep.TotalBusy != 9 {
		t.Fatalf("TotalBusy = %g, want 9", rep.TotalBusy)
	}
	if rep.CriticalPathTime != 7 {
		t.Fatalf("CriticalPathTime = %g, want 7", rep.CriticalPathTime)
	}
	wantPath := []int64{0, 2, 3}
	if len(rep.CriticalPath) != 3 {
		t.Fatalf("CriticalPath = %v, want %v", rep.CriticalPath, wantPath)
	}
	for i, id := range wantPath {
		if rep.CriticalPath[i] != id {
			t.Fatalf("CriticalPath = %v, want %v", rep.CriticalPath, wantPath)
		}
	}
	// Task 1 (2s) can slip 3s before it gates the join.
	wantSlack := []float64{0, 3, 0, 0}
	for i, s := range wantSlack {
		if math.Abs(rep.Slack[i]-s) > 1e-12 {
			t.Fatalf("Slack = %v, want %v", rep.Slack, wantSlack)
		}
	}
	if len(rep.ByName) != 4 || rep.ByName[0].Name != "slow" || rep.ByName[0].CritCount != 1 {
		t.Fatalf("ByName = %+v", rep.ByName)
	}
	if len(rep.ByPhase) != 2 || rep.ByPhase[0].Name != "iter" || rep.ByPhase[0].Count != 3 {
		t.Fatalf("ByPhase = %+v", rep.ByPhase)
	}
	if len(rep.Workers) != 2 || rep.Workers[0].Busy != 7 || rep.Workers[1].Busy != 2 {
		t.Fatalf("Workers = %+v", rep.Workers)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestAnalyzeEmptyAndPartial(t *testing.T) {
	rep := Analyze(nil, nil)
	if rep.Tasks != 0 || rep.WallTime != 0 || rep.CriticalPathTime != 0 {
		t.Fatalf("empty analysis: %+v", rep)
	}
	// A graph node with no span (never executed) contributes zero.
	spans := []Span{{ID: 0, Name: "only", Start: 0, End: 2}}
	rep = Analyze(spans, [][]int64{nil, {0}})
	if rep.CriticalPathTime != 2 {
		t.Fatalf("partial analysis CPM = %g", rep.CriticalPathTime)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	spans, _ := diamond()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", decoded.DisplayTimeUnit)
	}
	var events, meta int
	for _, e := range decoded.TraceEvents {
		switch e.Ph {
		case "X":
			events++
			if e.Dur <= 0 {
				t.Fatalf("event %q has non-positive duration", e.Name)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if events != len(spans) {
		t.Fatalf("%d duration events for %d spans", events, len(spans))
	}
	// process_name + one thread_name per worker (2 workers).
	if meta != 3 {
		t.Fatalf("%d metadata events, want 3", meta)
	}
	// The slow task: 5 s = 5e6 µs.
	found := false
	for _, e := range decoded.TraceEvents {
		if e.Name == "slow" && e.Ph == "X" {
			found = true
			if e.Ts != 1e6 || e.Dur != 5e6 {
				t.Fatalf("slow event ts=%g dur=%g", e.Ts, e.Dur)
			}
		}
	}
	if !found {
		t.Fatal("slow event missing")
	}
}
