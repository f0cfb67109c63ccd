package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
)

// repArgs identify one repetition of one workload.
type repArgs struct {
	Workload string
	Scale    string
	Seed     int64
	Rep      int
	Traced   bool
	// Workdir is a directory inside the checkout the repetition may
	// write under (the durable workload's journal).
	Workdir string
}

// repResult is what one repetition reports back: operations attempted
// and failed, the end-to-end metrics of its verified operations, and on
// a traced repetition the per-layer metrics.
type repResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Reasons   map[string]int     `json:"reasons,omitempty"`
	E2E       map[string]float64 `json:"e2e,omitempty"`
	Layers    layers             `json:"layers,omitempty"`
	// PeakRSSKB is the repetition's process's maximum resident set.
	PeakRSSKB int64 `json:"peak_rss_kb"`
}

func (t *tally) result() repResult {
	return repResult{Attempted: t.attempted, Failed: t.failed, Reasons: t.reasons}
}

// runRep runs one repetition in this process.
func runRep(a repArgs) (repResult, error) {
	w, err := findWorkload(a.Workload, a.Scale)
	if err != nil {
		return repResult{}, err
	}
	var res repResult
	switch w.kind {
	case oneshot:
		res, err = oneshotRep(w, a)
	default:
		res, err = servedRep(w, a)
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		res.PeakRSSKB = ru.Maxrss
	}
	return res, err
}

// execRep runs one repetition in a child process of this binary: a
// fresh heap, so peak_rss_mb is that repetition's alone and neither
// repetitions nor workloads warm each other.
func execRep(a repArgs) (repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	traced := "0"
	if a.Traced {
		traced = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", a.Workload, "-scale", a.Scale,
		"-seed", strconv.FormatInt(a.Seed, 10), "-rep", strconv.Itoa(a.Rep),
		"-trace", traced, "-workdir", a.Workdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repResult{}, fmt.Errorf("repetition %d of %s: %w", a.Rep, a.Workload, err)
	}
	var res repResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return repResult{}, fmt.Errorf("repetition %d of %s: undecodable report: %w", a.Rep, a.Workload, err)
	}
	return res, nil
}
