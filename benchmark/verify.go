package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"kdrsolvers/internal/serve"
	"kdrsolvers/internal/sparse"
)

// residualSlack is the rounding allowance on the tolerance: the host
// recomputation and the solver's stopping test round differently
// (mmsolve -strict-residual uses the same 5%).
const residualSlack = 1.05

// checkResult returns "" when res is a verified solve and otherwise the
// reason it is a failed operation. Nothing is trusted: a result counts
// only if it claims convergence, carries no error or breakdown, and its
// host-recomputed true residual is finite and within tolerance.
func checkResult(res *serve.JobResult, tol float64) string {
	switch {
	case res == nil:
		return "no result"
	case res.Err != "":
		return "solve error"
	case res.Breakdown != "":
		return "breakdown"
	case !res.Converged:
		return "not converged"
	case math.IsNaN(res.TrueResidual) || math.IsInf(res.TrueResidual, 0):
		return "non-finite residual"
	case res.TrueResidual > residualSlack*tol:
		return "residual above tolerance"
	}
	return ""
}

// checkResponse decodes one HTTP reply into a job view. Any status but
// want, an empty body (what the server sends when a NaN result fails to
// encode) or an undecodable one is a failed operation.
func checkResponse(status, want int, body []byte) (serve.JobView, string) {
	var v serve.JobView
	switch {
	case status != want:
		return v, fmt.Sprintf("http %d", status)
	case len(body) == 0:
		return v, "empty body"
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, "undecodable body"
	}
	return v, ""
}

// checkDone verifies a finished job view.
func checkDone(v serve.JobView, tol float64) string {
	if v.State != serve.StateDone {
		return "job not done"
	}
	return checkResult(v.Result, tol)
}

// recomputeResidual is the harness's own ‖b − A·x‖ on the loaded CSR,
// sharing nothing with the solve but the matrix and the inputs.
func recomputeResidual(a *sparse.CSR, x, b []float64) float64 {
	if len(x) != len(b) {
		return math.NaN()
	}
	ax := make([]float64, len(b))
	sparse.SpMV(a, ax, x)
	var rr float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
	}
	return math.Sqrt(rr)
}

// tally counts operations and keeps the samples of the verified ones.
// A failed operation is counted and named, and contributes no sample:
// a fast wrong answer must not improve a latency.
type tally struct {
	attempted int
	failed    int
	reasons   map[string]int

	latMS      []float64 // client-observed time per verified job
	elapsedS   []float64 // JobResult.Elapsed per verified job
	iterUS     []float64 // Elapsed / Iterations per verified job
	queueMS    []float64 // JobView.QueueWait per verified job
	iterations []float64 // iterations per verified job
	trueRes    []float64 // host-recomputed true residual per verified job
	iters      float64   // iterations over distinct solves (a batch counts once)
	solveSecs  float64   // Elapsed over distinct solves
	ckpts      float64   // resilient-driver checkpoints
}

// record files one operation: reason "" marks it verified.
func (t *tally) record(latency, queueWait time.Duration, res *serve.JobResult, reason string) {
	t.attempted++
	if reason != "" {
		t.failed++
		if t.reasons == nil {
			t.reasons = map[string]int{}
		}
		t.reasons[reason]++
		return
	}
	t.latMS = append(t.latMS, latency.Seconds()*1e3)
	t.queueMS = append(t.queueMS, queueWait.Seconds()*1e3)
	t.elapsedS = append(t.elapsedS, res.Elapsed.Seconds())
	t.iterations = append(t.iterations, float64(res.Iterations))
	t.trueRes = append(t.trueRes, res.TrueResidual)
	if res.Iterations > 0 {
		t.iterUS = append(t.iterUS, res.Elapsed.Seconds()*1e6/float64(res.Iterations))
	}
	share := 1 / float64(max(res.Coalesced, 1))
	t.iters += share * float64(res.Iterations)
	t.solveSecs += share * res.Elapsed.Seconds()
	t.ckpts += float64(res.Checkpoints)
}

func (t *tally) ok() int { return t.attempted - t.failed }
