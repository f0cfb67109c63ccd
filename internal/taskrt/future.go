package taskrt

import "sync"

// A Future is the eventual scalar result of a task, in the style of
// Legion futures. Solvers receive dot products as futures and block only
// when the value is actually needed, which lets independent vector work
// launched earlier keep running.
//
// A future can complete in an error state: its producing task failed
// permanently, or was cancelled because an upstream task failed (see
// ErrPoisoned). Value then returns NaN so legacy numeric consumers see an
// unmistakably invalid number; Err and Result expose the cause.
//
// A task reads a future by awaiting it (TaskSpec.Awaits): the launch
// orders the reader after the future's task, so the body finds the value
// ready. Launches whose result is never read should set TaskSpec.Detached,
// which skips the future entirely.
type Future struct {
	mu   sync.Mutex
	cond sync.Cond // cond.L is &mu, set once by newFuture
	done bool
	val  float64
	err  error

	// sess and task name the producing task, set at launch; sess is nil
	// for a future no task produces (Resolved).
	sess *Session
	task int64
}

// An Await is one future a task reads and the bytes its producer delivers
// along the dependence edge the read adds.
type Await struct {
	Future *Future
	Bytes  int64
}

// newFuture allocates a future as one object including its condition
// variable (cond is embedded by value and wired to mu here).
func newFuture() *Future {
	f := &Future{}
	f.cond.L = &f.mu
	return f
}

// resolve delivers the value (and error state) and wakes all waiters.
func (f *Future) resolve(v float64, err error) {
	f.mu.Lock()
	f.val = v
	f.err = err
	f.done = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Value blocks until the producing task completes, then returns the
// result (NaN when the task failed or was poisoned).
func (f *Future) Value() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.done {
		f.cond.Wait()
	}
	return f.val
}

// Err blocks until the producing task completes, then returns its error
// state: nil on success, the task's failure on permanent failure, or an
// ErrPoisoned-wrapping error when the task was cancelled because an
// upstream task failed.
func (f *Future) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.done {
		f.cond.Wait()
	}
	return f.err
}

// Result blocks until the producing task completes, then returns both the
// value and the error state.
func (f *Future) Result() (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.done {
		f.cond.Wait()
	}
	return f.val, f.err
}

// Ready reports whether the value is already available.
func (f *Future) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// Resolved returns an already-completed future holding v. It is useful
// for scalar arithmetic that needs no task.
func Resolved(v float64) *Future {
	f := newFuture()
	f.done = true
	f.val = v
	return f
}
