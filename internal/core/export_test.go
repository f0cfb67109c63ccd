package core

// Test-only access for package core_test, which — unlike this package's
// own tests — may import the solvers and drive them over a planner.

// SetLaunchGrain overrides the planner's launch grain; 0 launches one
// task per piece.
func (p *Planner) SetLaunchGrain(points int64) { p.grain = points }

// LaunchGrain is the grain every planner starts with.
const LaunchGrain = launchGrain

// NumVecs returns how many vectors (SOL, RHS and workspaces) exist.
func (p *Planner) NumVecs() int { return len(p.vecs) }

// NumVecComponents returns the component count of a vector.
func (p *Planner) NumVecComponents(id VecID) int { return len(p.vecs[id].regs) }
