package core

import (
	"reflect"

	"kdrsolvers/internal/dpart"
)

// Test-only access for package core_test, which — unlike this package's
// own tests — may import the solvers and drive them over a planner.

// SetLaunchGrain overrides the planner's launch grain before its first
// launch (the groups are built once); 0 launches one task per piece.
func (p *Planner) SetLaunchGrain(points int64) {
	if p.groups[0] != nil || p.groups[1] != nil {
		panic("core: SetLaunchGrain after the planner launched")
	}
	p.grain = points
}

// LaunchGrain is the grain every planner starts with.
const LaunchGrain = launchGrain

// NumVecs returns how many vectors (SOL, RHS and workspaces) exist.
func (p *Planner) NumVecs() int { return len(p.vecs) }

// NumVecComponents returns the component count of a vector.
func (p *Planner) NumVecComponents(id VecID) int { return len(p.vecs[id].regs) }

// AdjointDerived reports whether the operators' adjoint co-partitions
// exist.
func (p *Planner) AdjointDerived() bool { return p.adjoint }

// InverseBuilt reports whether r has built the inverted index its
// Preimage queries read. The index is dpart's unexported state, so it is
// read by reflection.
func InverseBuilt(r *dpart.FnRelation) bool {
	return !reflect.ValueOf(r).Elem().FieldByName("invStart").IsNil()
}
