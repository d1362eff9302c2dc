package xset_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/spec"
)

// applyCase is one effector of an X-wins set together with the state it
// was prepared on.
type applyCase struct {
	name string
	s    crdt.State
	eff  crdt.Effector
}

// applyCases builds a state from n adds over n/8 elements, with a remove of
// the same element after every fourth add, then prepares an add and a
// remove of a further element x, each on a state holding one instance of x
// (and, for the add, one later remove of it): an aw-set remove then
// tombstones one instance, and an rw-set add cancels one removal.
func applyCases(t testing.TB, o crdt.Object, n int) []applyCase {
	mid := model.MsgID(0)
	apply := func(s crdt.State, name model.OpName, e int64) (crdt.State, crdt.Effector) {
		mid++
		_, eff, err := o.Prepare(model.Op{Name: name, Arg: model.Int(e)}, s, model.NodeID(int(mid)%3), mid)
		if err != nil {
			t.Fatal(err)
		}
		return eff.Apply(s), eff
	}
	s := o.Init()
	for i := 0; i < n; i++ {
		s, _ = apply(s, spec.OpAdd, int64(i%(n/8)))
		if i%4 == 3 {
			s, _ = apply(s, spec.OpRemove, int64(i%(n/8)))
		}
	}
	x := int64(n)
	s1, _ := apply(s, spec.OpAdd, x)
	s2, _ := apply(s1, spec.OpRemove, x)
	_, rmv := apply(s1, spec.OpRemove, x)
	_, add := apply(s2, spec.OpAdd, x)
	return []applyCase{{"add", s2, add}, {"remove", s1, rmv}}
}

var sink crdt.State

// TestApplyAllocs guards the persistent state: one effector applied to a
// 4,096-instance state copies a path of the tree, not the state.
func TestApplyAllocs(t *testing.T) {
	const runs = 200
	for _, alg := range registry.XWins() {
		for _, c := range applyCases(t, alg.New(), 4096) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				sink = c.eff.Apply(c.s)
			}
			runtime.ReadMemStats(&m1)
			allocs := float64(m1.Mallocs-m0.Mallocs) / runs
			bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
			if allocs > 64 || bytes > 8<<10 {
				t.Errorf("%s %s (%s): %.1f allocs, %.0f B per Apply, want ≤ 64 and ≤ 8 KiB", alg.Name, c.name, c.eff, allocs, bytes)
			}
		}
	}
}

// BenchmarkApply times one effector application per X-wins set, effector
// and state size.
func BenchmarkApply(b *testing.B) {
	for _, alg := range registry.XWins() {
		for _, n := range []int{256, 4096} {
			for _, c := range applyCases(b, alg.New(), n) {
				b.Run(fmt.Sprintf("%s/%s/n=%d", alg.Name, c.name, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sink = c.eff.Apply(c.s)
					}
				})
			}
		}
	}
}
