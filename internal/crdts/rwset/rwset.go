// Package rwset implements the remove-wins set, the dual of the add-wins set
// (Sec 2.4, Sec 9). Every remove(e) creates a tagged removal instance that
// suppresses e; an add(e) collects the removal instances of e visible at its
// origin and its effector cancels exactly those, while recording a tagged add
// instance. An element is present iff it has at least one add instance and no
// uncancelled removal instance — so a removal concurrent with an add (which
// therefore could not cancel it) makes the element absent: the remove wins.
//
// All effector updates are monotone set unions, so effectors commute even
// under out-of-order delivery; like the add-wins set the algorithm assumes
// causal delivery (Sec 2.4) and is verified against XACC.
package rwset

import (
	"fmt"
	"strings"

	"repro/internal/crdt"
	"repro/internal/crdts/xset"
	"repro/internal/model"
	"repro/internal/spec"
)

// Tag uniquely identifies one add or removal instance.
type Tag = xset.Tag

// inst is a tagged instance of an element.
type inst = xset.Inst

// State is the replica state: the add instances, and the removal instances
// with the cancelled ones tombstoned.
type State struct {
	Adds, Rmvs xset.Set
}

// Key implements crdt.State.
func (s State) Key() string {
	b := s.Adds.AppendKeys([]byte("rw{A:"))
	b = s.Rmvs.AppendKeys(append(b, ",R:"...))
	return string(append(b, '}'))
}

// AddEff is the effector of add(e): record the tagged add instance and
// cancel exactly the removal instances visible at the origin.
type AddEff struct {
	E       model.Value
	T       Tag
	Cancels []inst
}

// Apply implements crdt.Effector.
func (d AddEff) Apply(s crdt.State) crdt.State {
	st := s.(State)
	st.Adds = st.Adds.Add(inst{E: d.E, T: d.T})
	for _, r := range d.Cancels {
		st.Rmvs = st.Rmvs.Kill(r.Key())
	}
	return st
}

// String implements crdt.Effector.
func (d AddEff) String() string {
	parts := make([]string, len(d.Cancels))
	for i, r := range d.Cancels {
		parts[i] = r.Key()
	}
	return fmt.Sprintf("AddR(%s,%s,cancel{%s})", d.E, d.T, strings.Join(parts, " "))
}

// RmvEff is the effector of remove(e): record the tagged removal instance.
type RmvEff struct {
	E model.Value
	T Tag
}

// Apply implements crdt.Effector.
func (d RmvEff) Apply(s crdt.State) crdt.State {
	st := s.(State)
	st.Rmvs = st.Rmvs.Add(inst{E: d.E, T: d.T})
	return st
}

// String implements crdt.Effector.
func (d RmvEff) String() string { return fmt.Sprintf("RmvR(%s,%s)", d.E, d.T) }

// Object is the remove-wins set implementation Π.
type Object struct{}

// New returns the remove-wins set object.
func New() Object { return Object{} }

// Name implements crdt.Object.
func (Object) Name() string { return "rw-set" }

// Init implements crdt.Object.
func (Object) Init() crdt.State { return State{} }

// Ops implements crdt.Object.
func (Object) Ops() []model.OpName {
	return []model.OpName{spec.OpAdd, spec.OpRemove, spec.OpLookup, spec.OpRead}
}

// Prepare implements crdt.Object.
func (Object) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	st := s.(State)
	switch op.Name {
	case spec.OpAdd:
		e := op.Arg
		return model.Nil(), AddEff{E: e, T: Tag{Node: origin, Seq: int64(mid)}, Cancels: st.Rmvs.Live(e)}, nil
	case spec.OpRemove:
		return model.Nil(), RmvEff{E: op.Arg, T: Tag{Node: origin, Seq: int64(mid)}}, nil
	case spec.OpLookup:
		return model.Bool(st.Adds.Has(op.Arg) && !st.Rmvs.Has(op.Arg)), crdt.IdEff{}, nil
	case spec.OpRead:
		return Abs(st), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

// Abs is the abstraction function φ: the sorted distinct present elements.
func Abs(s crdt.State) model.Value {
	st := s.(State)
	var out []model.Value
	for _, e := range st.Adds.Elems() {
		if !st.Rmvs.Has(e) {
			out = append(out, e)
		}
	}
	return model.List(out...)
}

// Spec returns the extended specification (Γ, ⊲⊳, ◀, ▷) with the remove-wins
// strategy: add(e) ◀ remove(e), remove(e) ▷ add(e).
func Spec() spec.XSpec { return spec.RWSetSpec{} }
