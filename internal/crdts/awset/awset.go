// Package awset implements the add-wins (observed-remove) set of Sec 2.4 and
// Sec 9. Every add(e) creates an instance of e with a fresh unique tag; a
// remove(e) collects the instance tags of e visible in the local replica and
// its effector deletes exactly those instances on every node. An instance
// created concurrently with the remove is not in the collected set and
// survives — the add wins.
//
// Deleted instances are tracked in a tombstone set rather than being erased,
// so all effectors commute even under out-of-order delivery; the algorithm
// nevertheless assumes causal delivery (Sec 2.4), and it is verified against
// XACC, not plain ACC.
package awset

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/crdt"
	"repro/internal/crdts/xset"
	"repro/internal/model"
	"repro/internal/spec"
)

// Tag uniquely identifies one add instance: the origin node plus the unique
// request ID of the add.
type Tag = xset.Tag

// inst is one tagged instance of an element.
type inst = xset.Inst

// State is the replica state: every add instance ever seen, and the
// tombstoned (deleted) instances, in one grow-only instance set. An instance
// is live iff added and not tombstoned.
type State struct {
	Insts xset.Set
}

// Key implements crdt.State.
func (s State) Key() string {
	return string(append(s.Insts.AppendKeys([]byte("aw{")), '}'))
}

// liveInsts returns the live instances of element e, sorted by tag: the
// order a remove's effector carries them in on the wire.
func (s State) liveInsts(e model.Value) []inst {
	out := s.Insts.Live(e)
	sort.Slice(out, func(i, j int) bool { return out[i].T.Less(out[j].T) })
	return out
}

// AddEff is the effector Add(e, tag) of Fig 5: record the tagged instance.
type AddEff struct {
	E model.Value
	T Tag
}

// Apply implements crdt.Effector.
func (d AddEff) Apply(s crdt.State) crdt.State {
	return State{Insts: s.(State).Insts.Add(inst{E: d.E, T: d.T})}
}

// String implements crdt.Effector.
func (d AddEff) String() string { return fmt.Sprintf("Add(%s,%s)", d.E, d.T) }

// RmvEff is the effector Rmv({(e, t), ...}) of Fig 5: tombstone exactly the
// element instances that were visible at the remove's origin.
type RmvEff struct {
	E     model.Value
	Insts []inst
}

// Apply implements crdt.Effector.
func (d RmvEff) Apply(s crdt.State) crdt.State {
	st := s.(State).Insts
	for _, in := range d.Insts {
		st = st.Kill(in.Key())
	}
	return State{Insts: st}
}

// String implements crdt.Effector.
func (d RmvEff) String() string {
	parts := make([]string, len(d.Insts))
	for i, in := range d.Insts {
		parts[i] = in.Key()
	}
	return fmt.Sprintf("Rmv(%s,{%s})", d.E, strings.Join(parts, " "))
}

// Object is the add-wins set implementation Π.
type Object struct{}

// New returns the add-wins set object.
func New() Object { return Object{} }

// Name implements crdt.Object.
func (Object) Name() string { return "aw-set" }

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
		return model.Nil(), AddEff{E: op.Arg, T: Tag{Node: origin, Seq: int64(mid)}}, nil
	case spec.OpRemove:
		return model.Nil(), RmvEff{E: op.Arg, Insts: st.liveInsts(op.Arg)}, nil
	case spec.OpLookup:
		return model.Bool(st.Insts.Has(op.Arg)), crdt.IdEff{}, nil
	case spec.OpRead:
		return Abs(st), crdt.IdEff{}, nil
	default:
		return model.Nil(), nil, crdt.ErrUnknownOp
	}
}

// Abs is the abstraction function φ: the sorted distinct elements with at
// least one live instance — instances and tags are hidden.
func Abs(s crdt.State) model.Value {
	return model.List(s.(State).Insts.Elems()...)
}

// Spec returns the extended specification (Γ, ⊲⊳, ◀, ▷) with the add-wins
// strategy: remove(e) ◀ add(e), add(e) ▷ remove(e).
func Spec() spec.XSpec { return spec.AWSetSpec{} }
