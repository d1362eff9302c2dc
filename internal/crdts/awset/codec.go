package awset

import (
	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/crdts/xset"
)

// Effector tags (0 is crdt.IdEff).
const (
	tagAdd byte = 1
	tagRmv byte = 2
)

// AppendBinary implements crdt.State: the add instances, then the tombstoned
// instance keys.
func (s State) AppendBinary(b []byte) []byte {
	return s.Insts.AppendDead(s.Insts.AppendInsts(b))
}

// AppendBinary implements crdt.Effector: the tagged instance.
func (d AddEff) AppendBinary(b []byte) []byte {
	return xset.AppendInst(append(b, tagAdd), inst{E: d.E, T: d.T})
}

// AppendBinary implements crdt.Effector: the element, then the tombstoned
// instances in the (deterministic) order collected at the origin.
func (d RmvEff) AppendBinary(b []byte) []byte {
	return xset.AppendInstList(codec.AppendValue(append(b, tagRmv), d.E), d.Insts)
}

// DecodeState decodes an add-wins-set state encoded by State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	s, rest, err := xset.DecodeInsts(b)
	if err != nil {
		return nil, err
	}
	s, rest, err = s.DecodeDead(rest)
	if err != nil {
		return nil, err
	}
	if err := codec.Done(rest); err != nil {
		return nil, err
	}
	return State{Insts: s}, nil
}

// DecodeEffector decodes an add-wins-set effector encoded by AppendBinary.
func DecodeEffector(b []byte) (crdt.Effector, error) {
	tag, rest, err := codec.DecodeTag(b)
	if err != nil {
		return nil, err
	}
	switch tag {
	case codec.TagIdentity:
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return crdt.IdEff{}, nil
	case tagAdd:
		in, rest, err := xset.DecodeInst(rest)
		if err != nil {
			return nil, err
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return AddEff{E: in.E, T: in.T}, nil
	case tagRmv:
		var d RmvEff
		d.E, rest, err = codec.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		d.Insts, rest, err = xset.DecodeInstList(rest)
		if err != nil {
			return nil, err
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return d, nil
	default:
		return nil, codec.BadTag(tag)
	}
}
