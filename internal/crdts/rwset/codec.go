package rwset

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

// AppendBinary implements crdt.State: add instances, removal instances, then
// the cancelled removal keys.
func (s State) AppendBinary(b []byte) []byte {
	return s.Rmvs.AppendDead(s.Rmvs.AppendInsts(s.Adds.AppendInsts(b)))
}

// AppendBinary implements crdt.Effector: the tagged add instance, then the
// cancelled removal instances in the (deterministic) order collected at the
// origin.
func (d AddEff) AppendBinary(b []byte) []byte {
	return xset.AppendInstList(xset.AppendInst(append(b, tagAdd), inst{E: d.E, T: d.T}), d.Cancels)
}

// AppendBinary implements crdt.Effector: the tagged removal instance.
func (d RmvEff) AppendBinary(b []byte) []byte {
	return xset.AppendInst(append(b, tagRmv), inst{E: d.E, T: d.T})
}

// DecodeState decodes a remove-wins-set state encoded by State.AppendBinary.
func DecodeState(b []byte) (crdt.State, error) {
	adds, rest, err := xset.DecodeInsts(b)
	if err != nil {
		return nil, err
	}
	rmvs, rest, err := xset.DecodeInsts(rest)
	if err != nil {
		return nil, err
	}
	rmvs, rest, err = rmvs.DecodeDead(rest)
	if err != nil {
		return nil, err
	}
	if err := codec.Done(rest); err != nil {
		return nil, err
	}
	return State{Adds: adds, Rmvs: rmvs}, nil
}

// DecodeEffector decodes a remove-wins-set effector encoded by AppendBinary.
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
		d := AddEff{E: in.E, T: in.T}
		d.Cancels, rest, err = xset.DecodeInstList(rest)
		if err != nil {
			return nil, err
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return d, nil
	case tagRmv:
		in, rest, err := xset.DecodeInst(rest)
		if err != nil {
			return nil, err
		}
		if err := codec.Done(rest); err != nil {
			return nil, err
		}
		return RmvEff{E: in.E, T: in.T}, nil
	default:
		return nil, codec.BadTag(tag)
	}
}
