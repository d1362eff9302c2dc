package xset

import (
	"strconv"
	"strings"

	"repro/internal/codec"
	"repro/internal/model"
)

// Tag uniquely identifies one instance: the origin node plus the unique
// request ID of the operation that created it.
type Tag struct {
	Node model.NodeID
	Seq  int64
}

// String renders the tag as t<node>#<seq>.
func (t Tag) String() string { return string(t.appendText(nil)) }

func (t Tag) appendText(b []byte) []byte {
	b = append(b, 't') // as model.NodeID renders
	b = strconv.AppendInt(b, int64(t.Node), 10)
	b = append(b, '#')
	return strconv.AppendInt(b, t.Seq, 10)
}

// Less orders tags by node, then sequence number.
func (t Tag) Less(u Tag) bool {
	if t.Node != u.Node {
		return t.Node < u.Node
	}
	return t.Seq < u.Seq
}

// Inst is one tagged instance of an element.
type Inst struct {
	E model.Value
	T Tag
}

// Key renders the instance as <element>@<tag>. Keys are injective, and the
// keys of one element's instances are exactly those starting with its
// rendering followed by '@'.
func (i Inst) Key() string {
	e := i.E.String()
	b := append(make([]byte, 0, len(e)+24), e...)
	return string(i.T.appendText(append(b, '@')))
}

// entry is what a Set holds under one instance key: whether the instance
// has been added, and whether a tombstone for it has arrived. Under
// non-causal delivery a tombstone can precede its instance, so either flag
// can be set alone; Inst is only meaningful once Added is set.
type entry struct {
	Inst
	Added, Dead bool
}

// Set is a grow-only set of tagged instances with tombstones, an immutable
// value: Add and Kill return new versions. An instance is live iff it has
// been added and not killed.
type Set struct {
	m           Map[entry]
	added, dead int
}

// Add returns s with the instance added.
func (s Set) Add(in Inst) Set {
	k := in.Key()
	e, _ := s.m.Get(k)
	if e.Added {
		return s
	}
	e.Inst, e.Added = in, true
	s.m = s.m.Set(k, e)
	s.added++
	return s
}

// Kill returns s with the instance under key k tombstoned.
func (s Set) Kill(k string) Set {
	e, _ := s.m.Get(k)
	if e.Dead {
		return s
	}
	e.Dead = true
	s.m = s.m.Set(k, e)
	s.dead++
	return s
}

// each calls fn on the live instances of e in key order until fn returns
// false, scanning only the keys with e's prefix.
func (s Set) each(e model.Value, fn func(Inst) bool) {
	p := e.String() + "@"
	s.m.Ascend(p, func(k string, en entry) bool {
		if !strings.HasPrefix(k, p) {
			return false
		}
		if en.Added && !en.Dead && en.E.Equal(e) {
			return fn(en.Inst)
		}
		return true
	})
}

// Live returns the live instances of e in key order.
func (s Set) Live(e model.Value) []Inst {
	var out []Inst
	s.each(e, func(in Inst) bool {
		out = append(out, in)
		return true
	})
	return out
}

// Has reports whether e has a live instance.
func (s Set) Has(e model.Value) bool {
	has := false
	s.each(e, func(Inst) bool {
		has = true
		return false
	})
	return has
}

// Elems returns the distinct elements with a live instance, in canonical
// value order. One element's keys share a prefix no other element's keys
// have, so its instances are adjacent in key order and only the distinct
// elements need sorting.
func (s Set) Elems() []model.Value {
	var out []model.Value
	s.m.Ascend("", func(_ string, en entry) bool {
		if en.Added && !en.Dead && (len(out) == 0 || !out[len(out)-1].Equal(en.E)) {
			out = append(out, en.E)
		}
		return true
	})
	model.SortValues(out)
	return out
}

// AppendKeys appends the keys of the added instances in key order, separated
// by spaces, each tombstoned one marked with '!': the Key rendering of a
// state.
func (s Set) AppendKeys(b []byte) []byte {
	start := len(b)
	s.m.Ascend("", func(k string, en entry) bool {
		if en.Added {
			if len(b) > start {
				b = append(b, ' ')
			}
			b = append(b, k...)
			if en.Dead {
				b = append(b, '!')
			}
		}
		return true
	})
	return b
}

// AppendInsts appends the added instances in key order, count-prefixed — a
// pure function of the set's contents, so equal sets encode to equal bytes.
func (s Set) AppendInsts(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(s.added))
	s.m.Ascend("", func(_ string, en entry) bool {
		if en.Added {
			b = AppendInst(b, en.Inst)
		}
		return true
	})
	return b
}

// AppendDead appends the tombstoned keys in key order, count-prefixed. They
// are encoded as strings, apart from the instances, so a state stays
// decodable when a tombstone precedes its instance.
func (s Set) AppendDead(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(s.dead))
	s.m.Ascend("", func(k string, en entry) bool {
		if en.Dead {
			b = codec.AppendString(b, k)
		}
		return true
	})
	return b
}

// DecodeInsts decodes the instances encoded by AppendInsts into a new Set.
func DecodeInsts(b []byte) (Set, []byte, error) {
	ins, rest, err := DecodeInstList(b)
	if err != nil {
		return Set{}, nil, err
	}
	var s Set
	for _, in := range ins {
		s = s.Add(in)
	}
	return s, rest, nil
}

// DecodeDead decodes the keys encoded by AppendDead and tombstones them in s.
func (s Set) DecodeDead(b []byte) (Set, []byte, error) {
	n, rest, err := codec.DecodeUvarint(b)
	if err != nil {
		return Set{}, nil, err
	}
	for i := uint64(0); i < n; i++ {
		var k string
		if k, rest, err = codec.DecodeString(rest); err != nil {
			return Set{}, nil, err
		}
		s = s.Kill(k)
	}
	return s, rest, nil
}

// AppendInst appends an instance: its element, then its tag's node and
// sequence number.
func AppendInst(b []byte, in Inst) []byte {
	b = codec.AppendValue(b, in.E)
	b = codec.AppendVarint(b, int64(in.T.Node))
	return codec.AppendVarint(b, in.T.Seq)
}

// DecodeInst decodes one instance encoded by AppendInst.
func DecodeInst(b []byte) (Inst, []byte, error) {
	e, rest, err := codec.DecodeValue(b)
	if err != nil {
		return Inst{}, nil, err
	}
	node, rest, err := codec.DecodeVarint(rest)
	if err != nil {
		return Inst{}, nil, err
	}
	seq, rest, err := codec.DecodeVarint(rest)
	if err != nil {
		return Inst{}, nil, err
	}
	return Inst{E: e, T: Tag{Node: model.NodeID(node), Seq: seq}}, rest, nil
}

// AppendInstList appends a count-prefixed list of instances in list order.
func AppendInstList(b []byte, ins []Inst) []byte {
	b = codec.AppendUvarint(b, uint64(len(ins)))
	for _, in := range ins {
		b = AppendInst(b, in)
	}
	return b
}

// DecodeInstList decodes a list encoded by AppendInstList.
func DecodeInstList(b []byte) ([]Inst, []byte, error) {
	n, rest, err := codec.DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	var out []Inst
	for i := uint64(0); i < n; i++ {
		var in Inst
		if in, rest, err = DecodeInst(rest); err != nil {
			return nil, nil, err
		}
		out = append(out, in)
	}
	return out, rest, nil
}
