package awset

import (
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
)

// goldenVectors builds the canonical encodings and Key strings checked by
// TestGoldenEncodings. Tags mix node and sequence numbers of different
// digit counts, so the string order of instance keys (t10 before t2) and the
// numeric tag order of a remove's instance list disagree.
func goldenVectors(t *testing.T) map[string]string {
	t.Helper()
	o := New()
	i7 := func(node model.NodeID, seq int64) inst { return inst{E: model.Int(7), T: Tag{Node: node, Seq: seq}} }
	s := o.Init()
	for _, in := range []inst{i7(0, 1), i7(0, 10), i7(0, 2), i7(10, 9), i7(1, 2), i7(2, 5),
		{E: model.Str("a@t1#2"), T: Tag{Node: 2, Seq: 3}}, {E: model.Int(12), T: Tag{Node: 0, Seq: 4}}} {
		s = AddEff{E: in.E, T: in.T}.Apply(s)
	}
	many := RmvEff{E: model.Int(7), Insts: []inst{i7(1, 2)}}.Apply(s)
	_, rmv, err := o.Prepare(model.Op{Name: spec.OpRemove, Arg: model.Int(7)}, many, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	// A remove delivered before the adds it tombstones (non-causal order).
	early := RmvEff{E: model.Int(5), Insts: []inst{{E: model.Int(5), T: Tag{Node: 1, Seq: 4}}, {E: model.Int(5), T: Tag{Node: 2, Seq: 6}}}}
	tomb := early.Apply(o.Init())
	tombAdd := AddEff{E: model.Int(5), T: Tag{Node: 1, Seq: 4}}.Apply(tomb)
	enc := func(v interface{ AppendBinary([]byte) []byte }) string {
		return hex.EncodeToString(v.AppendBinary(nil))
	}
	return map[string]string{
		"state/many-instances": enc(many),
		"key/many-instances":   many.Key(),
		"state/tombstone-only": enc(tomb),
		"key/tombstone-only":   tomb.Key(),
		"state/tombstone-add":  enc(tombAdd),
		"key/tombstone-add":    tombAdd.Key(),
		"eff/rmv-many":         enc(rmv),
		"eff/rmv-early":        enc(early),
		"eff/add":              enc(AddEff{E: model.Str("a@t1#2"), T: Tag{Node: 2, Seq: 3}}),
	}
}

// goldenWant holds the encodings produced by the map-based state this
// package had before it moved onto xset.Set: the snapshot and wire formats
// must not move.
var goldenWant = map[string]string{
	"eff/add":              "0103066140743123320406",
	"eff/rmv-early":        "02020a02020a0208020a040c",
	"eff/rmv-many":         "02020e05020e0002020e0004020e0014020e040a020e1412",
	"key/many-instances":   "aw{\"a@t1#2\"@t2#3 12@t0#4 7@t0#1 7@t0#10 7@t0#2 7@t1#2! 7@t10#9 7@t2#5}",
	"key/tombstone-add":    "aw{5@t1#4!}",
	"key/tombstone-only":   "aw{}",
	"state/many-instances": "080306614074312332040602180008020e0002020e0014020e0004020e0204020e1412020e040a0106374074312332",
	"state/tombstone-add":  "01020a0208020635407431233406354074322336",
	"state/tombstone-only": "00020635407431233406354074322336",
}

// TestGoldenEncodings pins the canonical state and effector bytes and the
// Key strings, and checks that every golden state decodes and re-encodes to
// the same bytes.
func TestGoldenEncodings(t *testing.T) {
	got := goldenVectors(t)
	for name, g := range got {
		if want, ok := goldenWant[name]; !ok || g != want {
			t.Errorf("%s:\n got  %q\n want %q", name, g, want)
		}
	}
	for name, g := range got {
		kind, ok := strings.CutPrefix(name, "state/")
		if !ok {
			continue
		}
		b, _ := hex.DecodeString(g)
		st, err := DecodeState(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if re := hex.EncodeToString(st.AppendBinary(nil)); re != g {
			t.Errorf("%s: decoded state re-encodes to %s", name, re)
		}
		if st.Key() != got["key/"+kind] {
			t.Errorf("%s: decoded state has Key %s", name, st.Key())
		}
	}
}
