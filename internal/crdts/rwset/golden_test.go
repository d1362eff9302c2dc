package rwset

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
// numeric tag order disagree.
func goldenVectors(t *testing.T) map[string]string {
	t.Helper()
	o := New()
	i7 := func(node model.NodeID, seq int64) inst { return inst{E: model.Int(7), T: Tag{Node: node, Seq: seq}} }
	s := o.Init()
	for _, in := range []inst{i7(0, 1), i7(0, 10), i7(10, 9), {E: model.Str("a@t1#2"), T: Tag{Node: 2, Seq: 3}}} {
		s = AddEff{E: in.E, T: in.T}.Apply(s)
	}
	for _, in := range []inst{i7(0, 2), i7(0, 11), i7(10, 3), i7(1, 2), i7(2, 6), {E: model.Int(12), T: Tag{Node: 0, Seq: 4}}} {
		s = RmvEff{E: in.E, T: in.T}.Apply(s)
	}
	many := AddEff{E: model.Int(7), T: Tag{Node: 1, Seq: 12}, Cancels: []inst{i7(0, 11)}}.Apply(s)
	_, add, err := o.Prepare(model.Op{Name: spec.OpAdd, Arg: model.Int(7)}, many, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	// An add whose cancellations arrive before the removals they cancel
	// (non-causal order).
	early := AddEff{E: model.Int(5), T: Tag{Node: 0, Seq: 9}, Cancels: []inst{{E: model.Int(5), T: Tag{Node: 1, Seq: 3}}, {E: model.Int(5), T: Tag{Node: 2, Seq: 4}}}}
	cancel := early.Apply(o.Init())
	cancelRmv := RmvEff{E: model.Int(5), T: Tag{Node: 1, Seq: 3}}.Apply(cancel)
	enc := func(v interface{ AppendBinary([]byte) []byte }) string {
		return hex.EncodeToString(v.AppendBinary(nil))
	}
	return map[string]string{
		"state/many-instances": enc(many),
		"key/many-instances":   many.Key(),
		"state/cancel-only":    enc(cancel),
		"key/cancel-only":      cancel.Key(),
		"state/cancel-rmv":     enc(cancelRmv),
		"key/cancel-rmv":       cancelRmv.Key(),
		"eff/add-cancels":      enc(add),
		"eff/add-early":        enc(early),
		"eff/rmv":              enc(RmvEff{E: model.Str("a@t1#2"), T: Tag{Node: 2, Seq: 3}}),
	}
}

// goldenWant holds the encodings produced by the map-based state this
// package had before it moved onto xset.Set: the snapshot and wire formats
// must not move.
var goldenWant = map[string]string{
	"eff/add-cancels":      "01020e062804020e0004020e0204020e1406020e040c",
	"eff/add-early":        "01020a001202020a0206020a0408",
	"eff/rmv":              "0203066140743123320406",
	"key/cancel-only":      "rw{A:5@t0#9,R:}",
	"key/cancel-rmv":       "rw{A:5@t0#9,R:5@t1#3!}",
	"key/many-instances":   "rw{A:\"a@t1#2\"@t2#3 7@t0#1 7@t0#10 7@t1#12 7@t10#9,R:12@t0#4 7@t0#11! 7@t0#2 7@t1#2 7@t10#3 7@t2#6}",
	"state/cancel-only":    "01020a001200020635407431233306354074322334",
	"state/cancel-rmv":     "01020a001201020a0206020635407431233306354074322334",
	"state/many-instances": "0503066140743123320406020e0002020e0014020e0218020e14120602180008020e0016020e0004020e0204020e1406020e040c010737407430233131",
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
