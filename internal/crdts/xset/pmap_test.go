package xset

import (
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/model"
)

// contents lists m's entries in Ascend order from the given key.
func contents(m Map[int], from string) []string {
	var out []string
	m.Ascend(from, func(k string, v int) bool {
		out = append(out, k+"="+strconv.Itoa(v))
		return true
	})
	return out
}

// want lists a Go map's entries with keys ≥ from, sorted by key.
func want(ref map[string]int, from string) []string {
	var keys, out []string
	for k := range ref {
		if k >= from {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, k+"="+strconv.Itoa(ref[k]))
	}
	return out
}

func TestMapSetKeepsOldVersions(t *testing.T) {
	var versions []Map[int]
	var refs []map[string]int
	var m Map[int]
	ref := map[string]int{}
	for i := 0; i < 200; i++ {
		versions, refs = append(versions, m), append(refs, ref)
		k := strconv.Itoa(i * 7 % 61) // revisits keys, so some Sets overwrite
		next := map[string]int{k: i}
		for k2, v := range ref {
			if k2 != k {
				next[k2] = v
			}
		}
		m, ref = m.Set(k, i), next
	}
	versions, refs = append(versions, m), append(refs, ref)
	for i, v := range versions {
		if v.Len() != len(refs[i]) {
			t.Fatalf("version %d: Len = %d, want %d", i, v.Len(), len(refs[i]))
		}
		if got, w := contents(v, ""), want(refs[i], ""); !reflect.DeepEqual(got, w) {
			t.Fatalf("version %d changed after later Sets:\n got  %v\n want %v", i, got, w)
		}
	}
}

func TestMapAscendLenAndOverwrite(t *testing.T) {
	var m Map[int]
	for _, k := range []string{"b", "ab", "a", "c", "abc", "ba"} {
		m = m.Set(k, len(k))
	}
	if m.Len() != 6 {
		t.Fatalf("Len = %d, want 6", m.Len())
	}
	for from, w := range map[string][]string{
		"":   {"a=1", "ab=2", "abc=3", "b=1", "ba=2", "c=1"},
		"ab": {"ab=2", "abc=3", "b=1", "ba=2", "c=1"},
		"aa": {"ab=2", "abc=3", "b=1", "ba=2", "c=1"},
		"bb": {"c=1"},
		"d":  nil,
	} {
		if got := contents(m, from); !reflect.DeepEqual(got, w) {
			t.Errorf("Ascend(%q) = %v, want %v", from, got, w)
		}
	}
	var first []string
	m.Ascend("", func(k string, _ int) bool {
		first = append(first, k)
		return len(first) < 2
	})
	if !reflect.DeepEqual(first, []string{"a", "ab"}) {
		t.Errorf("Ascend did not stop when fn returned false: %v", first)
	}
	m2 := m.Set("ab", 9)
	if m2.Len() != 6 {
		t.Errorf("overwrite changed Len to %d", m2.Len())
	}
	if v, _ := m2.Get("ab"); v != 9 {
		t.Errorf("Get after overwrite = %d", v)
	}
	if v, _ := m.Get("ab"); v != 2 {
		t.Errorf("overwrite changed the old version: %d", v)
	}
	if _, ok := m.Get("zz"); ok {
		t.Error("Get found an absent key")
	}
}

// TestMapShapeIsAFunctionOfKeys: the same entries inserted in different
// orders give identical trees.
func TestMapShapeIsAFunctionOfKeys(t *testing.T) {
	var fwd, rev Map[int]
	for i := 0; i < 300; i++ {
		fwd = fwd.Set(strconv.Itoa(i), i)
		rev = rev.Set(strconv.Itoa(299-i), 299-i)
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatal("insertion order changed the tree")
	}
}

// TestSetScansOnlyItsElement: Live, Has and Elems see one element's live
// instances even where its rendering is a string prefix of another's, and a
// tombstone that arrives first still kills the instance it names.
func TestSetScansOnlyItsElement(t *testing.T) {
	one, twelve := model.Int(1), model.Int(12)
	in := func(e model.Value, seq int64) Inst { return Inst{E: e, T: Tag{Node: 1, Seq: seq}} }
	var s Set
	s = s.Kill(in(one, 3).Key())
	for i, x := range []Inst{in(one, 1), in(twelve, 2), in(one, 3), in(model.Str("1@t1#1"), 4), in(one, 10)} {
		s = s.Add(x)
		if i == 1 {
			s = s.Kill(x.Key())
		}
	}
	if got := s.Live(one); !reflect.DeepEqual(got, []Inst{in(one, 1), in(one, 10)}) {
		t.Errorf("Live(1) = %v", got)
	}
	if s.Has(twelve) || !s.Has(one) || s.Has(model.Int(2)) {
		t.Error("Has disagrees with the live instances")
	}
	if got := s.Elems(); !reflect.DeepEqual(got, []model.Value{one, model.Str("1@t1#1")}) {
		t.Errorf("Elems = %v", got)
	}
	if got := string(s.AppendKeys(nil)); got != `"1@t1#1"@t1#4 12@t1#2! 1@t1#1 1@t1#10 1@t1#3!` {
		t.Errorf("AppendKeys = %s", got)
	}
}

// FuzzPMap checks Map against a Go map and a sort: every op sets a key
// derived from one input byte to the next byte, and once all ops are done
// every version made along the way must still hold exactly its entries.
func FuzzPMap(f *testing.F) {
	f.Add([]byte{1, 1, 10, 2, 11, 3, 1, 4})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		var versions []Map[int]
		var refs []map[string]int
		var m Map[int]
		ref := map[string]int{}
		for i := 0; i+1 < len(data); i += 2 {
			k, v := strconv.Itoa(int(data[i]%64)), int(data[i+1])
			next := map[string]int{k: v}
			for k2, v2 := range ref {
				if k2 != k {
					next[k2] = v2
				}
			}
			m, ref = m.Set(k, v), next
			versions, refs = append(versions, m), append(refs, ref)
			if got, ok := m.Get(k); !ok || got != v || m.Len() != len(ref) {
				t.Fatalf("after Set(%s, %d): Get = %d, %v; Len = %d, want %d", k, v, got, ok, m.Len(), len(ref))
			}
		}
		for i, vm := range versions {
			for _, from := range []string{"", strconv.Itoa(int(data[i] % 64))} {
				if got, w := contents(vm, from), want(refs[i], from); !reflect.DeepEqual(got, w) {
					t.Fatalf("version %d, Ascend(%q):\n got  %v\n want %v", i, from, got, w)
				}
			}
		}
	})
}
