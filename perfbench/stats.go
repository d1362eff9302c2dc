package main

import (
	"fmt"
	"math"
	"sort"
)

// sampler keeps a uniform reservoir of at most max observations (exact
// values, never bucketed) and the total count observed.
type sampler struct {
	max  int
	n    int64
	vals []int64
	rng  uint64
}

func newSampler(max int) *sampler { return &sampler{max: max, rng: 0x9e3779b97f4a7c15} }

func (s *sampler) add(v int64) {
	s.n++
	if len(s.vals) < s.max {
		s.vals = append(s.vals, v)
		return
	}
	// xorshift64: the reservoir's replacement draw.
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if j := s.rng % uint64(s.n); j < uint64(s.max) {
		s.vals[j] = v
	}
}

// tailKeeper counts observations and keeps the largest tailKeep of them
// exactly, in memory fixed when it is made. The pooled latency notes only
// need the top of the distribution, and a store that grew with the run would
// raise the Go heap goal round by round and thin out the garbage collections
// the measured code pays for, so later rounds would run faster than earlier
// ones.
type tailKeeper struct {
	n   int64
	top []int64
	// floor is the smallest kept value once the buffer has been compacted:
	// a value at or below it cannot be among the largest tailKeep.
	floor     int64
	compacted bool
}

const tailKeep = 1 << 14

func newTailKeeper() *tailKeeper { return &tailKeeper{top: make([]int64, 0, 2*tailKeep)} }

func (t *tailKeeper) add(v int64) {
	t.n++
	if t.compacted && v <= t.floor {
		return
	}
	if len(t.top) == cap(t.top) {
		sort.Slice(t.top, func(i, j int) bool { return t.top[i] > t.top[j] })
		t.top = t.top[:tailKeep]
		t.floor, t.compacted = t.top[tailKeep-1], true
		if v <= t.floor {
			return
		}
	}
	t.top = append(t.top, v)
}

// summary returns the kept values as a summary of all n observations: its
// quantiles are exact down to the tailKeep-th largest value, and below that
// they read that value (a lower bound).
func (t *tailKeeper) summary() summary {
	v := append([]int64(nil), t.top...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return summary{n: t.n, sorted: v, dropped: t.n - int64(len(v))}
}

// summary is the sorted view of a sampler, or of a tailKeeper's largest
// values, with dropped smaller ones not kept.
type summary struct {
	n       int64
	sorted  []int64
	dropped int64
}

func (s *sampler) summary() summary {
	v := append([]int64(nil), s.vals...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return summary{n: s.n, sorted: v}
}

// quantile returns the q-quantile by the nearest-rank rule, 0 when empty.
func (s summary) quantile(q float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(int64(len(s.sorted))+s.dropped))-float64(s.dropped)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.sorted) {
		i = len(s.sorted) - 1
	}
	return float64(s.sorted[i])
}

// percentiles is one round's latency median and p99, in ns.
type percentiles struct{ p50, p99 float64 }

func (s summary) percentiles() percentiles {
	return percentiles{p50: s.quantile(0.5), p99: s.quantile(0.99)}
}

// tail returns the highest of p99, p99.9, p99.99 and p99.999 that has at
// least ten observations beyond it, with its label. A reservoir counts only
// the observations it holds.
func (s summary) tail() (string, float64) {
	label, q := "p99", 0.99
	held := float64(int64(len(s.sorted)) + s.dropped)
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99.99", 0.9999}, {"p99.999", 0.99999}} {
		if held*(1-c.q) >= 10 {
			label, q = c.label, c.q
		}
	}
	return label, s.quantile(q)
}

// median of a list of per-round values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// share returns a/b, 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one printed, named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

// metricSet keeps metrics in insertion order for printing.
type metricSet struct {
	names []string
	m     map[string]metric
}

func (ms *metricSet) set(name string, value float64, unit, note string) {
	if ms.m == nil {
		ms.m = map[string]metric{}
	}
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: value, Unit: unit, note: note}
}

// latencyNote renders the sample count and the deepest tail with at least
// ten samples beyond it, in microseconds.
func latencyNote(s summary) string {
	label, v := s.tail()
	return fmt.Sprintf("n=%d, %s=%.1f us", s.n, label, v/1e3)
}
