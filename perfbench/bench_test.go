package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// benchSpec is the part of BENCHMARK.json the tests check against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// small returns a copy of w with a tenth of the operations per round.
func small(w *workload) *workload {
	c := *w
	c.opsPerNode /= 10
	c.solo /= 10
	return &c
}

// TestEveryMetricPrints runs a short untraced and traced run of every
// workload and checks that each metric BENCHMARK.json names prints in the
// table and in the final JSON line, with its unit.
func TestEveryMetricPrints(t *testing.T) {
	s := readSpec(t)
	for _, sw := range s.Workloads {
		if _, err := workloadByName(sw.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			var out bytes.Buffer
			if err := run(&out, config{w: small(w), stall: 10 * time.Second}, 1, 0, traced, 1); err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%t: last line is not the result: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%t: result %+v", w.name, traced, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics in the result, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s: got %+v (present %t), want unit %s", w.name, traced, m.Name, got, ok, m.Unit)
				}
				if !strings.Contains(out.String(), "  "+m.Name+" ") {
					t.Errorf("%s traced=%t: metric %s missing from the table", w.name, traced, m.Name)
				}
			}
		}
	}
}

// dropOne loses the drop-th effector frame node 0 broadcasts.
type dropOne struct {
	sendSide
	drop int64
	n    atomic.Int64
}

func (d *dropOne) Broadcast(f transport.Frame) error {
	if f.Kind == transport.KindEffector && d.n.Add(1) == d.drop {
		return nil
	}
	return d.sendSide.Broadcast(f)
}

// TestDroppedEffectorFailsGate checks that a transport losing one effector
// fails the run with a named error and prints nothing.
func TestDroppedEffectorFailsGate(t *testing.T) {
	for _, name := range []string{"counter-closed", "awset-causal"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config{w: small(w), stall: time.Second}
		cfg.wrapSend = func(node int, s sendSide) sendSide {
			if node != 0 {
				return s
			}
			return &dropOne{sendSide: s, drop: 10}
		}
		var out bytes.Buffer
		err = run(&out, cfg, 1, 0, false, 1)
		if !errors.Is(err, errStalled) && !errors.Is(err, errGate) {
			t.Fatalf("%s: run with a dropped effector returned %v, want a stall or gate error", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: a failed run printed:\n%s", name, out.String())
		}
		t.Logf("%s: %v", name, err)
	}
}

// TestWarmUpIsGatedNotMeasured checks that warm-up rounds pass through the
// correctness gate but leave no samples in the measured rounds.
func TestWarmUpIsGatedNotMeasured(t *testing.T) {
	w, err := workloadByName("counter-closed")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{w: small(w), stall: time.Second, warmup: time.Nanosecond, sockDir: t.TempDir()}
	b, err := runBench(cfg, 0, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.warmRounds != 1 || len(b.rounds) != 1 || b.next != 2 {
		t.Fatalf("got %d warm-up and %d measured rounds of %d, want 1 and 1 of 2", b.warmRounds, len(b.rounds), b.next)
	}
	if got, want := b.replicate.n, int64(b.rounds[0].effectful); got != want {
		t.Errorf("%d replicate samples, want the measured round's %d", got, want)
	}

	cfg.wrapSend = func(node int, s sendSide) sendSide {
		if node != 0 {
			return s
		}
		return &dropOne{sendSide: s, drop: 10}
	}
	if _, err := runBench(cfg, 0, false, 1); !errors.Is(err, errStalled) && !errors.Is(err, errGate) {
		t.Fatalf("warm-up round with a dropped effector returned %v, want a stall or gate error", err)
	}
}

// TestTailKeeperQuantiles checks the kept tail against an exact sort.
func TestTailKeeperQuantiles(t *testing.T) {
	const n = 10*tailKeep + 7
	tk := newTailKeeper()
	all := newSampler(math.MaxInt)
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := int64(x >> 40)
		tk.add(v)
		all.add(v)
	}
	got, want := tk.summary(), all.summary()
	if cap(tk.top) != 2*tailKeep {
		t.Errorf("keeper grew to %d values", cap(tk.top))
	}
	for _, q := range []float64{0.95, 0.99, 0.999, 0.9999} {
		if g, w := got.quantile(q), want.quantile(q); g != w {
			t.Errorf("q%v: kept tail reads %v, exact %v", q, g, w)
		}
	}
	gl, g := got.tail()
	wl, w := want.tail()
	if gl != wl || g != w {
		t.Errorf("tail: kept %s=%v, exact %s=%v", gl, g, wl, w)
	}
}
