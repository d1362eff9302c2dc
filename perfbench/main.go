// Command perfbench is the repository's end-to-end replication benchmark:
// it drives registry CRDTs through the real stack (Peer → Stream over a
// unix socket → Receiver) on a two-node mesh in one process, checks that
// every round converges, and prints end-to-end metrics, or with -trace 1
// per-layer metrics timed from outside the layers. See README.md.
//
//	perfbench --workload counter-closed --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/crdts/registry"
	"repro/internal/transport"
)

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		w, err := workloadByName(n)
		if err == nil {
			err = run(os.Stdout, config{w: w, stall: 20 * time.Second, warmup: 3 * time.Second}, *seed, *seconds, *trace == 1, 3)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
	}
}

// run measures one workload for seconds (each part at least minRounds
// rounds) and prints its metrics table, then the result as one JSON line.
// Nothing is printed unless every round passed the correctness gate.
func run(out io.Writer, cfg config, seed int64, seconds float64, trace bool, minRounds int) error {
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	cfg.seed = seed
	cfg.sockDir = filepath.Join(".bench_build", "sock")
	if err := os.MkdirAll(cfg.sockDir, 0o755); err != nil {
		return err
	}
	b, err := runBench(cfg, seconds, trace, minRounds)
	if err != nil {
		return err
	}
	ms, err := b.metrics(trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload %s, seed %d: %d warm-up and %d measured rounds (%d traced), %d ops attempted, correctness gate passed\n",
		cfg.w.name, seed, b.warmRounds, len(b.rounds), b.tracedRounds, b.attempted)
	for _, n := range ms.names {
		m := ms.m[n]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", n, m.Value, m.Unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(out, line)
	}
	js, err := json.Marshal(result{Correct: true, Attempted: b.attempted, Metrics: ms.m})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(js))
	return nil
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run: repeated rounds of one workload.
type bench struct {
	cfg  config
	algs []registry.Algorithm
	man  transport.Manifest

	// next numbers the rounds, warm-up ones included, so each draws its own
	// inputs.
	next         int
	warmRounds   int
	rounds       []roundResult
	tracedRounds int
	attempted    int
	replicate    *tailKeeper
	invoke       *tailKeeper
	late         *tailKeeper
	tr           *tracer
	busyShares   []float64
}

func newBench(cfg config) (*bench, error) {
	b := &bench{
		cfg:       cfg,
		replicate: newTailKeeper(),
		invoke:    newTailKeeper(),
		late:      newTailKeeper(),
	}
	for i, k := range cfg.w.kinds {
		a, ok := registry.ByName(k)
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %q", k)
		}
		b.algs = append(b.algs, a)
		b.man = append(b.man, transport.ObjectSpec{ID: transport.ObjID(i + 1), Name: fmt.Sprintf("obj%d", i+1), Kind: k})
	}
	return b, nil
}

// runBench runs untraced rounds for the measured seconds, or, traced, for
// half of them and traced rounds for the other half; each part runs at
// least minRounds rounds. Before timing starts, untraced warm-up rounds run
// for cfg.warmup: they pass the correctness gate like every round, and their
// measurements are dropped, because the first rounds of a process run on a
// cold heap, empty buffer pools and fresh threads.
func runBench(cfg config, seconds float64, trace bool, minRounds int) (*bench, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for cfg.warmup > 0 && (b.warmRounds == 0 || time.Since(start) < cfg.warmup) {
		if err := b.round(false); err != nil {
			return nil, err
		}
		b.warmRounds++
	}
	b.rounds = b.rounds[:0]
	b.replicate, b.invoke, b.late = newTailKeeper(), newTailKeeper(), newTailKeeper()
	start = time.Now()
	untracedFor := seconds
	if trace {
		untracedFor = seconds / 2
		b.tr = newTracer()
	}
	for n := 0; n < minRounds || time.Since(start).Seconds() < untracedFor; n++ {
		if err := b.round(false); err != nil {
			return nil, err
		}
	}
	if trace {
		for n := 0; n < minRounds || time.Since(start).Seconds() < seconds; n++ {
			if err := b.round(true); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// round runs one round on a fresh mesh and folds its samples in.
func (b *bench) round(traced bool) error {
	var tr *tracer
	if traced {
		tr = b.tr
		tr.beginRound(len(b.algs))
	}
	n := b.next
	b.next++
	in, err := generate(b.cfg.w, b.algs, b.cfg.seed, n)
	if err != nil {
		return err
	}
	runtime.GC()
	m := newMesh(&b.cfg, in, b.algs, b.man, tr, n)
	rr, err := m.run()
	if err != nil {
		return fmt.Errorf("round %d: %w", n, err)
	}
	b.rounds = append(b.rounds, rr)
	b.attempted += len(in.solo) + rr.ops
	if traced {
		b.tracedRounds++
		tr.endRound()
		b.busyShares = append(b.busyShares, share(float64(tr.busy.Load())/1e9, rr.wall*recvWorkers*2))
		return nil
	}
	rep, inv := newSampler(math.MaxInt), newSampler(math.MaxInt)
	for o := range m.flows {
		for i := range m.flows[o] {
			fl := &m.flows[o][i]
			for k := fl.live; k < fl.seen; k++ {
				rep.add(fl.applied[k] - fl.start[k])
				b.replicate.add(fl.applied[k] - fl.start[k])
			}
		}
		for _, d := range m.invokeNs[o] {
			inv.add(d)
			b.invoke.add(d)
		}
		for _, d := range m.late[o] {
			b.late.add(d)
		}
	}
	last := &b.rounds[len(b.rounds)-1]
	last.replicate, last.invoke = rep.summary().percentiles(), inv.summary().percentiles()
	// Only traced rounds read their ledgers back; dropping the others keeps
	// what the benchmark holds on the heap the same from round to round.
	last.stats, last.recv, last.snap = [2]transport.Stats{}, [2]transport.RecvStats{}, [2][]transport.SnapStats{}
	return nil
}

// perRound returns f over the untraced (traced=false) or traced rounds.
func (b *bench) perRound(traced bool, f func(rr *roundResult) float64) []float64 {
	var out []float64
	for i := range b.rounds {
		if b.rounds[i].traced == traced {
			out = append(out, f(&b.rounds[i]))
		}
	}
	return out
}

// metrics renders the end-to-end metrics (untraced rounds) or, traced, the
// per-layer metrics.
func (b *bench) metrics(traced bool) (*metricSet, error) {
	ms := &metricSet{}
	untraced := func(f func(rr *roundResult) float64) float64 { return median(b.perRound(false, f)) }
	nUntraced := len(b.rounds) - b.tracedRounds
	cpuPerOp := func(rr *roundResult) float64 { return rr.cpu / float64(rr.ops) * 1e6 }
	if !traced {
		rep, inv := b.replicate.summary(), b.invoke.summary()
		rounds := fmt.Sprintf("median of %d rounds", nUntraced)
		lat := func(f func(rr *roundResult) float64, s summary) (float64, string) {
			return untraced(f) / 1e3, rounds + "; pooled " + latencyNote(s)
		}
		ms.set("setup_s", untraced(func(rr *roundResult) float64 { return rr.setup }), "s", rounds)
		ms.set("ops_per_s", untraced(func(rr *roundResult) float64 { return float64(rr.ops) / rr.wall }), "ops/s", rounds)
		v, note := lat(func(rr *roundResult) float64 { return rr.replicate.p50 }, rep)
		ms.set("replicate_p50_us", v, "us", note)
		v, note = lat(func(rr *roundResult) float64 { return rr.replicate.p99 }, rep)
		ms.set("replicate_p99_us", v, "us", note)
		v, note = lat(func(rr *roundResult) float64 { return rr.invoke.p50 }, inv)
		ms.set("invoke_p50_us", v, "us", note)
		v, note = lat(func(rr *roundResult) float64 { return rr.invoke.p99 }, inv)
		ms.set("invoke_p99_us", v, "us", note)
		ms.set("cpu_us_per_op", untraced(cpuPerOp), "us", rounds)
		ms.set("alloc_bytes_per_op", untraced(func(rr *roundResult) float64 { return float64(rr.alloc) / float64(rr.ops) }), "B", rounds)
		ms.set("wire_bytes_per_op", untraced(func(rr *roundResult) float64 { return float64(rr.wire) / float64(rr.effectful) }), "B", rounds)
		return ms, nil
	}
	tr := b.tr
	q := func(k spanKind, p float64) float64 { return tr.samples[k].summary().quantile(p) }
	tracedMed := func(f func(rr *roundResult) float64) float64 { return median(b.perRound(true, f)) }
	// crdts
	effectors := 0
	for i := range b.rounds {
		if b.rounds[i].traced {
			effectors += b.rounds[i].issued
		}
	}
	ms.set("crdts.prepare_ns.p50", q(kPrepare, 0.5), "ns", "")
	ms.set("crdts.encode_ns.p50", q(kEncode, 0.5), "ns", "")
	ms.set("crdts.decode_ns.p50", q(kDecode, 0.5), "ns", "")
	ms.set("crdts.apply_ns.p50", q(kApply, 0.5), "ns", "")
	ms.set("crdts.apply_ns.p99", q(kApply, 0.99), "ns", "")
	ms.set("crdts.decode_calls_per_effector", share(float64(tr.decodeCalls), float64(effectors)), "count", "")
	ms.set("crdts.state_bytes", tracedMed(func(rr *roundResult) float64 { return float64(rr.stateBytes) }), "B", "node 0, all objects")
	// transport/peer
	ms.set("peer.invoke_self_ns.p50", q(kInvokeSelf, 0.5), "ns", "")
	ms.set("peer.handle_self_ns.p50", q(kHandleSelf, 0.5), "ns", "")
	ms.set("peer.deps_per_frame.mean", share(float64(tr.depsSum), float64(tr.depsFrames)), "count", "")
	ms.set("peer.read_invoke_ns.p99", q(kReadInvoke, 0.99), "ns", "")
	ms.set("peer.held_frames", tracedMed(func(rr *roundResult) float64 { return float64(rr.held) }), "count", "per round")
	// transport/stream send + sched
	sum := func(rr *roundResult, f func(s *transport.Stats) float64) float64 {
		return f(&rr.stats[0]) + f(&rr.stats[1])
	}
	flushShare := func(f func(fs transport.FlushStats) int) float64 {
		return tracedMed(func(rr *roundResult) float64 {
			return share(sum(rr, func(s *transport.Stats) float64 { return float64(f(s.Flushes)) }),
				sum(rr, func(s *transport.Stats) float64 { return float64(s.Flushes.Total()) }))
		})
	}
	ms.set("stream.broadcast_ns.p50", q(kBroadcast, 0.5), "ns", "")
	ms.set("stream.broadcast_ns.p99", q(kBroadcast, 0.99), "ns", "")
	ms.set("stream.flush_ns.p50", q(kFlush, 0.5), "ns", fmt.Sprintf("n=%d", tr.samples[kFlush].n))
	framesPerBatch := tracedMed(func(rr *roundResult) float64 {
		return share(sum(rr, func(s *transport.Stats) float64 { return float64(s.TotalSent().Frames) }),
			sum(rr, func(s *transport.Stats) float64 { return float64(s.TotalSent().Batches) }))
	})
	ms.set("stream.frames_per_batch", framesPerBatch, "count", "")
	ms.set("stream.wire_bytes_per_frame", tracedMed(func(rr *roundResult) float64 {
		return share(sum(rr, func(s *transport.Stats) float64 { return float64(s.TotalSent().Bytes) }),
			sum(rr, func(s *transport.Stats) float64 { return float64(s.TotalSent().Frames) }))
	}), "B", "")
	ms.set("stream.flush_share.frames", flushShare(func(fs transport.FlushStats) int { return fs.Frames }), "ratio", "")
	ms.set("stream.flush_share.delay", flushShare(func(fs transport.FlushStats) int { return fs.Delay }), "ratio", "")
	ms.set("stream.flush_share.explicit", flushShare(func(fs transport.FlushStats) int { return fs.Explicit }), "ratio", "")
	var delays transport.SchedObj
	for i := range b.rounds {
		if !b.rounds[i].traced {
			continue
		}
		for _, s := range b.rounds[i].stats {
			for _, o := range s.Sched.Objects {
				delays.DelaySamples += o.DelaySamples
				if o.DelayMax > delays.DelayMax {
					delays.DelayMax = o.DelayMax
				}
				for j, c := range o.DelayBuckets {
					delays.DelayBuckets[j] += c
				}
			}
		}
	}
	ms.set("sched.delay_us.p50", float64(delays.DelayQuantile(0.5))/1e3, "us", "histogram bucket bound")
	ms.set("sched.delay_us.p99", float64(delays.DelayQuantile(0.99))/1e3, "us", "histogram bucket bound")
	// transport/frame + codec
	fc, err := replayFrames(tr.frames, int(math.Round(framesPerBatch)))
	if err != nil {
		return nil, err
	}
	replay := fmt.Sprintf("%d captured frames", len(tr.frames))
	ms.set("frame.append_ns_per_frame", fc.appendNs, "ns", replay)
	ms.set("frame.batch_encode_ns_per_frame", fc.batchEncodeNs, "ns", replay)
	ms.set("frame.batch_decode_ns_per_frame", fc.batchDecodeNs, "ns", replay)
	ms.set("frame.alloc_bytes_per_frame", fc.allocBytes, "B", replay)
	// transport/recv
	transit := tr.samples[kTransit].summary()
	ms.set("recv.transit_us.p50", transit.quantile(0.5)/1e3, "us", latencyNote(transit))
	ms.set("recv.transit_us.p99", transit.quantile(0.99)/1e3, "us", latencyNote(transit))
	ms.set("recv.handler_busy_share", median(b.busyShares), "ratio", "of recv shards x nodes")
	ms.set("recv.max_queue", tracedMed(func(rr *roundResult) float64 {
		mq := 0
		for _, rs := range rr.recv {
			for _, sh := range rs.Shards {
				if sh.MaxQueue > mq {
					mq = sh.MaxQueue
				}
			}
		}
		return float64(mq)
	}), "count", "")
	// transport/snapshot
	snapSum := func(node int, f func(s transport.SnapStats) int) float64 {
		return tracedMed(func(rr *roundResult) float64 {
			t := 0
			for _, s := range rr.snap[node] {
				t += f(s)
			}
			return float64(t)
		})
	}
	ms.set("snapshot.serve_ns", q(kServe, 0.5), "ns", "p50 per object")
	ms.set("snapshot.install_ns", q(kInstall, 0.5), "ns", "p50 per object")
	ms.set("snapshot.decode_state_ns", q(kDecodeState, 0.5), "ns", "p50 per object")
	ms.set("snapshot.bytes", snapSum(1, func(s transport.SnapStats) int { return s.SnapshotBytes }), "B", "all objects")
	ms.set("snapshot.log_retained", snapSum(0, func(s transport.SnapStats) int { return s.LogRetained }), "count", "all objects")
	ms.set("catchup_s", untraced(func(rr *roundResult) float64 { return rr.catchup }), "s", "untraced rounds")
	// loadgen validity
	late := b.late.summary()
	ms.set("loadgen.late_us.p99", late.quantile(0.99)/1e3, "us", fmt.Sprintf("n=%d", late.n))
	ms.set("loadgen.rejected_share", share(float64(sumRounds(b.rounds, func(rr *roundResult) int { return rr.rejected })), float64(b.attempted)), "ratio", "")
	ms.set("failed_op_share", 0, "ratio", "a failed op fails the run")
	untracedCPU, tracedCPU := untraced(cpuPerOp), tracedMed(cpuPerOp)
	ms.set("trace.overhead_share", share(tracedCPU, untracedCPU)-1, "ratio",
		fmt.Sprintf("cpu/op %.3f us traced vs %.3f us untraced", tracedCPU, untracedCPU))
	return ms, nil
}

func sumRounds(rs []roundResult, f func(rr *roundResult) int) int {
	t := 0
	for i := range rs {
		t += f(&rs[i])
	}
	return t
}
