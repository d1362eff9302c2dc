package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/spec"
)

// workload is one input shape the benchmark drives through a two-node mesh.
// Every round of a run draws its own inputs, from the seed and the round
// number, and runs them on a fresh mesh.
type workload struct {
	name string
	// kinds lists the registry algorithm of each object; object i travels
	// under ObjID i+1.
	kinds []string
	// opsPerNode is the live-phase operation count of one node in one round.
	opsPerNode int
	// readShare is the fraction of operations that are reads.
	readShare float64
	// window bounds a node's unreplicated effectful operations in a closed
	// loop; 0 means open loop at rate ops/s per node.
	window int
	rate   float64
	// hot, with hotShare > 0, is the object index that draws hotShare of the
	// operations; the rest spread evenly over the other objects.
	hot      int
	hotShare float64
	// solo > 0 makes a catch-up workload: node 0 runs solo operations alone
	// with snapshotting on, then node 1 joins as a late joiner and catches up
	// before the live phase.
	solo      int
	snapEvery int
}

// The transport configuration every workload runs: batching with a frame
// cap and a delay bound, the DRR scheduler with default weights, and the
// receive pipeline with one shard per CPU the benchmark uses.
const (
	batchFrames = 32
	batchDelay  = 200 * time.Microsecond
	recvWorkers = 2
)

// closedWindow is the window of every closed-loop workload. A host stall
// delays every operation in flight, two windows' worth; at 16 those are well
// under 1% of the operations a stall-free stretch completes, so the p99
// latencies are set by the replication path and not by how often the host
// stalls the process. At 64 they were not: on a 2-vCPU VM counter-closed's
// replicate p99 doubled while another process took half a CPU, and at 16 it
// moved by about 10%.
const closedWindow = 16

var workloads = []*workload{
	// Tiny effectors without deps: the transport does nearly all the work.
	{
		name:       "counter-closed",
		kinds:      []string{"counter"},
		opsPerNode: 60000,
		readShare:  0.2,
		window:     closedWindow,
	},
	// The whole applied set rides as deps and every apply clones the state,
	// so the peer deps path and the crdts apply path dominate.
	{
		name:       "awset-causal",
		kinds:      []string{"aw-set"},
		opsPerNode: 1500,
		readShare:  0.25,
		window:     closedWindow,
	},
	// The latency workload: batch delay, DRR and shared receive shards (the
	// hot g-set shares shard 0 with both rgas) set replicate latency. Its
	// tail follows host wakeup latency more than the code, so BENCHMARK.json
	// does not gate it (see README.md).
	{
		name:       "mixed-open",
		kinds:      []string{"counter", "g-set", "lww-register", "rga", "counter", "g-set", "lww-register", "rga"},
		opsPerNode: 2000,
		readShare:  0.25,
		rate:       2000,
		hot:        1,
		hotShare:   0.3,
	},
	// The only workload that runs snapshot serve, install and compaction.
	{
		name:       "catchup",
		kinds:      []string{"counter", "g-set", "lww-register", "rga"},
		opsPerNode: 1000,
		readShare:  0.2,
		window:     closedWindow,
		solo:       3000,
		snapEvery:  64,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// plannedOp is one generated operation: the object it targets, the
// operation, and for the open loop its due time from the start of the load.
type plannedOp struct {
	obj int
	op  model.Op
	due time.Duration
}

// inputs is everything a round replays: node 0's solo phase (catch-up
// workloads only) and each node's live-phase operations.
type inputs struct {
	solo []plannedOp
	live [2][]plannedOp
}

// generate builds every node's operation lists for one round from seed and
// the round number, before any timing starts. Updates are generated against
// a local model replica of the node's own operations, so state-dependent
// generators (rga's list generator) run off the clock, and every generated
// update is valid at the real replica too: a node only anchors at or removes
// elements it added itself, which no other node can remove.
func generate(w *workload, algs []registry.Algorithm, seed int64, round int) (*inputs, error) {
	in := &inputs{}
	for node := 0; node < 2; node++ {
		g := newGenerator(algs, node, seed*1000003+int64(round))
		if node == 0 && w.solo > 0 {
			ops, err := g.ops(w, w.solo)
			if err != nil {
				return nil, err
			}
			in.solo = ops
		}
		ops, err := g.ops(w, w.opsPerNode)
		if err != nil {
			return nil, err
		}
		if w.window == 0 {
			// Open loop: Poisson arrivals at the offered rate, with the gaps
			// scaled so every seed's schedule spans exactly len(ops)/rate.
			gaps := make([]float64, len(ops))
			var total float64
			for i := range gaps {
				gaps[i] = g.rng.ExpFloat64()
				total += gaps[i]
			}
			scale := float64(len(ops)) / w.rate / total
			var at float64
			for i := range ops {
				at += gaps[i] * scale
				ops[i].due = time.Duration(at * float64(time.Second))
			}
		}
		in.live[node] = ops
	}
	return in, nil
}

// generator draws one node's operations against its local model replicas.
type generator struct {
	rng    *rand.Rand
	node   int
	algs   []registry.Algorithm
	objs   []crdt.Object
	states []crdt.State
	mid    model.MsgID
	fresh  int
	pool   []model.Value
}

func newGenerator(algs []registry.Algorithm, node int, seed int64) *generator {
	g := &generator{
		rng:  rand.New(rand.NewSource(seed*7919 + int64(node))),
		node: node,
		algs: algs,
	}
	for _, a := range algs {
		o := a.New()
		g.objs = append(g.objs, o)
		g.states = append(g.states, o.Init())
	}
	for i := 0; i < 16; i++ {
		g.pool = append(g.pool, model.Str(fmt.Sprintf("e%d", i)))
	}
	return g
}

// blockOps is the size of the blocks operations are drawn in. Within each
// block the share of every object and of reads is exact and only the order
// is random, so two seeds differ in order, arguments and arrival times but
// not in the workload's mix.
const blockOps = 20

// block returns one block of (object, read) slots in random order.
func (g *generator) block(w *workload) (objs []int, reads []bool) {
	n := len(g.objs)
	counts := make([]int, n)
	rest, others := blockOps, n
	if w.hotShare > 0 {
		counts[w.hot] = int(math.Round(w.hotShare * blockOps))
		rest -= counts[w.hot]
		others--
	}
	k := 0
	for i := range counts {
		if w.hotShare > 0 && i == w.hot {
			continue
		}
		counts[i] = rest / others
		if k < rest%others {
			counts[i]++
		}
		k++
	}
	for i, c := range counts {
		for ; c > 0; c-- {
			objs = append(objs, i)
		}
	}
	reads = make([]bool, blockOps)
	for i := 0; i < int(math.Round(w.readShare*blockOps)); i++ {
		reads[i] = true
	}
	g.rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
	g.rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	return objs, reads
}

// ops draws n operations. An update is resampled until its generator yields
// an effectful operation whose precondition holds at the model replica.
func (g *generator) ops(w *workload, n int) ([]plannedOp, error) {
	out := make([]plannedOp, 0, n)
	fresh := func() model.Value {
		g.fresh++
		return model.Str(fmt.Sprintf("n%d.%d", g.node, g.fresh))
	}
	var objs []int
	var reads []bool
	for len(out) < n {
		if len(objs) == 0 {
			objs, reads = g.block(w)
		}
		i, read := objs[0], reads[0]
		objs, reads = objs[1:], reads[1:]
		if read {
			out = append(out, plannedOp{obj: i, op: model.Op{Name: spec.OpRead}})
			continue
		}
		var op model.Op
		for attempt := 0; ; attempt++ {
			if attempt == 1000 {
				return nil, fmt.Errorf("generator for %s cannot produce an update", g.algs[i].Name)
			}
			op = g.algs[i].GenOp(g.rng, g.states[i], g.algs[i].Abs, g.pool, fresh)
			g.mid++
			_, eff, err := g.objs[i].Prepare(op, g.states[i], model.NodeID(g.node), g.mid)
			if errors.Is(err, crdt.ErrAssume) || (err == nil && crdt.IsIdentity(eff)) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("generator for %s: %w", g.algs[i].Name, err)
			}
			g.states[i] = eff.Apply(g.states[i])
			break
		}
		out = append(out, plannedOp{obj: i, op: op})
	}
	return out, nil
}
