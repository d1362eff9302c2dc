package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/transport"
)

// sendSide is the view of a stream a Node sends through: every interface
// the Peer layer looks for on its transport. *transport.Stream implements
// it; the tracer and the tests wrap it.
type sendSide interface {
	transport.Transport
	transport.Flusher
	transport.Unicaster
	transport.StatsReporter
	transport.PeerLister
}

// base anchors clock; every timestamp of a run is nanoseconds since it.
var base = time.Now()

func clock() int64 { return int64(time.Since(base)) }

// errStalled fails a round in which replication stops making progress.
var errStalled = errors.New("replication stalled")

// config is one run's fixed settings.
type config struct {
	w       *workload
	seed    int64
	sockDir string
	// stall fails a round after this long without progress.
	stall time.Duration
	// warmup is how long rounds run, gated but not measured, before timing
	// starts; 0 skips the warm-up.
	warmup time.Duration
	// wrapSend, when set, wraps each node's send side (fault injection in
	// tests).
	wrapSend func(node int, s sendSide) sendSide
}

// flow records the effectful operations one origin node issued on one
// object: when each started (the invoke start, or the due time in the open
// loop) and when the other node had applied it.
type flow struct {
	start   []int64
	applied []int64
	// seen is the other node's applied count observed so far; only the
	// receive shard the object is pinned to touches it.
	seen int
	// live is the index of the first operation whose replicate latency is
	// sampled: catch-up workloads skip the ones the snapshot carried.
	live int
}

type benchNode struct {
	st    *transport.Stream
	node  *transport.Node
	peers []*transport.Peer
	rcv   *transport.Receiver
	// remoteApplied counts effectors of the other node applied here.
	remoteApplied atomic.Int64
	// invoked counts operations this node's load goroutine has run.
	invoked atomic.Int64
	// held counts effector frames the peer held back instead of applying.
	held atomic.Int64
	// issued counts this node's effectful operations; issuedPer splits it
	// by object and belongs to the load goroutine.
	issued    atomic.Int64
	issuedPer []int
}

// roundResult is what one round measured.
type roundResult struct {
	traced     bool
	setup      float64 // s
	catchup    float64 // s, catch-up workloads only
	ops        int     // live-phase operations, reads included
	effectful  int     // live-phase effectful operations
	issued     int     // effectful operations of the whole round
	rejected   int
	wall       float64 // s, load start to last apply
	cpu        float64 // s of process CPU over the same interval
	alloc      uint64  // bytes allocated over the same interval
	wire       int     // bytes sent over the same interval
	stats      [2]transport.Stats
	recv       [2]transport.RecvStats
	snap       [2][]transport.SnapStats
	stateBytes int
	held       int
	// replicate and invoke are the round's latency percentiles (untraced
	// rounds only).
	replicate, invoke percentiles
}

// mesh is one round's two-node replication mesh.
type mesh struct {
	cfg   *config
	in    *inputs
	algs  []registry.Algorithm
	man   transport.Manifest
	tr    *tracer
	round int
	nodes [2]*benchNode
	flows [2][]flow
	// wake[o] tells node o's load goroutine that effectors it issued were
	// applied; progress tells the main goroutine that a frame was handled.
	wake     [2]chan struct{}
	progress chan struct{}
	abort    chan struct{}

	loadStart int64
	invokeNs  [2][]int64
	late      [2][]int64
}

func newMesh(cfg *config, in *inputs, algs []registry.Algorithm, man transport.Manifest, tr *tracer, round int) *mesh {
	m := &mesh{
		cfg: cfg, in: in, algs: algs, man: man, tr: tr, round: round,
		progress: make(chan struct{}, 1),
		abort:    make(chan struct{}),
	}
	nobj := len(algs)
	for o := 0; o < 2; o++ {
		m.nodes[o] = &benchNode{issuedPer: make([]int, nobj)}
		m.wake[o] = make(chan struct{}, 1)
		m.flows[o] = make([]flow, nobj)
		per := make([]int, nobj)
		for _, p := range in.live[o] {
			per[p.obj]++
		}
		if o == 0 {
			for _, p := range in.solo {
				per[p.obj]++
			}
		}
		for i := range m.flows[o] {
			m.flows[o][i] = flow{start: make([]int64, per[i]), applied: make([]int64, per[i])}
		}
		m.invokeNs[o] = make([]int64, 0, len(in.live[o]))
		m.late[o] = make([]int64, 0, len(in.live[o]))
	}
	return m
}

func (m *mesh) sockPath(node int) string {
	return filepath.Join(m.cfg.sockDir, fmt.Sprintf("%d-%d-%d.sock", os.Getpid(), m.round, node))
}

func (m *mesh) addrs() []string {
	return []string{"unix:" + m.sockPath(0), "unix:" + m.sockPath(1)}
}

// listen opens node r's stream with the configuration every workload runs.
func (m *mesh) listen(r int, extra ...transport.StreamOption) (*transport.Stream, error) {
	opts := []transport.StreamOption{
		transport.WithBatching(transport.BatchPolicy{MaxFrames: batchFrames, MaxDelay: batchDelay}),
		transport.WithScheduler(transport.SchedPolicy{DefaultWeight: 1}),
		transport.WithReceiver(transport.RecvPolicy{Workers: recvWorkers}),
		transport.WithManifest(m.man),
	}
	st, err := transport.Listen(model.NodeID(r), m.addrs(), append(opts, extra...)...)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", r, err)
	}
	return st, nil
}

// attach registers node r's replicas over st and starts its receiver on
// the unwrapped stream, so the pooled zero-copy receive path is the one
// measured.
func (m *mesh) attach(r int, st *transport.Stream) error {
	nd := m.nodes[r]
	nd.st = st
	var send sendSide = st
	if m.cfg.wrapSend != nil {
		send = m.cfg.wrapSend(r, send)
	}
	if m.tr != nil {
		send = m.tr.send(r, send)
	}
	n, err := transport.NewNode(send, m.man)
	if err != nil {
		return err
	}
	nd.node = n
	w := m.cfg.w
	for i, a := range m.algs {
		var obj crdt.Object = a.New()
		dec, decState := a.DecodeEffector, a.DecodeState
		if m.tr != nil {
			obj = m.tr.object(r, i, obj)
			dec = m.tr.decoder(r, i, dec)
			decState = m.tr.stateDecoder(r, i, decState)
		}
		var popts []transport.PeerOption
		if w.solo > 0 {
			if r == 0 {
				popts = append(popts, transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: w.snapEvery}))
			} else {
				popts = append(popts, transport.WithCatchUp(decState))
			}
		}
		p, err := n.Register(transport.ObjID(i+1), obj, dec, a.NeedsCausal, popts...)
		if err != nil {
			return err
		}
		nd.peers = append(nd.peers, p)
	}
	nd.rcv = transport.NewReceiver(st, transport.RecvPolicy{Workers: recvWorkers}, m.handler(r))
	return nil
}

// setupPair connects both nodes. The dialer (node 1) starts first and the
// listener (node 0) only once node 1's own socket is bound, so node 1's
// first dial always finds no listener and every round pays the same one
// dial retry.
func (m *mesh) setupPair() error {
	type res struct {
		st  *transport.Stream
		err error
	}
	ch1 := make(chan res, 1)
	go func() {
		st, err := m.listen(1)
		ch1 <- res{st, err}
	}()
	if err := waitForFile(m.sockPath(1), 5*time.Second); err != nil {
		r := <-ch1
		if r.st != nil {
			r.st.Close()
		}
		return err
	}
	// Node 1 dials immediately after binding; this margin makes sure that
	// dial has failed before node 0 binds.
	time.Sleep(2 * time.Millisecond)
	st0, err0 := m.listen(0)
	r1 := <-ch1
	if err0 != nil || r1.err != nil {
		if st0 != nil {
			st0.Close()
		}
		if r1.st != nil {
			r1.st.Close()
		}
		return errors.Join(err0, r1.err)
	}
	if err := m.attach(0, st0); err != nil {
		st0.Close()
		r1.st.Close()
		return err
	}
	if err := m.attach(1, r1.st); err != nil {
		r1.st.Close()
		return err
	}
	return nil
}

func waitForFile(path string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if _, err := os.Stat(path); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("socket %s never appeared", path)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// handler is node r's receive handler: it hands each frame to its object's
// replica and stamps every effector the replica applied as a result.
func (m *mesh) handler(r int) func(transport.Frame) error {
	nd := m.nodes[r]
	o := 1 - r
	return func(f transport.Frame) error {
		i := int(f.Obj) - 1
		if i < 0 || i >= len(nd.peers) {
			return fmt.Errorf("node %d: frame for unknown object %d", r, f.Obj)
		}
		p := nd.peers[i]
		var err error
		if m.tr != nil {
			err = m.tr.handle(r, i, p, f)
		} else {
			err = p.Handle(f)
		}
		if err != nil {
			return fmt.Errorf("node %d object %d: %w", r, f.Obj, err)
		}
		defer notify(m.progress)
		fl := &m.flows[o][i]
		a := p.Applied()
		if a == fl.seen {
			if f.Kind == transport.KindEffector {
				nd.held.Add(1)
			}
			return nil
		}
		if a > len(fl.applied) {
			return fmt.Errorf("node %d object %d applied %d effectors but node %d issued at most %d", r, f.Obj, a, o, len(fl.applied))
		}
		now := clock()
		delta := a - fl.seen
		for ; fl.seen < a; fl.seen++ {
			fl.applied[fl.seen] = now
		}
		nd.remoteApplied.Add(int64(delta))
		notify(m.wake[o])
		return nil
	}
}

func notify(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
