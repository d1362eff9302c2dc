package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/transport"
)

// testMeshAddrs builds an n-node unix address table in a fresh temp dir.
func testMeshAddrs(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("n%d.sock", i))
	}
	return addrs
}

// listenMesh brings up a full mesh of endpoints concurrently, failing the
// test on any Listen error. opts[i] configures endpoint i.
func listenMesh(t *testing.T, addrs []string, opts [][]transport.StreamOption) []*transport.Stream {
	t.Helper()
	ends := make([]*transport.Stream, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i := range addrs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[i], errs[i] = transport.Listen(model.NodeID(i), addrs, opts[i]...)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
	}
	return ends
}

// TestReceiverStreamOrderAndBalance runs the full zero-copy path over a unix
// pair: pooled container decode, multi-shard dispatch, per-object FIFO. The
// handler checks every payload byte at apply time — a recycled or corrupted
// pooled buffer cannot pass — and the per-object MID sequences must replay
// the broadcast order exactly.
func TestReceiverStreamOrderAndBalance(t *testing.T) {
	const (
		objs   = 8
		total  = 400
		shards = 4
	)
	addrs := testMeshAddrs(t, 2)
	var man transport.Manifest
	for o := 0; o < objs; o++ {
		man = append(man, transport.ObjectSpec{ID: transport.ObjID(o), Name: fmt.Sprintf("o%d", o), Kind: "bench"})
	}
	ends := listenMesh(t, addrs, [][]transport.StreamOption{
		{transport.WithManifest(man), transport.WithBatching(transport.BatchPolicy{MaxFrames: 8})},
		{transport.WithManifest(man), transport.WithReceiver(transport.RecvPolicy{Workers: shards, QueueFrames: 16})},
	})
	defer ends[0].Close()
	defer ends[1].Close()

	var mu sync.Mutex
	seq := make(map[transport.ObjID][]model.MsgID)
	r := transport.NewReceiver(ends[1], transport.RecvPolicy{Workers: shards, QueueFrames: 16}, func(f transport.Frame) error {
		for _, b := range f.Payload {
			if b != byte(f.MID) {
				return fmt.Errorf("frame %d: payload byte %d, want %d", f.MID, b, byte(f.MID))
			}
		}
		mu.Lock()
		seq[f.Obj] = append(seq[f.Obj], f.MID)
		mu.Unlock()
		return nil
	})
	// The pipeline owns the receive side: a stray Recv, or a second
	// Receiver, must refuse loudly.
	if _, _, err := ends[1].Recv(false); err == nil || !strings.Contains(err.Error(), "pipeline") {
		t.Fatalf("Recv on a pipelined endpoint: err = %v, want pipeline refusal", err)
	}
	second := transport.NewReceiver(ends[1], transport.RecvPolicy{}, func(transport.Frame) error { return nil })
	<-second.Done()
	if err := second.Err(); err == nil || !strings.Contains(err.Error(), "already owned") {
		t.Fatalf("second Receiver on one stream: err = %v, want ownership refusal", err)
	}

	for i := 0; i < total; i++ {
		mid := model.MsgID(i + 1)
		body := bytes.Repeat([]byte{byte(mid)}, 64)
		f := transport.Frame{Kind: transport.KindEffector, Obj: transport.ObjID(i % objs), MID: mid, From: 0, Payload: body}
		if err := ends[0].Broadcast(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := ends[0].Flush(); err != nil {
		t.Fatal(err)
	}
	ends[0].Close() // clean hangup: the pipeline drains and reports done

	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not drain after the sender hung up")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if !st.Exhausted {
		t.Error("pipeline drained but not marked exhausted")
	}
	if err := st.Balance(ends[1].Stats().TotalRecv().Frames); err != nil {
		t.Fatal(err)
	}
	if got := st.TotalApplied(); got != total {
		t.Fatalf("applied %d frames, want %d", got, total)
	}
	// Per-object FIFO: each object's MIDs in broadcast order, every frame
	// pinned to the same shard as its object mates.
	got := 0
	for o := transport.ObjID(0); o < objs; o++ {
		mids := seq[o]
		got += len(mids)
		for i := 1; i < len(mids); i++ {
			if mids[i] <= mids[i-1] {
				t.Fatalf("object %d: MID %d delivered after %d — per-object order broken", o, mids[i], mids[i-1])
			}
		}
	}
	if got != total {
		t.Fatalf("handlers saw %d frames, want %d", got, total)
	}
	for i, sh := range st.Shards {
		if sh.MaxQueue > 16+1 {
			t.Errorf("shard %d: max queue depth %d exceeds the %d-frame bound", i, sh.MaxQueue, 16+1)
		}
	}
}

// TestReceiverBackpressureStream pins the backpressure contract on sockets: a
// slow-apply object must stall the reader — bounded queue depth, no drop, no
// reorder — while a fast object on another shard keeps applying and finishes
// long before the slow one.
func TestReceiverBackpressureStream(t *testing.T) {
	const (
		perObj = 60
		queue  = 4
	)
	addrs := testMeshAddrs(t, 2)
	man := transport.Manifest{
		{ID: 0, Name: "slow", Kind: "bench"},
		{ID: 1, Name: "fast", Kind: "bench"},
	}
	ends := listenMesh(t, addrs, [][]transport.StreamOption{
		{transport.WithManifest(man)},
		{transport.WithManifest(man), transport.WithReceiver(transport.RecvPolicy{Workers: 2, QueueFrames: queue})},
	})
	defer ends[0].Close()
	defer ends[1].Close()

	var mu sync.Mutex
	seq := make(map[transport.ObjID][]model.MsgID)
	var slowDone, fastDone time.Time
	r := transport.NewReceiver(ends[1], transport.RecvPolicy{Workers: 2, QueueFrames: queue}, func(f transport.Frame) error {
		if f.Obj == 0 {
			time.Sleep(2 * time.Millisecond) // the slow apply
		}
		mu.Lock()
		seq[f.Obj] = append(seq[f.Obj], f.MID)
		if len(seq[f.Obj]) == perObj {
			if f.Obj == 0 {
				slowDone = time.Now()
			} else {
				fastDone = time.Now()
			}
		}
		mu.Unlock()
		return nil
	})

	for i := 0; i < perObj; i++ {
		for o := transport.ObjID(0); o < 2; o++ {
			f := transport.Frame{
				Kind: transport.KindEffector, Obj: o,
				MID: model.MsgID(i*2 + int(o) + 1), From: 0,
				Payload: []byte{byte(i)},
			}
			if err := ends[0].Broadcast(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	ends[0].Close()
	select {
	case <-r.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("pipeline did not drain")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if err := st.Balance(ends[1].Stats().TotalRecv().Frames); err != nil {
		t.Fatal(err)
	}
	for o := transport.ObjID(0); o < 2; o++ {
		mids := seq[o]
		if len(mids) != perObj {
			t.Fatalf("object %d: applied %d frames, want %d — frames dropped", o, len(mids), perObj)
		}
		for i := 1; i < len(mids); i++ {
			if mids[i] <= mids[i-1] {
				t.Fatalf("object %d: MID %d after %d — reordered under backpressure", o, mids[i], mids[i-1])
			}
		}
	}
	// Bounded memory: with 60 frames outstanding against a 4-frame queue, the
	// high-water mark proves the dispatcher stalled instead of buffering.
	for i, sh := range st.Shards {
		if sh.MaxQueue > queue+1 {
			t.Errorf("shard %d: max queue depth %d exceeds the bound %d — backpressure leaked", i, sh.MaxQueue, queue+1)
		}
	}
	if !fastDone.Before(slowDone) {
		t.Error("fast object did not finish before the slow one — shards not applying independently")
	}
}

// TestNodePipelineMeshConverges is the replica-layer integration: three OS
// sockets-mesh nodes replicate four mixed-kind objects with the receive
// pipeline applying concurrently against live Invokes on the owning
// goroutine, and every node must still quiesce to byte-identical per-object
// states with balanced pipeline ledgers.
func TestNodePipelineMeshConverges(t *testing.T) {
	const nodes = 3
	man := multiplexManifest()
	addrs := testMeshAddrs(t, nodes)
	opts := make([][]transport.StreamOption, nodes)
	for i := range opts {
		opts[i] = []transport.StreamOption{
			transport.WithRecvTimeout(5 * time.Second),
			transport.WithManifest(man),
			transport.WithBatching(transport.BatchPolicy{MaxFrames: 4}),
			transport.WithReceiver(transport.RecvPolicy{Workers: 3, QueueFrames: 8}),
		}
	}
	ends := listenMesh(t, addrs, opts)
	ns := make([]*transport.Node, nodes)
	for i := 0; i < nodes; i++ {
		n, err := transport.NewNode(ends[i], man)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		for _, spec := range man {
			alg := algFor(t, spec.Kind)
			if _, err := n.Register(spec.ID, alg.New(), alg.DecodeEffector, alg.NeedsCausal); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.StartReceiver(); err != nil {
			t.Fatal(err)
		}
		ns[i] = n
	}

	// The pipeline owns the receive side now.
	if _, err := ns[0].Step(false); err == nil || !strings.Contains(err.Error(), "pipeline") {
		t.Fatalf("Step on a pipelined node: err = %v, want pipeline refusal", err)
	}
	if _, err := ns[0].StartReceiver(); err == nil {
		t.Fatal("second StartReceiver did not refuse")
	}
	if _, err := ns[0].Register(1, algFor(t, "counter").New(), algFor(t, "counter").DecodeEffector, false); err == nil {
		t.Fatal("Register after StartReceiver did not refuse")
	}

	// Each node invokes its share of every object's script while the shard
	// workers apply inbound frames concurrently — the contended path -race
	// must hold the line on.
	var wg sync.WaitGroup
	invokeErrs := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for oi, spec := range man {
				alg := algFor(t, spec.Kind)
				script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), nodes, 8, int64(300+oi), alg.NeedsCausal)
				for _, sop := range script {
					if sop.Node != model.NodeID(i) {
						continue
					}
					p, _ := ns[i].Peer(spec.ID)
					if _, err := p.Invoke(sop.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
						invokeErrs <- fmt.Errorf("node %d obj %d: %w", i, spec.ID, err)
						return
					}
				}
			}
			for _, id := range ns[i].Objects() {
				p, _ := ns[i].Peer(id)
				if err := p.Done(); err != nil {
					invokeErrs <- fmt.Errorf("node %d done %d: %w", i, id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(invokeErrs)
	for err := range invokeErrs {
		t.Fatal(err)
	}
	for i, n := range ns {
		if err := n.RunToQuiescence(15 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for _, spec := range man {
		p0, _ := ns[0].Peer(spec.ID)
		want := p0.CanonicalState()
		for i := 1; i < nodes; i++ {
			p, _ := ns[i].Peer(spec.ID)
			if got := p.CanonicalState(); !bytes.Equal(got, want) {
				t.Errorf("object %d (%s): node %d state % x != node 0 state % x", spec.ID, spec.Kind, i, got, want)
			}
		}
	}
	// Pipeline ledgers balance against the wire totals at quiescence: every
	// received frame dispatched to exactly one shard and applied.
	for i, n := range ns {
		st := n.Receiver().Stats()
		wire := n.Transport().(transport.StatsReporter).Stats()
		if err := st.Balance(wire.TotalRecv().Frames); err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// TestReceiverWithoutReceiverOption pins that the pipeline needs no
// WithReceiver: over a Stream built with no options, NewReceiver applies
// every frame, its ledger balances against the wire, and Done closes once
// the stream is closed.
func TestReceiverWithoutReceiverOption(t *testing.T) {
	const total = 50
	addrs := testMeshAddrs(t, 2)
	ends := listenMesh(t, addrs, [][]transport.StreamOption{nil, nil})
	defer ends[0].Close()
	defer ends[1].Close()
	var applied atomic.Int64
	all := make(chan struct{})
	r := transport.NewReceiver(ends[1], transport.RecvPolicy{}, func(f transport.Frame) error {
		if applied.Add(1) == total {
			close(all)
		}
		return nil
	})
	for i := 0; i < total; i++ {
		f := transport.Frame{Kind: transport.KindEffector, MID: model.MsgID(i + 1), From: 0, Payload: []byte{byte(i)}}
		if err := ends[0].Broadcast(f); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("pipeline applied %d/%d frames before the deadline", applied.Load(), total)
	}
	ends[1].Close()
	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Done did not close after Close")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if err := r.Stats().Balance(ends[1].Stats().TotalRecv().Frames); err != nil {
		t.Fatal(err)
	}
}

// TestStartReceiverRefusesMem pins that the in-memory network has no
// receive pipeline: StartReceiver on a Node over Mem refuses, and
// NewReceiver over a Mem endpoint stops at once, both with ErrNotStream.
func TestStartReceiverRefusesMem(t *testing.T) {
	m := transport.NewMem(2)
	n, err := transport.NewNode(m.Endpoint(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	alg := algFor(t, "counter")
	if _, err := n.Register(0, alg.New(), alg.DecodeEffector, alg.NeedsCausal); err != nil {
		t.Fatal(err)
	}
	if _, err := n.StartReceiver(); !errors.Is(err, transport.ErrNotStream) {
		t.Fatalf("StartReceiver over Mem: err = %v, want ErrNotStream", err)
	}
	if n.Receiver() != nil {
		t.Fatal("Receiver() non-nil after a refused StartReceiver")
	}
	r := transport.NewReceiver(m.Endpoint(1), transport.RecvPolicy{Workers: 4}, func(transport.Frame) error { return nil })
	select {
	case <-r.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("NewReceiver over Mem did not stop")
	}
	if err := r.Err(); !errors.Is(err, transport.ErrNotStream) {
		t.Fatalf("NewReceiver over Mem: err = %v, want ErrNotStream", err)
	}
}

// TestStreamExhaustionSentinel pins the sentinel: once every peer hangs up
// with the queue drained, Recv reports ErrExhausted (same message text the
// pre-pipeline error carried).
func TestStreamExhaustionSentinel(t *testing.T) {
	addrs := testMeshAddrs(t, 2)
	ends := listenMesh(t, addrs, [][]transport.StreamOption{
		{transport.WithRecvTimeout(5 * time.Second)},
		{transport.WithRecvTimeout(5 * time.Second)},
	})
	defer ends[1].Close()
	ends[0].Close()
	for {
		_, ok, err := ends[1].Recv(true)
		if err != nil {
			if !errors.Is(err, transport.ErrExhausted) {
				t.Fatalf("err = %v, want ErrExhausted", err)
			}
			if !strings.Contains(err.Error(), "every peer hung up with the frame queue drained") {
				t.Fatalf("exhaustion message changed: %v", err)
			}
			return
		}
		if !ok {
			t.Fatal("Recv reported no frame without an error")
		}
	}
}
