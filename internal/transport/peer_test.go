package transport_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/crdt"
	"repro/internal/crdts/registry"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/transport"
)

// runPeersOverMem replicates one generated script across n Peer replicas on
// a shared deterministic Mem: each peer invokes its own node's operations
// (interleaved with receive steps so visibility varies), announces Done, and
// pumps to quiescence. Returns the peers for assertions.
func runPeersOverMem(t *testing.T, alg registry.Algorithm, n, ops int, seed int64) []*transport.Peer {
	t.Helper()
	m := transport.NewMem(n)
	peers := make([]*transport.Peer, n)
	for i := range peers {
		peers[i] = transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(model.NodeID(i)), alg.NeedsCausal)
	}
	script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), n, ops, seed, alg.NeedsCausal)
	sched := rand.New(rand.NewSource(seed))
	for _, so := range script {
		p := peers[so.Node]
		if _, err := p.Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
			t.Fatalf("invoke %v at %s: %v", so.Op, so.Node, err)
		}
		// Let a random peer make some receive progress, so interleavings vary
		// with the seed.
		for k := sched.Intn(3); k > 0; k-- {
			if _, err := peers[sched.Intn(n)].Step(false); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
	}
	for _, p := range peers {
		if err := p.Done(); err != nil {
			t.Fatalf("done: %v", err)
		}
	}
	for i, p := range peers {
		if err := p.RunToQuiescence(5 * time.Second); err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	return peers
}

// TestPeerConvergesAllAlgorithms replicates every registered algorithm over
// the deterministic Mem transport: after quiescence all peers must hold
// byte-identical canonical states — the same frames, decoders and dedup
// rules the socket transport ships between OS processes.
func TestPeerConvergesAllAlgorithms(t *testing.T) {
	for _, alg := range append(registry.All(), registry.Extensions()...) {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				peers := runPeersOverMem(t, alg, 3, 12, seed)
				ref := peers[0].CanonicalState()
				for i, p := range peers[1:] {
					if !bytes.Equal(p.CanonicalState(), ref) {
						t.Fatalf("seed %d: peer %d's canonical state differs from peer 0's", seed, i+1)
					}
				}
				if _, ok := crdtConverged(alg, peers); !ok {
					t.Fatalf("seed %d: abstract states diverged", seed)
				}
			}
		})
	}
}

func crdtConverged(alg registry.Algorithm, peers []*transport.Peer) (model.Value, bool) {
	ref := alg.Abs(peers[0].State())
	for _, p := range peers[1:] {
		if !alg.Abs(p.State()).Equal(ref) {
			return model.Nil(), false
		}
	}
	return ref, true
}

// TestPeerCausalHoldBack hand-delivers causally ordered frames out of order:
// a causal peer must hold the dependent frame back until its dependency
// arrives, then apply both — converging to the origin's state — while the
// delivery remains at-most-once.
func TestPeerCausalHoldBack(t *testing.T) {
	alg, ok := registry.ByName("aw-set")
	if !ok {
		t.Fatal("aw-set not registered")
	}
	m := transport.NewMem(2)
	origin := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), true)
	if _, err := origin.Invoke(model.Op{Name: spec.OpAdd, Arg: model.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := origin.Invoke(model.Op{Name: spec.OpRemove, Arg: model.Int(7)}); err != nil {
		t.Fatal(err)
	}
	// Collect the two frames queued for node 1: the remove causally depends
	// on the add.
	var frames []transport.Frame
	ep := m.Endpoint(1)
	for {
		f, ok, err := ep.Recv(false)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	if len(frames) != 2 {
		t.Fatalf("queued %d frames, want 2", len(frames))
	}
	add, rmv := frames[0], frames[1]
	if len(rmv.Deps) == 0 {
		t.Fatalf("remove frame carries no causal deps: %+v", rmv)
	}
	follower := transport.NewPeer(alg.New(), alg.DecodeEffector, transport.NewMem(2).Endpoint(1), true)
	if err := follower.Handle(rmv); err != nil {
		t.Fatalf("handle out-of-order remove: %v", err)
	}
	if follower.Applied() != 0 {
		t.Fatal("dependent frame applied before its dependency")
	}
	if err := follower.Handle(add); err != nil {
		t.Fatalf("handle add: %v", err)
	}
	if follower.Applied() != 2 {
		t.Fatalf("applied %d frames after dependency arrived, want 2", follower.Applied())
	}
	// Duplicates of both frames are suppressed.
	if err := follower.Handle(add); err != nil {
		t.Fatal(err)
	}
	if err := follower.Handle(rmv); err != nil {
		t.Fatal(err)
	}
	if follower.Applied() != 2 {
		t.Fatalf("duplicate delivery reapplied: applied=%d", follower.Applied())
	}
	if !bytes.Equal(follower.CanonicalState(), origin.CanonicalState()) {
		t.Fatal("follower did not converge to the origin state")
	}
}

// captureNet is a Transport stand-in that collects every broadcast instead of
// delivering it, so a test hands frames to Peer.Handle in whatever order it
// chooses.
type captureNet struct {
	n      int
	frames []transport.Frame
}

type captureEnd struct {
	net  *captureNet
	self model.NodeID
}

func (c *captureNet) endpoint(id int) transport.Transport {
	return captureEnd{net: c, self: model.NodeID(id)}
}

func (e captureEnd) Self() model.NodeID { return e.self }
func (e captureEnd) N() int             { return e.net.n }
func (e captureEnd) Close() error       { return nil }

func (e captureEnd) Broadcast(f transport.Frame) error {
	e.net.frames = append(e.net.frames, f)
	return nil
}

func (e captureEnd) Recv(bool) (transport.Frame, bool, error) {
	return transport.Frame{}, false, nil
}

// midTagged wraps an algorithm so every broadcast effector's encoding starts
// with the mid that issued it. The algorithms' own encodings need not be
// unique per frame (two aw-set removes of an absent element encode alike);
// the prefix lets a recording decoder tell which frame a replica applies.
type midTagged struct{ crdt.Object }

func (o midTagged) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	ret, eff, err := o.Object.Prepare(op, s, origin, mid)
	if err != nil || crdt.IsIdentity(eff) {
		return ret, eff, err
	}
	return ret, taggedEff{mid: mid, Effector: eff}, nil
}

type taggedEff struct {
	mid model.MsgID
	crdt.Effector
}

func (e taggedEff) AppendBinary(b []byte) []byte {
	return e.Effector.AppendBinary(codec.AppendUvarint(b, uint64(e.mid)))
}

// recordingDecoder decodes midTagged effectors and appends each one's mid to
// *order. A peer decodes an effector right before applying it — its own at
// Invoke, a remote one at delivery — so *order is the replica's apply order.
func recordingDecoder(dec crdt.EffectorDecoder, order *[]model.MsgID) crdt.EffectorDecoder {
	return func(b []byte) (crdt.Effector, error) {
		mid, rest, err := codec.DecodeUvarint(b)
		if err != nil {
			return nil, err
		}
		*order = append(*order, model.MsgID(mid))
		return dec(rest)
	}
}

// TestPeerTransitiveHoldBack checks that a frame listing only its immediate
// predecessor is still held back until everything before that predecessor
// has applied: node 1 applies a from node 0, then issues b and c, and c lists
// b alone. Node 2, handed c, then b, then a, must apply a, b, c in that order.
func TestPeerTransitiveHoldBack(t *testing.T) {
	alg, ok := registry.ByName("aw-set")
	if !ok {
		t.Fatal("aw-set not registered")
	}
	net := &captureNet{n: 3}
	var order0, order1, order2 []model.MsgID
	p0 := transport.NewPeer(midTagged{alg.New()}, recordingDecoder(alg.DecodeEffector, &order0), net.endpoint(0), true)
	p1 := transport.NewPeer(midTagged{alg.New()}, recordingDecoder(alg.DecodeEffector, &order1), net.endpoint(1), true)
	if _, err := p0.Invoke(model.Op{Name: spec.OpAdd, Arg: model.Int(7)}); err != nil {
		t.Fatal(err)
	}
	a := net.frames[0]
	if err := p1.Handle(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Invoke(model.Op{Name: spec.OpRemove, Arg: model.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Invoke(model.Op{Name: spec.OpAdd, Arg: model.Int(8)}); err != nil {
		t.Fatal(err)
	}
	if len(net.frames) != 3 {
		t.Fatalf("captured %d frames, want 3", len(net.frames))
	}
	b, c := net.frames[1], net.frames[2]
	if !reflect.DeepEqual(b.Deps, []model.MsgID{a.MID}) || !reflect.DeepEqual(c.Deps, []model.MsgID{b.MID}) {
		t.Fatalf("deps are not the immediate predecessors: b lists %v (want [%s]), c lists %v (want [%s])", b.Deps, a.MID, c.Deps, b.MID)
	}
	p2 := transport.NewPeer(midTagged{alg.New()}, recordingDecoder(alg.DecodeEffector, &order2), net.endpoint(2), true)
	for i, f := range []transport.Frame{c, b} {
		if err := p2.Handle(f); err != nil {
			t.Fatal(err)
		}
		if p2.Applied() != 0 {
			t.Fatalf("frame %d of c, b applied before a arrived", i)
		}
	}
	if err := p2.Handle(a); err != nil {
		t.Fatal(err)
	}
	if want := []model.MsgID{a.MID, b.MID, c.MID}; !reflect.DeepEqual(order2, want) {
		t.Fatalf("node 2 applied %v, want %v", order2, want)
	}
	if !bytes.Equal(p2.CanonicalState(), p1.CanonicalState()) {
		t.Fatal("node 2 did not converge to node 1's state")
	}
}

// TestPeerCausalRandomOrder is the causal-delivery property under delta
// deps: three causal peers issue a generated script while frames reach each
// receiver's Handle in a seeded random permutation. At every receiver, each
// frame must apply only after every mid its origin had applied when it
// issued that frame — the set the test records at the origin, not one
// rebuilt from the wire deps.
func TestPeerCausalRandomOrder(t *testing.T) {
	const n = 3
	for _, name := range []string{"aw-set", "rw-set"} {
		alg, ok := registry.ByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				net := &captureNet{n: n}
				order := make([][]model.MsgID, n)
				peers := make([]*transport.Peer, n)
				for i := range peers {
					peers[i] = transport.NewPeer(midTagged{alg.New()}, recordingDecoder(alg.DecodeEffector, &order[i]), net.endpoint(i), true)
				}
				rng := rand.New(rand.NewSource(seed))
				pending := make([][]transport.Frame, n)
				deliver := func(to int) {
					k := rng.Intn(len(pending[to]))
					f := pending[to][k]
					pending[to][k] = pending[to][len(pending[to])-1]
					pending[to] = pending[to][:len(pending[to])-1]
					if err := peers[to].Handle(f); err != nil {
						t.Fatalf("seed %d: node %d handling %s: %v", seed, to, f.MID, err)
					}
				}
				vis := map[model.MsgID]map[model.MsgID]bool{}
				script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), n, 18, seed, true)
				for _, so := range script {
					for k := rng.Intn(4); k > 0; k-- {
						if to := rng.Intn(n); len(pending[to]) > 0 {
							deliver(to)
						}
					}
					o := int(so.Node)
					atIssue := len(order[o])
					sent := len(net.frames)
					if _, err := peers[o].Invoke(so.Op); err != nil && !errors.Is(err, crdt.ErrAssume) {
						t.Fatalf("seed %d: invoke %v at %s: %v", seed, so.Op, so.Node, err)
					}
					for _, f := range net.frames[sent:] {
						set := map[model.MsgID]bool{}
						for _, mid := range order[o][:atIssue] {
							set[mid] = true
						}
						vis[f.MID] = set
						for q := range pending {
							if q != o {
								pending[q] = append(pending[q], f)
							}
						}
					}
				}
				for to := range pending {
					for len(pending[to]) > 0 {
						deliver(to)
					}
				}
				for r, seq := range order {
					if len(seq) != len(net.frames) {
						t.Fatalf("seed %d: node %d applied %d of %d frames", seed, r, len(seq), len(net.frames))
					}
					done := map[model.MsgID]bool{}
					for _, mid := range seq {
						for d := range vis[mid] {
							if !done[d] {
								t.Fatalf("seed %d: node %d applied %s before %s, which its origin had applied at issue", seed, r, mid, d)
							}
						}
						done[mid] = true
					}
				}
				for i, p := range peers[1:] {
					if !bytes.Equal(p.CanonicalState(), peers[0].CanonicalState()) {
						t.Fatalf("seed %d: node %d diverged from node 0", seed, i+1)
					}
				}
			}
		})
	}
}

// TestPeerDepsStaySmall checks that effector frames list their immediate
// predecessors, not the applied set: a lone writer's frames list at most its
// own previous mid, and two writers that see each other's frames between
// their operations list only a couple of mids per frame.
func TestPeerDepsStaySmall(t *testing.T) {
	alg, ok := registry.ByName("aw-set")
	if !ok {
		t.Fatal("aw-set not registered")
	}
	add := func(i int) model.Op { return model.Op{Name: spec.OpAdd, Arg: model.Int(int64(i))} }

	net := &captureNet{n: 3}
	solo := transport.NewPeer(alg.New(), alg.DecodeEffector, net.endpoint(0), true)
	for i := 0; i < 40; i++ {
		if _, err := solo.Invoke(add(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range net.frames {
		if len(f.Deps) > 1 {
			t.Fatalf("a lone writer's frame %s lists %d deps: %v", f.MID, len(f.Deps), f.Deps)
		}
	}

	net = &captureNet{n: 3}
	writers := []*transport.Peer{
		transport.NewPeer(alg.New(), alg.DecodeEffector, net.endpoint(0), true),
		transport.NewPeer(alg.New(), alg.DecodeEffector, net.endpoint(1), true),
	}
	seen := make([]int, len(writers))
	for i := 0; i < 40; i++ {
		w := i % 2
		// Hand the writer the other's frames it has not seen yet.
		for _, f := range net.frames[seen[w]:] {
			if int(f.From) != w {
				if err := writers[w].Handle(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		seen[w] = len(net.frames)
		if _, err := writers[w].Invoke(add(i)); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, f := range net.frames {
		total += len(f.Deps)
	}
	if mean := float64(total) / float64(len(net.frames)); mean >= 4 {
		t.Fatalf("two interleaved writers list %.2f deps per frame on average, want < 4", mean)
	}
}

// TestPeerLateJoinerLogTruncates checks that a late joiner's compaction
// frontier advances while the mesh is still running. Frames list only the
// mids applied since their sender's previous frame, so the joiner — which
// never saw the frames sent before it connected — learns the rest of each
// peer's applied set from that peer's first effector frame after the
// snapshot request. Its retained log must truncate before anyone sends Done.
func TestPeerLateJoinerLogTruncates(t *testing.T) {
	for _, name := range []string{"counter", "aw-set"} {
		alg, ok := registry.ByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		t.Run(name, func(t *testing.T) {
			const n = 3
			pol := transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: 4})
			m := transport.NewMem(n)
			early := []*transport.Peer{
				transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), alg.NeedsCausal, pol),
				transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(1), alg.NeedsCausal, pol),
			}
			script := sim.GenScript(alg.New(), alg.Abs, sim.GenFunc(alg.GenOp), n, 36, 7, alg.NeedsCausal)
			invoke := func(p *transport.Peer, op model.Op) {
				if _, err := p.Invoke(op); err != nil && !errors.Is(err, crdt.ErrAssume) {
					t.Fatalf("invoke %v: %v", op, err)
				}
			}
			for _, so := range script[:18] {
				invoke(early[int(so.Node)%2], so.Op)
				pumpDrain(t, early...)
			}
			// Node 2 was not connected while that ran: drop what was queued
			// for it, as a socket mesh never sends it those frames.
			m.Clear(2)
			joiner := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(2), alg.NeedsCausal,
				pol, transport.WithCatchUp(alg.DecodeState))
			if err := joiner.CatchUp(); err != nil {
				t.Fatal(err)
			}
			pumpDrain(t, early...)
			if err := joiner.AwaitCatchUp(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			all := append(early, joiner)
			for _, so := range script[18:] {
				invoke(all[so.Node], so.Op)
				pumpDrain(t, all...)
			}
			st := joiner.SnapshotStats()
			if !st.Installed || st.InstallSuffix == 0 {
				t.Fatalf("joiner did not install a snapshot with a suffix: %+v", st)
			}
			if st.LogTruncated < st.InstallSuffix {
				t.Fatalf("joiner truncated %d frames before any Done, fewer than the %d pre-join frames it installed: %+v",
					st.LogTruncated, st.InstallSuffix, st)
			}
			for _, p := range all {
				if err := p.Done(); err != nil {
					t.Fatal(err)
				}
			}
			for i, p := range all {
				if err := p.RunToQuiescence(5 * time.Second); err != nil {
					t.Fatalf("peer %d: %v", i, err)
				}
			}
			for i, p := range all[1:] {
				if !bytes.Equal(p.CanonicalState(), all[0].CanonicalState()) {
					t.Fatalf("peer %d diverged from peer 0", i+1)
				}
			}
		})
	}
}

// TestPeerSnapshotRequestRelistsAppliedSet checks the joiner's side of the
// acknowledgement rule: after a peer handles a snapshot request, its next
// effector frame lists its whole applied set, since the joiner never saw the
// frames that listed the rest.
func TestPeerSnapshotRequestRelistsAppliedSet(t *testing.T) {
	alg, ok := registry.ByName("aw-set")
	if !ok {
		t.Fatal("aw-set not registered")
	}
	net := &captureNet{n: 3}
	p0 := transport.NewPeer(alg.New(), alg.DecodeEffector, net.endpoint(0), true)
	p1 := transport.NewPeer(alg.New(), alg.DecodeEffector, net.endpoint(1), true)
	for i := 0; i < 3; i++ {
		if _, err := p0.Invoke(model.Op{Name: spec.OpAdd, Arg: model.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
		if err := p1.Handle(net.frames[len(net.frames)-1]); err != nil {
			t.Fatal(err)
		}
		if _, err := p1.Invoke(model.Op{Name: spec.OpRemove, Arg: model.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p1.Handle(transport.Frame{Kind: transport.KindSnapshotRequest, MID: 3, From: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Invoke(model.Op{Name: spec.OpAdd, Arg: model.Int(9)}); err != nil {
		t.Fatal(err)
	}
	var want []model.MsgID
	for _, f := range net.frames[:len(net.frames)-1] {
		want = append(want, f.MID)
	}
	slices.Sort(want)
	if got := net.frames[len(net.frames)-1].Deps; !reflect.DeepEqual(got, want) {
		t.Fatalf("first frame after the snapshot request lists %v, want the whole applied set %v", got, want)
	}
}

// TestPeerJoinerCheckpointStaysCausallyClosed pins the compaction rule that
// keeps a joiner's checkpoint a legal schedule while its acknowledgement
// sets are partial. Node 0 adds 7 (y) and then removes it (x). Node 1 applied
// y, listed it in a frame f that never reaches the joiner, and then lists x
// in a frame g that does. So the joiner holds acknowledgements for x from
// both peers but none for y from node 1. Folding x without y would apply the
// remove before its add. The snapshot the joiner serves must cover x only
// together with y.
func TestPeerJoinerCheckpointStaysCausallyClosed(t *testing.T) {
	alg, ok := registry.ByName("aw-set")
	if !ok {
		t.Fatal("aw-set not registered")
	}
	m := transport.NewMem(4)
	pol := transport.WithSnapshotPolicy(transport.SnapshotPolicy{Every: 1})
	s := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), true, pol)
	q := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(1), true, pol)
	step := func(p *transport.Peer) {
		if ok, err := p.Step(false); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	invoke := func(p *transport.Peer, op model.OpName, e int64) {
		if _, err := p.Invoke(model.Op{Name: op, Arg: model.Int(e)}); err != nil {
			t.Fatal(err)
		}
	}
	invoke(s, spec.OpAdd, 7) // y
	step(q)
	invoke(q, spec.OpAdd, 9)    // f, listing y; still in flight to s, dropped for the joiner
	invoke(s, spec.OpRemove, 7) // x, listing y
	// The joiner connects now; the observer at node 3 is never connected.
	m.Clear(2)
	m.Clear(3)
	step(q)                   // x
	invoke(q, spec.OpAdd, 10) // g, listing f and x but not y
	joiner := transport.NewPeer(alg.New(), alg.DecodeEffector,
		listedTransport{m.Endpoint(2), []model.NodeID{0, 1}}, true, pol, transport.WithCatchUp(alg.DecodeState))
	if err := joiner.CatchUp(); err != nil {
		t.Fatal(err)
	}
	step(s) // the request sorts first: s serves [y, x] without having seen f
	if err := joiner.AwaitCatchUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	step(joiner)                   // g, held back until f arrives
	invoke(joiner, spec.OpAdd, 11) // applies, so the joiner compacts
	if err := joiner.Handle(transport.Frame{Kind: transport.KindSnapshotRequest, MID: 4, From: 3}); err != nil {
		t.Fatal(err)
	}
	ep := m.Endpoint(3)
	for {
		f, ok, err := ep.Recv(false)
		if err != nil || !ok {
			t.Fatalf("no snapshot response from the joiner: ok=%v err=%v", ok, err)
		}
		if f.Kind != transport.KindSnapshot || f.From != 2 {
			continue
		}
		snap, err := transport.DecodeSnapshot(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		covered := map[model.MsgID]bool{}
		for _, mid := range snap.Covered {
			covered[mid] = true
		}
		// y and x are node 0's first two mids on a 4-node group.
		if covered[5] && !covered[1] {
			t.Fatalf("joiner's checkpoint covers the remove %v without the add it removes", snap.Covered)
		}
		return
	}
}

// TestPeerLamportMIDsDisjoint checks that two peers' request IDs never
// collide and that receiving bumps the sequence past observed IDs.
func TestPeerLamportMIDsDisjoint(t *testing.T) {
	alg, ok := registry.ByName("counter")
	if !ok {
		t.Fatal("counter not registered")
	}
	m := transport.NewMem(2)
	a := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(0), false)
	b := transport.NewPeer(alg.New(), alg.DecodeEffector, m.Endpoint(1), false)
	inc := model.Op{Name: spec.OpInc}
	for i := 0; i < 3; i++ {
		if _, err := a.Invoke(inc); err != nil {
			t.Fatal(err)
		}
	}
	// b receives a's three broadcasts, then invokes: its next mid must sort
	// after everything it has seen (Lamport order consistent with
	// happens-before).
	for i := 0; i < 3; i++ {
		if ok, err := b.Step(true); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	if _, err := b.Invoke(inc); err != nil {
		t.Fatal(err)
	}
	f, ok, err := m.Endpoint(0).Recv(true)
	if err != nil || !ok {
		t.Fatalf("recv b's broadcast: ok=%v err=%v", ok, err)
	}
	// a's mids on a 2-node group: 1, 3, 5. b observed up to 5, so its next is
	// 2·seq+2 with seq ≥ 3 → at least 8 > 5.
	if f.MID <= 5 {
		t.Fatalf("b's mid %s does not sort after the 3 broadcasts it observed", f.MID)
	}
}
