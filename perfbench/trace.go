package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/crdt"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/transport"
)

// The traced run times each layer from outside: it wraps the interfaces the
// layers are called through (crdt.Object, crdt.Effector, the effector and
// state decoders, the transport a Node sends through, and the receive
// handler) and records one span per call. A layer's self time is its span
// minus the child spans recorded inside it.

// spanKind names one recorded span or derived duration.
type spanKind int

const (
	kPrepare     spanKind = iota // crdt.Object.Prepare
	kEncode                      // crdt.Effector.AppendBinary
	kDecode                      // crdt.EffectorDecoder
	kApply                       // crdt.Effector.Apply (origin and remote)
	kInvokeSelf                  // Peer.Invoke of an update, minus its children
	kHandleSelf                  // Peer.Handle of an effector frame, minus its children
	kReadInvoke                  // Peer.Invoke of a read, whole
	kBroadcast                   // Transport.Broadcast
	kFlush                       // Flusher.Flush
	kServe                       // Peer.Handle of a snapshot request
	kInstall                     // Peer.Handle of a snapshot response
	kDecodeState                 // crdt.StateDecoder
	kTransit                     // Broadcast return to handler entry at the other node
	nKinds
)

// Which wrapper call is running on a replica, so child spans are charged
// to it.
const (
	ctxNone int32 = iota
	ctxInvoke
	ctxHandle
)

// midTime stamps one effector frame by its request ID.
type midTime struct {
	mid model.MsgID
	t   int64
}

// objTrace is one replica's span recorder.
type objTrace struct {
	// tm serializes the Invoke and Handle wrappers of the replica, so spans
	// recorded while one holds it are its children. Peer.mu serializes the
	// two calls anyway; tm only moves the wait for it outside the span.
	tm  sync.Mutex
	ctx atomic.Int32

	mu          sync.Mutex
	child       [3]int64
	spans       [nKinds][]int64
	decodeCalls int
	depsSum     int
	depsFrames  int
	bcast       []midTime // effector broadcasts returned (origin side)
	recvd       []midTime // effector frames entering the handler (receiver side)
	capture     []transport.Frame
}

// span records one call of kind k lasting d ns and charges it as a child
// of the wrapper call running on the replica, if any.
func (o *objTrace) span(k spanKind, d int64) {
	o.mu.Lock()
	o.spans[k] = append(o.spans[k], d)
	o.charge(d)
	o.mu.Unlock()
}

// charge adds d to the running wrapper call's child time; o.mu is held.
func (o *objTrace) charge(d int64) {
	if c := o.ctx.Load(); c != ctxNone {
		o.child[c] += d
	}
}

// captureFrames bounds how many broadcast frames one replica keeps for the
// frame-layer replay.
const captureFrames = 1024

// tracer holds one run's spans: per-replica recorders for the current
// round, folded into reservoirs when the round ends.
type tracer struct {
	objs    [2][]*objTrace
	flushMu sync.Mutex
	flushes []int64
	// live marks the measured phase; busy sums handler time within it.
	live atomic.Bool
	busy atomic.Int64

	samples     [nKinds]*sampler
	decodeCalls int
	depsSum     int
	depsFrames  int
	frames      []transport.Frame
}

// traceReservoir is each span kind's reservoir size. The reservoirs are
// allocated whole when the tracer is made, before the untraced half of a
// traced run, so both halves run on the same benchmark heap and
// trace.overhead_share does not read a shift in garbage collection pacing.
const traceReservoir = 1 << 15

func newTracer() *tracer {
	t := &tracer{}
	for k := range t.samples {
		t.samples[k] = newSampler(traceReservoir)
		t.samples[k].vals = make([]int64, 0, traceReservoir)
	}
	return t
}

// beginRound gives every replica of the next round a fresh recorder.
func (t *tracer) beginRound(nobj int) {
	for n := range t.objs {
		t.objs[n] = make([]*objTrace, nobj)
		for i := range t.objs[n] {
			t.objs[n][i] = &objTrace{}
		}
	}
	t.flushes = nil
	t.busy.Store(0)
}

// endRound folds the round's spans into the run's reservoirs. Call it once
// the mesh is torn down.
func (t *tracer) endRound() {
	for n := range t.objs {
		for i, o := range t.objs[n] {
			for k, v := range o.spans {
				for _, d := range v {
					t.samples[k].add(d)
				}
			}
			t.decodeCalls += o.decodeCalls
			t.depsSum += o.depsSum
			t.depsFrames += o.depsFrames
			if len(t.frames) < captureFrames {
				t.frames = append(t.frames, o.capture...)
			}
			// Transit: this replica's broadcasts, received by the other node.
			sent := make(map[model.MsgID]int64, len(o.bcast))
			for _, b := range o.bcast {
				sent[b.mid] = b.t
			}
			for _, r := range t.objs[1-n][i].recvd {
				if at, ok := sent[r.mid]; ok {
					t.samples[kTransit].add(r.t - at)
				}
			}
		}
	}
	for _, d := range t.flushes {
		t.samples[kFlush].add(d)
	}
}

// invoke runs Peer.Invoke as one span.
func (t *tracer) invoke(node, i int, p *transport.Peer, op model.Op) error {
	o := t.objs[node][i]
	o.tm.Lock()
	defer o.tm.Unlock()
	o.ctx.Store(ctxInvoke)
	t0 := clock()
	_, err := p.Invoke(op)
	d := clock() - t0
	o.ctx.Store(ctxNone)
	o.mu.Lock()
	child := o.child[ctxInvoke]
	o.child[ctxInvoke] = 0
	if op.Name == spec.OpRead {
		o.spans[kReadInvoke] = append(o.spans[kReadInvoke], d)
	} else {
		o.spans[kInvokeSelf] = append(o.spans[kInvokeSelf], d-child)
	}
	o.mu.Unlock()
	return err
}

// handle runs Peer.Handle as one span, by frame kind.
func (t *tracer) handle(node, i int, p *transport.Peer, f transport.Frame) error {
	o := t.objs[node][i]
	entry := clock()
	o.tm.Lock()
	defer o.tm.Unlock()
	o.ctx.Store(ctxHandle)
	t0 := clock()
	err := p.Handle(f)
	t1 := clock()
	o.ctx.Store(ctxNone)
	o.mu.Lock()
	child := o.child[ctxHandle]
	o.child[ctxHandle] = 0
	switch f.Kind {
	case transport.KindEffector:
		o.spans[kHandleSelf] = append(o.spans[kHandleSelf], t1-t0-child)
		o.recvd = append(o.recvd, midTime{f.MID, entry})
	case transport.KindSnapshotRequest:
		o.spans[kServe] = append(o.spans[kServe], t1-t0)
	case transport.KindSnapshot:
		o.spans[kInstall] = append(o.spans[kInstall], t1-t0)
	}
	o.mu.Unlock()
	if t.live.Load() {
		t.busy.Add(t1 - entry)
	}
	return err
}

// object wraps one replica's crdt.Object.
func (t *tracer) object(node, i int, obj crdt.Object) crdt.Object {
	return tracedObject{Object: obj, o: t.objs[node][i]}
}

// decoder wraps one replica's effector decoder.
func (t *tracer) decoder(node, i int, dec crdt.EffectorDecoder) crdt.EffectorDecoder {
	o := t.objs[node][i]
	return func(b []byte) (crdt.Effector, error) {
		t0 := clock()
		eff, err := dec(b)
		d := clock() - t0
		o.mu.Lock()
		o.decodeCalls++
		o.mu.Unlock()
		o.span(kDecode, d)
		if err != nil || crdt.IsIdentity(eff) {
			return eff, err
		}
		return tracedEffector{Effector: eff, o: o}, nil
	}
}

// stateDecoder wraps one replica's state decoder.
func (t *tracer) stateDecoder(node, i int, dec crdt.StateDecoder) crdt.StateDecoder {
	o := t.objs[node][i]
	return func(b []byte) (crdt.State, error) {
		t0 := clock()
		st, err := dec(b)
		o.span(kDecodeState, clock()-t0)
		return st, err
	}
}

// send wraps one node's send side.
func (t *tracer) send(node int, s sendSide) sendSide {
	return &tracedSend{sendSide: s, t: t, node: node}
}

type tracedObject struct {
	crdt.Object
	o *objTrace
}

func (w tracedObject) Prepare(op model.Op, s crdt.State, origin model.NodeID, mid model.MsgID) (model.Value, crdt.Effector, error) {
	t0 := clock()
	v, eff, err := w.Object.Prepare(op, s, origin, mid)
	w.o.span(kPrepare, clock()-t0)
	if err != nil || crdt.IsIdentity(eff) {
		return v, eff, err
	}
	return v, tracedEffector{Effector: eff, o: w.o}, nil
}

type tracedEffector struct {
	crdt.Effector
	o *objTrace
}

func (e tracedEffector) Apply(s crdt.State) crdt.State {
	t0 := clock()
	out := e.Effector.Apply(s)
	e.o.span(kApply, clock()-t0)
	return out
}

func (e tracedEffector) AppendBinary(b []byte) []byte {
	t0 := clock()
	out := e.Effector.AppendBinary(b)
	e.o.span(kEncode, clock()-t0)
	return out
}

type tracedSend struct {
	sendSide
	t    *tracer
	node int
}

func (s *tracedSend) objTrace(id transport.ObjID) *objTrace {
	objs := s.t.objs[s.node]
	if i := int(id) - 1; i >= 0 && i < len(objs) {
		return objs[i]
	}
	return nil
}

func (s *tracedSend) Broadcast(f transport.Frame) error {
	t0 := clock()
	err := s.sendSide.Broadcast(f)
	t1 := clock()
	o := s.objTrace(f.Obj)
	if o == nil {
		return err
	}
	o.span(kBroadcast, t1-t0)
	if f.Kind == transport.KindEffector {
		o.mu.Lock()
		o.depsSum += len(f.Deps)
		o.depsFrames++
		o.bcast = append(o.bcast, midTime{f.MID, t1})
		if len(o.capture) < captureFrames {
			o.capture = append(o.capture, f)
		}
		o.mu.Unlock()
	}
	return err
}

func (s *tracedSend) Send(to model.NodeID, f transport.Frame) error {
	t0 := clock()
	err := s.sendSide.Send(to, f)
	if o := s.objTrace(f.Obj); o != nil {
		o.mu.Lock()
		o.charge(clock() - t0)
		o.mu.Unlock()
	}
	return err
}

func (s *tracedSend) Flush() error {
	t0 := clock()
	err := s.sendSide.Flush()
	d := clock() - t0
	s.t.flushMu.Lock()
	s.t.flushes = append(s.t.flushes, d)
	s.t.flushMu.Unlock()
	return err
}
