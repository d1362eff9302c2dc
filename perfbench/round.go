package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/crdt"
	"repro/internal/spec"
	"repro/internal/transport"
)

// cpuTime returns the process's user+system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// run executes one round: set up the mesh, replay the inputs, wait until
// every effector is applied at the other node, tear down, and pass the
// correctness gate. Any violation fails the round with a named error.
func (m *mesh) run() (rr roundResult, err error) {
	w := m.cfg.w
	rr.traced = m.tr != nil
	defer func() {
		for _, nd := range m.nodes {
			if nd.st != nil {
				nd.st.Close()
			}
		}
	}()

	t0 := time.Now()
	if w.solo > 0 {
		st, err := m.listen(0, transport.WithLateJoiners(1))
		if err != nil {
			return rr, err
		}
		if err := m.attach(0, st); err != nil {
			st.Close()
			return rr, err
		}
	} else if err := m.setupPair(); err != nil {
		return rr, fmt.Errorf("setup: %w", err)
	}
	rr.setup = time.Since(t0).Seconds()

	if w.solo > 0 {
		if err := m.phase(func(o int) error {
			if o != 0 {
				return nil
			}
			return m.load(0, m.in.solo, false)
		}, func() bool { return true }); err != nil {
			return rr, fmt.Errorf("solo phase: %w", err)
		}
		for i := range m.flows[0] {
			m.flows[0][i].live = m.nodes[0].issuedPer[i]
		}
		t1 := time.Now()
		if err := m.join(); err != nil {
			return rr, fmt.Errorf("catch-up: %w", err)
		}
		rr.catchup = time.Since(t1).Seconds()
	}

	if m.tr != nil {
		m.tr.live.Store(true)
	}
	var wireBefore int
	for _, nd := range m.nodes {
		wireBefore += nd.st.Stats().TotalSent().Bytes
	}
	baseApplied := [2]int64{m.nodes[0].remoteApplied.Load(), m.nodes[1].remoteApplied.Load()}
	runtime.GC()
	alloc0, cpu0 := totalAlloc(), cpuTime()
	m.loadStart = clock()
	err = m.phase(func(o int) error { return m.load(o, m.in.live[o], true) }, m.replicated)
	cpu1, alloc1 := cpuTime(), totalAlloc()
	if err != nil {
		return rr, err
	}
	end := m.lastApply()
	if m.tr != nil {
		m.tr.live.Store(false)
	}
	for o := 0; o < 2; o++ {
		rr.issued += int(m.nodes[o].issued.Load())
		rr.ops += len(m.in.live[o])
		rr.effectful += int(m.nodes[1-o].remoteApplied.Load() - baseApplied[1-o])
	}
	rr.wall = float64(end-m.loadStart) / 1e9
	rr.cpu = cpu1 - cpu0
	rr.alloc = alloc1 - alloc0
	if err := m.teardown(); err != nil {
		return rr, err
	}
	rr.wire = -wireBefore
	for o, nd := range m.nodes {
		rr.stats[o] = nd.st.Stats()
		rr.recv[o] = nd.rcv.Stats()
		rr.wire += rr.stats[o].TotalSent().Bytes
		rr.held += int(nd.held.Load())
		for _, p := range nd.peers {
			rr.snap[o] = append(rr.snap[o], p.SnapshotStats())
			rr.rejected += p.Skipped()
		}
	}
	for _, p := range m.nodes[0].peers {
		rr.stateBytes += len(p.CanonicalState())
	}
	return rr, m.gate(&rr)
}

// join brings node 1 in as a late joiner and waits until every object has
// installed node 0's snapshot.
func (m *mesh) join() error {
	st, err := m.listen(1, transport.AsLateJoiner())
	if err != nil {
		return err
	}
	if err := m.attach(1, st); err != nil {
		st.Close()
		return err
	}
	if err := m.nodes[1].node.CatchUp(); err != nil {
		return err
	}
	return m.await(func() bool {
		for _, p := range m.nodes[1].peers {
			if !p.CaughtUp() {
				return false
			}
		}
		return true
	})
}

// phase runs one load goroutine per node and waits until they finish and
// done holds, failing with errStalled when nothing progresses for the
// configured stall time.
func (m *mesh) phase(load func(o int) error, done func() bool) error {
	errs := make(chan error, 2)
	for o := 0; o < 2; o++ {
		go func(o int) { errs <- load(o) }(o)
	}
	stop := make(chan struct{})
	defer close(stop)
	stalled := m.watchdog(stop)
	var first error
	for running := 2; running > 0; {
		select {
		case err := <-errs:
			running--
			if err != nil && first == nil {
				first = err
				close(m.abort)
			}
		case <-stalled:
			close(m.abort)
			for ; running > 0; running-- {
				select {
				case <-errs:
				case <-time.After(m.cfg.stall):
					return fmt.Errorf("%w: a load goroutine is blocked: %s", errStalled, m.describe())
				}
			}
			return fmt.Errorf("%w: %s", errStalled, m.describe())
		}
	}
	if first != nil {
		return first
	}
	return m.await(done)
}

// watchdog returns a channel that is closed once progress (operations
// invoked plus effectors applied) has not moved for the stall time. It
// stops watching when stop is closed.
func (m *mesh) watchdog(stop <-chan struct{}) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		last, since := int64(-1), time.Now()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if p := m.progressCount(); p != last {
				last, since = p, time.Now()
			} else if time.Since(since) > m.cfg.stall {
				close(ch)
				return
			}
		}
	}()
	return ch
}

func (m *mesh) progressCount() int64 {
	var t int64
	for _, nd := range m.nodes {
		t += nd.invoked.Load() + nd.remoteApplied.Load()
	}
	return t
}

// await blocks until pred holds, waking on every applied frame, or fails
// after the stall time without progress or on a receiver failure.
func (m *mesh) await(pred func() bool) error {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	last, since := m.progressCount(), time.Now()
	for !pred() {
		select {
		case <-m.progress:
		case <-tick.C:
			for o, nd := range m.nodes {
				if nd.rcv != nil {
					if err := nd.rcv.Err(); err != nil {
						return fmt.Errorf("node %d receiver: %w", o, err)
					}
				}
			}
			if p := m.progressCount(); p != last {
				last, since = p, time.Now()
			} else if time.Since(since) > m.cfg.stall {
				return fmt.Errorf("%w: %s", errStalled, m.describe())
			}
		}
	}
	return nil
}

// replicated reports whether every effectful operation has been applied at
// the other node.
func (m *mesh) replicated() bool {
	for o, nd := range m.nodes {
		if m.nodes[1-o].remoteApplied.Load() != nd.issued.Load() {
			return false
		}
	}
	return true
}

func (m *mesh) describe() string {
	return fmt.Sprintf("node 0 issued %d effectors and node 1 applied %d; node 1 issued %d and node 0 applied %d",
		m.nodes[0].issued.Load(), m.nodes[1].remoteApplied.Load(), m.nodes[1].issued.Load(), m.nodes[0].remoteApplied.Load())
}

// lastApply returns the time the last effector was applied (or the last
// invoke returned, if later).
func (m *mesh) lastApply() int64 {
	end := clock()
	var last int64
	for o := range m.flows {
		for i := range m.flows[o] {
			fl := &m.flows[o][i]
			if fl.seen > 0 && fl.applied[fl.seen-1] > last {
				last = fl.applied[fl.seen-1]
			}
		}
	}
	if last == 0 || last > end {
		return end
	}
	return last
}

// load replays ops at node o. live marks the measured phase: there the
// closed loop holds the window of unreplicated operations (flushing before
// it blocks, as the replica layer does), the open loop waits for each
// operation's due time, and invoke durations are recorded.
func (m *mesh) load(o int, ops []plannedOp, live bool) error {
	w := m.cfg.w
	nd, other := m.nodes[o], m.nodes[1-o]
	for j := range ops {
		po := &ops[j]
		var start int64
		open := live && w.window == 0
		if open {
			start = m.loadStart + int64(po.due)
			if d := start - clock(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		} else if live && po.op.Name != spec.OpRead {
			flushed := false
			for nd.issued.Load()-other.remoteApplied.Load() >= int64(w.window) {
				if !flushed {
					if err := nd.node.Flush(); err != nil {
						return fmt.Errorf("node %d flush: %w", o, err)
					}
					flushed = true
				}
				select {
				case <-m.wake[o]:
				case <-m.abort:
					return nil
				}
			}
		}
		p := nd.peers[po.obj]
		t0 := clock()
		if !open {
			start = t0
		}
		var err error
		if m.tr != nil {
			err = m.tr.invoke(o, po.obj, p, po.op)
		} else {
			_, err = p.Invoke(po.op)
		}
		t1 := clock()
		nd.invoked.Add(1)
		if err != nil && !errors.Is(err, crdt.ErrAssume) {
			return fmt.Errorf("node %d: failed op %s on object %d: %w", o, po.op, po.obj+1, err)
		}
		if live {
			m.invokeNs[o] = append(m.invokeNs[o], t1-t0)
			if open {
				m.late[o] = append(m.late[o], t0-start)
			}
		}
		if iss := p.Issued(); iss > nd.issuedPer[po.obj] {
			fl := &m.flows[o][po.obj]
			fl.start[nd.issuedPer[po.obj]] = start
			nd.issuedPer[po.obj] = iss
			nd.issued.Add(1)
		}
		select {
		case <-m.abort:
			return nil
		default:
		}
	}
	if err := nd.node.Flush(); err != nil {
		return fmt.Errorf("node %d flush: %w", o, err)
	}
	return nil
}

// teardown closes both streams and waits for both receivers to drain.
func (m *mesh) teardown() error {
	for _, nd := range m.nodes {
		if err := nd.st.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
	}
	for o, nd := range m.nodes {
		select {
		case <-nd.rcv.Done():
		case <-time.After(m.cfg.stall):
			return fmt.Errorf("node %d receiver did not drain after close", o)
		}
		if err := nd.rcv.Err(); err != nil {
			return fmt.Errorf("node %d receiver: %w", o, err)
		}
	}
	return nil
}

// errGate names every correctness-gate violation.
var errGate = errors.New("correctness gate")

// gate checks the quiescent mesh: byte-equal canonical states per object,
// balanced receive and scheduler ledgers, and exactly one apply per
// effectful operation.
func (m *mesh) gate(rr *roundResult) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
	}
	for i := range m.algs {
		a := m.nodes[0].peers[i].CanonicalState()
		b := m.nodes[1].peers[i].CanonicalState()
		if !bytes.Equal(a, b) {
			return fail("object %d (%s): canonical states differ across replicas (%d vs %d bytes)", i+1, m.algs[i].Name, len(a), len(b))
		}
	}
	for o, nd := range m.nodes {
		if err := rr.recv[o].Balance(rr.stats[o].TotalRecv().Frames); err != nil {
			return fail("node %d: %v", o, err)
		}
		if err := rr.stats[o].SchedBalance(); err != nil {
			return fail("node %d: %v", o, err)
		}
		for i, p := range nd.peers {
			fl := &m.flows[o][i]
			if p.Issued() != nd.issuedPer[i] {
				return fail("node %d object %d: peer issued %d effectors, load counted %d", o, i+1, p.Issued(), nd.issuedPer[i])
			}
			if fl.seen != nd.issuedPer[i] {
				return fail("node %d object %d: %d replicate samples for %d effectful operations", o, i+1, fl.seen, nd.issuedPer[i])
			}
			if got := m.nodes[1-o].peers[i].Applied(); got != nd.issuedPer[i] {
				return fail("node %d object %d: other replica applied %d of %d effectors", o, i+1, got, nd.issuedPer[i])
			}
		}
	}
	return nil
}
