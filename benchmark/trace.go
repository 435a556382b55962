package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// Stamps taken per task, in waterfall order. All but the first two and the
// last two are taken by interposers the benchmark passes into the library
// where it already accepts an interface; none are taken inside the library.
const (
	stSubmit    = iota // script calls App.Submit
	stSubmitted        // App.Submit returns
	stExecEnter        // DFK calls the executor's Submit/SubmitBatch
	stFnStart          // the app body starts on a worker
	stFnEnd            // the app body returns
	stExecDone         // the executor's future settles
	stAppDone          // the app future's first done-callback runs
	stResult           // Result() returns to the script
	stBlocked          // 1 when the script was parked in Result() (a flag, not a time)
	nStamps
)

// Fresh memo keys carry the task's round index in their low bits so the
// interposers, which only see the app's arguments, can find its stamp row.
const (
	freshBase = 1 << 32
	idxBits   = 20
	idxMask   = 1<<idxBits - 1
)

// tracer holds one traced run's stamps and counters. It exists only in a
// -trace run; the untraced run builds its deployment without any interposer.
type tracer struct {
	base time.Time
	// on gates every interposer: warm-up and rtt probes reuse stamp indices
	// and must not overwrite a round's rows.
	on     atomic.Bool
	stamps [][nStamps]int64

	execCalls atomic.Int64
	execTasks atomic.Int64
	pickNs    atomic.Int64
	picks     atomic.Int64
}

func newTracer(maxTasks int) *tracer {
	return &tracer{base: time.Now(), stamps: make([][nStamps]int64, maxTasks)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// index maps an app's first argument to the task's stamp row.
func (t *tracer) index(args []any) (int, bool) {
	if len(args) == 0 {
		return 0, false
	}
	v, ok := toInt(args[0])
	if !ok {
		return 0, false
	}
	if v >= freshBase {
		v &= idxMask
	}
	return v, v >= 0 && v < len(t.stamps)
}

func (t *tracer) reset(n int) {
	clear(t.stamps[:n])
}

// wrapFn is the app-body interposer: fn start and fn end, on whichever
// goroutine the executor runs the body.
func (t *tracer) wrapFn(fn serialize.Fn) serialize.Fn {
	return func(args []any, kwargs map[string]any) (any, error) {
		if !t.on.Load() {
			return fn(args, kwargs)
		}
		idx, ok := t.index(args)
		t0 := t.now()
		v, err := fn(args, kwargs)
		t1 := t.now()
		if ok {
			t.stamps[idx][stFnStart] = t0
			t.stamps[idx][stFnEnd] = t1
		}
		return v, err
	}
}

// appDone returns the done-callback the script registers on an app future
// right after Submit returns, so it is the first callback to run.
func (t *tracer) appDone(idx int) func(*future.Future) {
	return func(*future.Future) { t.stamps[idx][stAppDone] = t.now() }
}

// batchExecutor is what both benchmarked executors implement and what the
// interposer must therefore forward, so the DFK takes the same SubmitBatch and
// Cancel paths it takes without tracing.
type batchExecutor interface {
	executor.Executor
	executor.BatchSubmitter
	executor.Canceler
}

// tracedExecutor is the executor interposer handed to dfk.Config.
type tracedExecutor struct {
	inner batchExecutor
	t     *tracer
}

// execRelay settles the future the DFK holds when the real executor's future
// settles, stamping the moment in between. The outer future is embedded so a
// batch costs one allocation.
type execRelay struct {
	out future.Future
	t   *tracer
	idx int
}

func (r *execRelay) FutureDone(f *future.Future) {
	if r.idx >= 0 {
		r.t.stamps[r.idx][stExecDone] = r.t.now()
	}
	if v, err := f.Result(); err != nil {
		_ = r.out.SetError(err)
	} else {
		_ = r.out.SetResult(v)
	}
}

func (e *tracedExecutor) Label() string    { return e.inner.Label() }
func (e *tracedExecutor) Start() error     { return e.inner.Start() }
func (e *tracedExecutor) Outstanding() int { return e.inner.Outstanding() }
func (e *tracedExecutor) Shutdown() error  { return e.inner.Shutdown() }

func (e *tracedExecutor) Cancel(wireID int64) bool { return e.inner.Cancel(wireID) }

func (e *tracedExecutor) Submit(msg serialize.TaskMsg) *future.Future {
	return e.SubmitBatch([]serialize.TaskMsg{msg})[0]
}

func (e *tracedExecutor) SubmitBatch(msgs []serialize.TaskMsg) []*future.Future {
	t := e.t
	if !t.on.Load() {
		return e.inner.SubmitBatch(msgs)
	}
	now := t.now()
	t.execCalls.Add(1)
	t.execTasks.Add(int64(len(msgs)))
	relays := make([]execRelay, len(msgs))
	for i := range msgs {
		idx, ok := t.index(msgs[i].Args)
		if ok {
			t.stamps[idx][stExecEnter] = now
		} else {
			idx = -1
		}
		relays[i].t, relays[i].idx = t, idx
	}
	inner := e.inner.SubmitBatch(msgs)
	out := make([]*future.Future, len(inner))
	for i, f := range inner {
		out[i] = &relays[i].out
		f.SetDoneHook(&relays[i])
	}
	return out
}

// tracedSched is the scheduler interposer: time and count of executor picks.
type tracedSched struct {
	inner sched.Scheduler
	t     *tracer
}

func (s *tracedSched) Name() string { return s.inner.Name() }

func (s *tracedSched) Pick(c []executor.Executor) (executor.Executor, error) {
	if !s.t.on.Load() {
		return s.inner.Pick(c)
	}
	t0 := s.t.now()
	ex, err := s.inner.Pick(c)
	s.t.pickNs.Add(s.t.now() - t0)
	s.t.picks.Add(1)
	return ex, err
}

// countingSink is tp_planes' monitor.Sink in both runs: it counts events and
// keeps none, so the monitor plane's cost is the DFK's, not a store's.
type countingSink struct{ n atomic.Int64 }

func (s *countingSink) Emit(monitor.Event) { s.n.Add(1) }
func (s *countingSink) Close() error       { return nil }

// countingTransport is the simnet interposer handed to htex.Config: it counts
// writes, bytes and mq frames per connection. The k-th dialled connection is
// the peer of the k-th accepted one (htex dials sequentially and simnet's
// accept queue is FIFO), and a dialler's HELLO frame names it.
type countingTransport struct {
	inner simnet.Transport

	mu       sync.Mutex
	dialed   []*countingConn
	accepted []*countingConn
}

func (c *countingTransport) Dial(addr string) (net.Conn, error) {
	raw, err := c.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: raw}
	c.mu.Lock()
	c.dialed = append(c.dialed, cc)
	c.mu.Unlock()
	return cc, nil
}

func (c *countingTransport) Listen(addr string) (net.Listener, error) {
	l, err := c.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, tr: c}, nil
}

type countingListener struct {
	net.Listener
	tr *countingTransport
}

func (l *countingListener) Accept() (net.Conn, error) {
	raw, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: raw}
	l.tr.mu.Lock()
	l.tr.accepted = append(l.tr.accepted, cc)
	l.tr.mu.Unlock()
	return cc, nil
}

// linkCounts is one direction of one connection.
type linkCounts struct {
	writes, bytes, frames, resultFrames int64
}

func (a linkCounts) sub(b linkCounts) linkCounts {
	return linkCounts{a.writes - b.writes, a.bytes - b.bytes, a.frames - b.frames, a.resultFrames - b.resultFrames}
}

// countingConn counts what is written to it and follows mq's framing (u32
// part count, then u32-length-prefixed parts, one Write each) far enough to
// count frames and read each frame's first part, the message kind.
type countingConn struct {
	net.Conn

	mu       sync.Mutex
	c        linkCounts
	identity string // second part of the first frame, when it is a HELLO

	phase     int // 0 frame header, 1 part length, 2 part body
	partsLeft int
	part      int
	kind      string
	lost      bool // a Write did not fit the framing; frame counts stop
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.c.writes++
	c.c.bytes += int64(len(b))
	if !c.lost {
		c.follow(b)
	}
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *countingConn) follow(b []byte) {
	switch c.phase {
	case 0:
		if len(b) != 4 {
			c.lost = true
			return
		}
		c.c.frames++
		c.partsLeft = int(binary.BigEndian.Uint32(b))
		c.part = 0
		if c.partsLeft > 0 {
			c.phase = 1
		}
	case 1:
		if len(b) != 4 {
			c.lost = true
			return
		}
		c.phase = 2
	case 2:
		if c.part == 0 {
			c.kind = string(b)
			if c.kind == "RESULTS" {
				c.c.resultFrames++
			}
		} else if c.part == 1 && c.kind == "HELLO" && c.identity == "" {
			c.identity = string(b)
		}
		c.part++
		c.partsLeft--
		c.phase = 1
		if c.partsLeft == 0 {
			c.phase = 0
		}
	}
}

func (c *countingConn) snapshot() linkCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

// links sums the four directions of a one-shard htex deployment: client to
// interchange, interchange to manager, manager to interchange, interchange to
// client.
type links struct{ c2i, i2m, m2i, i2c linkCounts }

func (c *countingTransport) snapshot() links {
	c.mu.Lock()
	defer c.mu.Unlock()
	var l links
	for i, d := range c.dialed {
		if i >= len(c.accepted) {
			break
		}
		out, back := d.snapshot(), c.accepted[i].snapshot()
		d.mu.Lock()
		client := d.identity == "htex-client"
		d.mu.Unlock()
		if client {
			l.c2i, l.i2c = add(l.c2i, out), add(l.i2c, back)
		} else {
			l.m2i, l.i2m = add(l.m2i, out), add(l.i2m, back)
		}
	}
	return l
}

func add(a, b linkCounts) linkCounts {
	return linkCounts{a.writes + b.writes, a.bytes + b.bytes, a.frames + b.frames, a.resultFrames + b.resultFrames}
}
