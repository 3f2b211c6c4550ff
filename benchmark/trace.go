package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval at a layer boundary. Spans come only from the
// benchmark's own files: the driver brackets its calls into the system, and
// the device and wire decorators of sut.go bracket what passes through them.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"` // 0 outside measured ops
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Host times are wall nanoseconds since the round started; virtual
	// times are the machine's foreground clock.
	HostStart int64 `json:"host_start_ns"`
	HostEnd   int64 `json:"host_end_ns"`
	VStart    int64 `json:"v_start"`
	VEnd      int64 `json:"v_end"`
}

func (s span) dur() int64 { return s.HostEnd - s.HostStart }

// Layers a span can belong to; also the <layer>.self_host_us_per_op names.
var spanLayers = []string{"driver", "vm", "kernel", "core", "flushpath", "storage", "netback"}

// tracer keeps one round's spans in memory. A nil *tracer is the untraced
// mode: every method is a no-op and the machine gets no decorators.
//
// The driver goroutine opens and closes its spans in stack order. Device and
// wire spans arrive from the system's own goroutines (shard workers) and are
// parented to ioParent: the driver call that is doing synchronous I/O, or
// the in-flight epoch while a background flush runs.
type tracer struct {
	t0   time.Time
	vnow func() int64

	mu       sync.Mutex
	spans    []span
	op       int64
	ioParent int64

	wireWriteNS int64
	framesSent  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// attach implements ioObserver; the machine calls it before it builds any
// decorator.
func (t *tracer) attach(virtualNow func() int64) { t.vnow = virtualNow }

// begin opens a span and returns its ID (0 when untraced).
func (t *tracer) begin(layer, name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now, v := time.Since(t.t0).Nanoseconds(), t.vnow()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: name, HostStart: now, VStart: v})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now, v := time.Since(t.t0).Nanoseconds(), t.vnow()
	t.mu.Lock()
	t.spans[id-1].HostEnd, t.spans[id-1].VEnd = now, v
	t.mu.Unlock()
}

// restart moves an open span's start to now.
func (t *tracer) restart(id int64) {
	if t == nil {
		return
	}
	now, v := time.Since(t.t0).Nanoseconds(), t.vnow()
	t.mu.Lock()
	t.spans[id-1].HostStart, t.spans[id-1].VStart = now, v
	t.mu.Unlock()
}

// beginOp opens the root span of measured op number op (1-based).
func (t *tracer) beginOp(op int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
	return t.begin("driver", "op", 0)
}

func (t *tracer) endOp(id int64) {
	if t == nil {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.op = 0
	t.mu.Unlock()
}

// io makes span id the parent of device and wire spans until the returned
// function restores the previous one.
func (t *tracer) io(id int64) (restore func()) {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	prev := t.ioParent
	t.ioParent = id
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.ioParent = prev
		t.mu.Unlock()
	}
}

// record adds a completed span from a decorator. I/O outside any measured
// op (fixture building, verification) has no parent and is not kept.
func (t *tracer) record(layer, name string, start time.Time, d time.Duration) {
	s, v := start.Sub(t.t0).Nanoseconds(), t.vnow()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ioParent == 0 {
		return
	}
	parent := t.spans[t.ioParent-1]
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent.ID, Op: parent.Op,
		Layer: layer, Name: name, HostStart: s, HostEnd: s + d.Nanoseconds(), VStart: v, VEnd: v})
}

func (t *tracer) devOp(kind string, start time.Time, d time.Duration) {
	t.record("storage", kind, start, d)
}

func (t *tracer) wireRoundTrip(start time.Time, d time.Duration) {
	t.record("netback", "wire.roundtrip", start, d)
}

func (t *tracer) wireWrite(d time.Duration) {
	t.mu.Lock()
	if t.ioParent != 0 {
		t.wireWriteNS += d.Nanoseconds()
	}
	t.mu.Unlock()
}

func (t *tracer) wireFrameSent() {
	t.mu.Lock()
	if t.ioParent != 0 {
		t.framesSent++
	}
	t.mu.Unlock()
}

// finish returns the round's spans and the wire decorator's tallies.
func (t *tracer) finish() (spans []span, wireWriteNS, framesSent int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans, t.wireWriteNS, t.framesSent
}

// selfTimes returns, per layer, the summed self time of its spans: a span's
// duration minus the part of it that its child spans cover. Children are
// clipped to the parent and may overlap each other (concurrent flush
// workers), so the covered part is the length of their union.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.HostStart, s.HostEnd})
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Layer] += s.dur() - unionLen(children[s.ID], s.HostStart, s.HostEnd)
	}
	return self
}

// unionLen is the total length of the union of ivs clipped to [lo, hi].
func unionLen(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := max(iv[0], end), min(iv[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto opens directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON. The driver's
// call stack is one track; the in-flight epochs, the device and the wires
// get a track each because they run beside it.
func writeChromeTrace(path string, spans []span) error {
	tracks := map[string]int{"flushpath": 2, "storage": 3, "netback": 4}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		tid := tracks[s.Layer]
		if tid == 0 {
			tid = 1
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.HostStart) / 1e3, Dur: float64(s.dur()) / 1e3, PID: 1, TID: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "v_start_ns": s.VStart, "v_end_ns": s.VEnd},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
