package main

import (
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capture"
	"repro/internal/chaos"
	"repro/internal/probe"
	"repro/internal/rollup"
)

// span is one traced interval. Coarse spans bracket one call into a
// layer's public API. Boundary spans aggregate a per-frame (or per-I/O)
// seam: one span per layer per rep, Start/End the first and last timed
// crossing, BusyNS the time spent inside the layer across Count
// crossings.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Rep     int    `json:"rep"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	BusyNS  int64  `json:"busy_ns,omitempty"`
	Count   int64  `json:"count,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// tracer collects spans in memory; they are written out (if asked for)
// once the benchmark ends. A nil *tracer is the untraced run: every
// method is a no-op and every wrap returns its argument unchanged, so
// workloads carry no "if tracing" branches and the untraced program is
// exactly the production assembly.
type tracer struct {
	t0   time.Time
	bias int64 // ns a clock pair reads for an empty interval

	mu     sync.Mutex
	rep    int
	spans  []span
	layers []*layer
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	// Calibrate the clock-pair bias: a boundary crossing that costs
	// less than the two clock reads bracketing it (rollup's Observe is
	// ~70 ns) would otherwise be dominated by the instrument.
	const n = 200_000
	var acc int64
	for i := 0; i < n; i++ {
		a := time.Now()
		acc += int64(time.Since(a))
	}
	tr.bias = acc / n
	return tr
}

// begin opens a coarse span; call the returned func to close it.
func (tr *tracer) begin(name, parent string) func() {
	if tr == nil {
		return func() {}
	}
	start := time.Since(tr.t0)
	return func() {
		end := time.Since(tr.t0)
		tr.mu.Lock()
		tr.spans = append(tr.spans, span{Name: name, Parent: parent, Rep: tr.rep, StartNS: int64(start), EndNS: int64(end)})
		tr.mu.Unlock()
	}
}

// layer is the accumulator behind one boundary wrapper. Crossings of
// one wrapper are single-threaded by the seams' own contracts (a
// source has one puller, a sink one shard); the atomics only make the
// end-of-rep read race-free.
type layer struct {
	name, parent string
	busy         atomic.Int64
	count        atomic.Int64
	bytes        atomic.Int64
	first, last  atomic.Int64 // ns since tracer start; first is 0 until the first crossing
}

func (tr *tracer) layer(name, parent string) *layer {
	l := &layer{name: name, parent: parent}
	tr.mu.Lock()
	tr.layers = append(tr.layers, l)
	tr.mu.Unlock()
	return l
}

// cross records one timed boundary crossing that began at start.
func (l *layer) cross(tr *tracer, start time.Time, bytes int) { l.sampled(tr, start, bytes, 1) }

// sampled records a timed crossing that stands for weight crossings'
// worth of busy time (the others went through pass).
func (l *layer) sampled(tr *tracer, start time.Time, bytes int, weight int64) {
	end := time.Now()
	l.busy.Add((int64(end.Sub(start)) - tr.bias) * weight)
	l.first.CompareAndSwap(0, int64(start.Sub(tr.t0)))
	l.last.Store(int64(end.Sub(tr.t0)))
	l.pass(bytes)
}

// pass counts a crossing that was not timed.
func (l *layer) pass(bytes int) {
	l.count.Add(1)
	l.bytes.Add(int64(bytes))
}

// sampleEvery is how many crossings of the source seam share one clock
// pair. The source is pulled by the pipeline's router, the goroutine
// that sets the capture workloads' wall time, and a clock pair costs
// half a trace read: timing every Next slowed the traced replay by 30%,
// twice what the ledger allows. Next costs are uniform, so one in eight
// scaled up estimates the total well (it read within 2% of the exact
// figure). Counts and bytes stay exact. Sinks run on the shard workers,
// off the critical path, and their cost has a heavy tail (an Observe
// that seals an epoch runs the seal hook), so they and the per-I/O
// seams (files, sockets) time every crossing.
const sampleEvery = 8

// endRep folds the rep's boundary layers into spans (same-named layers
// — one sink per shard, one spool per probe — sum into one span) and
// returns busy seconds, crossings and bytes per layer name.
func (tr *tracer) endRep() map[string]layerTotals {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	totals := map[string]layerTotals{}
	order := []string{}
	agg := map[string]*span{}
	for _, l := range tr.layers {
		if l.count.Load() == 0 {
			continue
		}
		s, ok := agg[l.name]
		if !ok {
			s = &span{Name: l.name, Parent: l.parent, Rep: tr.rep, StartNS: l.first.Load()}
			agg[l.name] = s
			order = append(order, l.name)
		}
		s.StartNS = min(s.StartNS, l.first.Load())
		s.EndNS = max(s.EndNS, l.last.Load())
		s.BusyNS += max(l.busy.Load(), 0)
		s.Count += l.count.Load()
		s.Bytes += l.bytes.Load()
	}
	for _, name := range order {
		s := agg[name]
		tr.spans = append(tr.spans, *s)
		totals[name] = layerTotals{busyS: float64(s.BusyNS) / 1e9, count: float64(s.Count), bytes: float64(s.Bytes)}
	}
	tr.layers = nil
	tr.rep++
	return totals
}

type layerTotals struct{ busyS, count, bytes float64 }

func (tr *tracer) writeFile(path string) error {
	tr.mu.Lock()
	js, err := json.MarshalIndent(tr.spans, "", " ")
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, js, 0o644)
}

// --- boundary wrappers -------------------------------------------------
//
// Each wraps a seam production code already exposes and forwards every
// call untouched; TestWrappersAreTransparent pins that a wrapped run
// writes the same snapshot bytes as a bare one.

// source wraps a capture.Source, timing one Next in sampleEvery. The
// wrapped source's stability contract is forwarded, so the pipeline's
// copy-or-alias decision is the untraced one.
func (tr *tracer) source(name, parent string, src capture.Source) capture.Source {
	if tr == nil {
		return src
	}
	return &timedSource{src: src, stable: capture.IsStable(src), tr: tr, l: tr.layer(name, parent)}
}

type timedSource struct {
	src    capture.Source
	stable bool
	tr     *tracer
	l      *layer
	n      uint
}

// Next counts frames, not calls: the call that ends the stream (io.EOF
// or a read error) crosses no frame and is left out, so the layer's
// count equals CountingSource's.
func (s *timedSource) Next() (capture.Frame, error) {
	if s.n++; s.n%sampleEvery != 0 {
		f, err := s.src.Next()
		if err == nil {
			s.l.pass(len(f.Data))
		}
		return f, err
	}
	start := time.Now()
	f, err := s.src.Next()
	if err == nil {
		s.l.sampled(s.tr, start, len(f.Data), sampleEvery)
	}
	return f, err
}

func (s *timedSource) StableData() bool { return s.stable }

// sinks wraps a per-shard sink factory (probe.Pipeline.WithSinks),
// timing every Observe.
func (tr *tracer) sinks(name, parent string, factory func(shard int) probe.Sink) func(shard int) probe.Sink {
	if tr == nil {
		return factory
	}
	return func(shard int) probe.Sink {
		return &timedSink{sink: factory(shard), tr: tr, l: tr.layer(name, parent)}
	}
}

type timedSink struct {
	sink probe.Sink
	tr   *tracer
	l    *layer
}

func (s *timedSink) Observe(o probe.Observation) {
	start := time.Now()
	s.sink.Observe(o)
	s.l.cross(s.tr, start, 0)
}

// sealHook wraps a collector seal hook (rollup.Collector.WithSealHook,
// the shipper's entry point), timing every sealed epoch.
func (tr *tracer) sealHook(name, parent string, hook sealHookFunc) sealHookFunc {
	if tr == nil {
		return hook
	}
	l := tr.layer(name, parent)
	return func(shard int, ep rollup.Epoch, nameOf func(svc uint32) string) {
		start := time.Now()
		hook(shard, ep, nameOf)
		l.cross(tr, start, 0)
	}
}

type sealHookFunc = func(shard int, ep rollup.Epoch, nameOf func(svc uint32) string)

// fs wraps a chaos.FS (ShipperConfig.FS / AggConfig.FS): writes and
// fsyncs of every file opened through it are timed under
// prefix+".write" and prefix+".fsync" (directory syncs included).
func (tr *tracer) fs(prefix, parent string, fs chaos.FS) chaos.FS {
	if tr == nil {
		return fs
	}
	return &timedFS{FS: fs, tr: tr,
		write: tr.layer(prefix+".write", parent),
		fsync: tr.layer(prefix+".fsync", parent)}
}

type timedFS struct {
	chaos.FS
	tr           *tracer
	write, fsync *layer
}

func (f *timedFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.FS.SyncDir(dir)
	f.fsync.cross(f.tr, start, 0)
	return err
}

type timedFile struct {
	chaos.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.write.cross(f.fs.tr, start, n)
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.fs.write.cross(f.fs.tr, start, n)
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.fsync.cross(f.fs.tr, start, 0)
	return err
}

// conn wraps a net.Conn (ShipperConfig.Dial / AggConfig.WrapConn /
// CtlClient.Dial): writes are timed under prefix+".tx", reads — which
// include the wait for the peer — under prefix+".rx".
func (tr *tracer) conn(prefix, parent string, c net.Conn) net.Conn {
	if tr == nil {
		return c
	}
	return &timedConn{Conn: c, tr: tr, tx: tr.layer(prefix+".tx", parent), rx: tr.layer(prefix+".rx", parent)}
}

// dial wraps a dial function so every connection it opens is a conn.
func (tr *tracer) dial(prefix, parent string, dial chaos.DialFunc) chaos.DialFunc {
	if tr == nil {
		return dial
	}
	return func(network, addr string) (net.Conn, error) {
		c, err := dial(network, addr)
		if err != nil {
			return nil, err
		}
		return tr.conn(prefix, parent, c), nil
	}
}

type timedConn struct {
	net.Conn
	tr     *tracer
	tx, rx *layer
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.tx.cross(c.tr, start, n)
	return n, err
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.rx.cross(c.tr, start, n)
	return n, err
}
