package probe

import (
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/capture"
	"repro/internal/dpi"
	"repro/internal/gtpsim"
	"repro/internal/obs"
	"repro/internal/pkt"
)

// Pipeline scales the probe across cores the way production passive
// monitors scale capture: frames are hash-partitioned by data-plane
// TEID across N single-threaded probe shards. Control frames carrying
// an F-TEID are routed to the shard that owns that data TEID, so the
// TEID→commune state every shard keeps is strictly shard-local and
// never needs locking; frames no shard can key (decode failures,
// control messages without a data TEID) all land on shard 0, which
// accounts them exactly as a single probe would.
//
// The router goroutine does the minimum a serial stage must: it pulls
// frames from the (single-use) source, copies them into pooled batch
// arenas — the one copy the Source ownership contract requires — and
// broadcasts each sealed batch to every shard. Shard keying runs on
// the workers themselves: each worker keys every frame of a batch with
// a cheap fixed-offset peek and handles only its own. That keeps the
// serial stage to a pull and a copy, but it still bounds scaling on a
// trace replay: on a 2-core box, `probesim -trace -shards 2` spends
// about as much CPU on the router goroutine (the trace read and the
// arena copy in roughly equal parts) as on both workers together, and
// two shards replay no faster than one (bench local-replay,
// probe.capture_MBps: 1 974 MB/s at two shards, 2 060 at one).
// Batches and arenas recycle through a sync.Pool; steady-state routing
// allocates nothing.
//
// Each frame's contribution — to its shard's counters and to the
// observations its shard's sink receives — depends only on the state of
// its own tunnel and flow, which is totally ordered within its shard,
// and all byte accounting sums integer-valued packet lengths. A Pipeline
// run over any frame order that preserves per-tunnel order therefore
// produces the counters and the observation multiset of a single probe
// consuming the same capture.
type Pipeline struct {
	cfg        Config
	registry   *gtpsim.CellRegistry
	classifier *dpi.Classifier
	shards     int
	sinks      func(shard int) Sink
	metrics    *Metrics
}

// NewPipeline builds a pipeline with the given shard count; shards <= 0
// selects runtime.NumCPU(). The registry and classifier are shared
// read-only across shards; each shard owns its parser, flow cache and
// report.
func NewPipeline(cfg Config, registry *gtpsim.CellRegistry, classifier *dpi.Classifier, shards int) *Pipeline {
	if shards <= 0 {
		shards = runtime.NumCPU()
	}
	return &Pipeline{cfg: cfg, registry: registry, classifier: classifier, shards: shards}
}

// Shards returns the pipeline's worker count.
func (pl *Pipeline) Shards() int { return pl.shards }

// WithSinks registers a per-shard sink factory and returns pl. Run
// calls factory(i) once per shard i in [0, Shards()) and attaches the
// result to that shard's probe, so each sink observes a single-threaded
// event stream (the rollup store relies on this to keep its
// accumulators lock-free). A nil factory detaches.
func (pl *Pipeline) WithSinks(factory func(shard int) Sink) *Pipeline {
	pl.sinks = factory
	return pl
}

// WithMetrics attaches a telemetry bundle (see NewMetrics) and
// returns pl. Nil detaches; the uninstrumented cost is a nil check
// per counter touch.
func (pl *Pipeline) WithMetrics(m *Metrics) *Pipeline {
	pl.metrics = m
	return pl
}

// routeBatch bounds how many frames the router accumulates before
// broadcasting the batch to the shards; routeBytes bounds the batch
// arena so in-flight memory stays small whatever the frame sizes.
// Together they amortize channel overhead without adding meaningful
// latency at capture rates.
const (
	routeBatch = 512
	routeBytes = 1 << 19 // 512 KiB arena per batch
)

// batch is one router→shards unit: a frame slice whose Data either
// aliases a stable source directly or points into the batch's own
// arena. Batches are broadcast to every shard and recycled once the
// last shard releases them.
type batch struct {
	frames []capture.Frame
	arena  []byte
	refs   atomic.Int32
}

// batchPool recycles batches (and their arenas) across Run calls, so
// steady-state routing performs no allocation.
var batchPool = sync.Pool{New: func() any {
	return &batch{
		frames: make([]capture.Frame, 0, routeBatch),
		arena:  make([]byte, 0, routeBytes),
	}
}}

// add appends one frame. When copy is set the frame data is copied
// into the arena (the router's obligation under the capture.Source
// ownership contract); the arena's capacity is fixed, so earlier
// frames' Data slices stay valid as the batch fills. full reports that
// the batch should be sealed before the next frame.
//
//repro:hotpath
func (b *batch) add(f capture.Frame, copyData bool) {
	if copyData && len(f.Data) > 0 {
		if len(f.Data) > cap(b.arena)-len(b.arena) {
			// A frame larger than the whole arena: the batch is empty
			// (full() sealed it), so growing cannot dangle earlier Data.
			b.arena = append(b.arena[:0], f.Data...)
			f.Data = b.arena
		} else {
			start := len(b.arena)
			b.arena = append(b.arena, f.Data...)
			f.Data = b.arena[start:len(b.arena):len(b.arena)]
		}
	}
	b.frames = append(b.frames, f)
}

func (b *batch) full(next int) bool {
	return len(b.frames) >= routeBatch || len(b.arena)+next > cap(b.arena)
}

func (b *batch) release(pool *sync.Pool, recycled *obs.Counter) {
	if b.refs.Add(-1) == 0 {
		// Drop the Data pointers before truncating: a pooled batch must
		// not pin the capture's buffers (stable sources alias them).
		clear(b.frames)
		b.frames = b.frames[:0]
		b.arena = b.arena[:0]
		pool.Put(b)
		recycled.Inc()
	}
}

// Run pulls frames from src until io.EOF and returns the shards'
// summed counters. Nothing materializes the stream: in-flight memory is
// bounded by a handful of pooled batches.
//
// On a source error (e.g. a truncated trace) Run drains the shards and
// returns the merged report of everything consumed so far alongside
// the error, so a broken capture still yields its measurements.
func (pl *Pipeline) Run(src capture.Source) (*Report, error) {
	// Sources that guarantee immortal frame data (materialized slices)
	// skip the defensive copy; streaming sources (the simulator, trace
	// replay) reuse their buffers and must be copied out of.
	stable := capture.IsStable(src)

	// The zero-value bundle's fields are all nil, and nil obs
	// primitives are inert — one shared no-metrics path, no branching.
	m := pl.metrics
	if m == nil {
		m = &Metrics{}
	}

	probes := make([]*Probe, pl.shards)
	chans := make([]chan *batch, pl.shards)
	var wg sync.WaitGroup
	for i := range probes {
		probes[i] = New(pl.cfg, pl.registry, pl.classifier)
		if pl.sinks != nil {
			probes[i].SetSink(pl.sinks(i))
		}
		chans[i] = make(chan *batch, 4)
		wg.Add(1)
		go func(me int, p *Probe, ch <-chan *batch) {
			defer wg.Done()
			nShards := uint32(pl.shards)
			mine := m.shard(me)
			var rt router
			for b := range ch {
				for _, f := range b.frames {
					// Every worker keys every frame identically; exactly
					// one claims it. The peek is a few header loads —
					// cheap enough to replicate, and it takes the serial
					// router stage off the critical path.
					shard := 0
					if key, ok := rt.key(f.Data); ok {
						shard = int(mix32(key) % nShards)
					}
					if shard == me {
						p.HandleFrame(f.Time, f.Data)
						mine.Inc()
					}
				}
				b.release(&batchPool, m.Recycled)
			}
		}(i, probes[i], chans[i])
	}

	cur := batchPool.Get().(*batch)
	publish := func() {
		if len(cur.frames) == 0 {
			return
		}
		m.Batches.Inc()
		m.BatchFrames.Observe(int64(len(cur.frames)))
		cur.refs.Store(int32(pl.shards))
		for _, ch := range chans {
			ch <- cur
		}
		cur = batchPool.Get().(*batch)
	}
	var srcErr error
	for {
		f, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			srcErr = err
			break
		}
		m.Frames.Inc()
		m.Bytes.Add(uint64(len(f.Data)))
		if cur.full(len(f.Data)) {
			publish()
		}
		cur.add(f, !stable)
	}
	publish()
	// The final (empty) batch goes straight back to the pool, through
	// the same reset path the workers use.
	cur.refs.Store(1)
	cur.release(&batchPool, m.Recycled)
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()

	merged := probes[0].Report()
	for _, p := range probes[1:] {
		merged.Merge(p.Report())
	}
	return merged, srcErr
}

// mix32 is a multiplicative finalizer spreading sequential TEIDs
// uniformly over shard indices.
//
//repro:hotpath
func mix32(v uint32) uint32 {
	v ^= v >> 16
	v *= 0x7feb352d
	v ^= v >> 15
	v *= 0x846ca68b
	v ^= v >> 16
	return v
}

// router extracts the shard key of a raw frame: the data-plane TEID
// its accounting state lives under. It peeks at fixed header offsets
// on the hot GTP-U path and falls back to the full GTP-C decoders for
// the (rare) control messages, whose F-TEID IE names the data tunnel.
// It deliberately validates less than the probe's parser — any frame
// the probe can decode, the router can key; frames it cannot key go to
// shard 0 where the probe accounts the failure. Each shard worker owns
// one router instance, so the decoder scratch state needs no locking.
type router struct {
	v1 pkt.GTPv1C
	v2 pkt.GTPv2C
}

func (rt *router) key(data []byte) (uint32, bool) {
	// Outer IPv4: fixed 20-byte minimum, IHL-sized header, UDP next.
	if len(data) < 20 || data[0]>>4 != 4 {
		return 0, false
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl+8 || data[9] != pkt.IPProtoUDP {
		return 0, false
	}
	udp := data[ihl:]
	srcPort := uint16(udp[0])<<8 | uint16(udp[1])
	dstPort := uint16(udp[2])<<8 | uint16(udp[3])
	gtp := udp[8:]
	switch {
	case srcPort == pkt.PortGTPU || dstPort == pkt.PortGTPU:
		// GTPv1-U: TEID at bytes 4..8 of the fixed header.
		if len(gtp) < 8 {
			return 0, false
		}
		return binary.BigEndian.Uint32(gtp[4:8]), true
	case srcPort == pkt.PortGTPC || dstPort == pkt.PortGTPC:
		// GTP-C: v1 and v2 share the port; the version nibble of the
		// first byte disambiguates (mirroring pkt.UDP.NextLayerType).
		if len(gtp) > 0 && gtp[0]>>5 == 2 {
			if rt.v2.DecodeFromBytes(gtp) == nil && rt.v2.HasDataTEID {
				return rt.v2.DataTEID, true
			}
		} else if rt.v1.DecodeFromBytes(gtp) == nil && rt.v1.HasDataTEID {
			return rt.v1.DataTEID, true
		}
		return 0, false
	}
	return 0, false
}
