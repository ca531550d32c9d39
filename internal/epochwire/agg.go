package epochwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capture"
	"repro/internal/chaos"
	"repro/internal/ctl"
	"repro/internal/obs"
	"repro/internal/rollup"
	"repro/internal/services"
)

// AggConfig configures an aggregator.
type AggConfig struct {
	// Probes is how many distinct probe IDs constitute a complete run:
	// once that many have sent FIN, the aggregator drains (closes
	// Done). Zero means never drain — run until stopped.
	Probes int
	// StatePath, when set, persists aggregation state so a restarted
	// aggregator resumes from its durable cursors instead of zero.
	StatePath string
	// PersistEvery is how many applied messages may accumulate before
	// the state file is rewritten (default 16). FIN always persists
	// immediately — a probe's Finish returns only once its whole run
	// is in the state file.
	PersistEvery int
	// IdleTimeout is the per-connection read deadline (default 60s);
	// probes ping well inside it.
	IdleTimeout time.Duration
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
	// Registry, when set, is where the aggregator registers its
	// metrics; when nil a private registry is created, so the ctl
	// `metrics` verb always answers.
	Registry *obs.Registry
	// WrapConn, when set, wraps every accepted probe connection — the
	// seam chaos-enabled daemons inject wire faults through.
	WrapConn func(net.Conn) net.Conn
	// FS, when set, replaces the OS filesystem for state persistence
	// and snapshot writes — the chaos.FS seam.
	FS chaos.FS
}

// probeState is one probe's slice of aggregator state.
type probeState struct {
	incarnation uint64
	applied     uint64 // highest seq folded into part
	durable     uint64 // highest seq captured by the last persist
	watermark   uint64 // max received watermark, on the probe's grid
	cfg         rollup.Config
	fin         bool
	part        *rollup.Partial // nil until the first epoch
	conn        net.Conn        // live connection, if any (latest wins)
	// appliedBytes tracks part's cell totals incrementally (exact:
	// integer-valued sums), so the conservation gauges never need a
	// full fold; an incarnation reset subtracts it back out.
	appliedBytes [services.NumDirections]float64
	lastApply    time.Time // wall time of the last applied message
}

// Aggregator accepts probe connections and folds their epoch streams
// into per-probe partials with the exact Merge algebra. Keeping one
// partial per probe (folded into the national view only on demand) is
// what makes probe restarts clean: a reconnect under a new incarnation
// discards that probe's partial alone and replays, touching nothing
// already aggregated from its peers.
type Aggregator struct {
	cfg     AggConfig
	ln      net.Listener
	ctl     *ctl.Server // nil without a ctl address
	reg     *obs.Registry
	metrics *AggMetrics

	mu       sync.Mutex
	base     rollup.Config // union of every accepted grid; adopted from the first Hello
	haveBase bool
	probes   map[string]*probeState
	dirty    int // applied-but-not-persisted message count
	draining bool
	// foldCache and snapCache memoize the national fold and its v2
	// encoding between mutations, so ctl clients polling
	// snapshot/window/query pay a re-fold and re-encode only after new
	// epochs actually arrived. The cached partial is immutable once
	// built (folding clones; views copy), so readers may slice it
	// outside the lock.
	foldCache *rollup.Partial
	snapCache []byte
	// stateBuf and partBuf are persistLocked's scratch — the state file
	// image and one probe's partial blob — kept across persists so a
	// rewrite reuses the previous one's memory.
	stateBuf, partBuf bytes.Buffer

	done     chan struct{} // closed when Probes distinct probes have fin'd
	stopping atomic.Bool   // set by Stop before it interrupts the handlers' reads
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewAggregator binds addr, loads the state file if one exists, and
// starts accepting probes. ctlAddr, when non-empty, serves the
// internal/ctl admin protocol (status, snapshot, query, window,
// metrics) over the live fold on a second listener.
func NewAggregator(addr, ctlAddr string, cfg AggConfig) (*Aggregator, error) {
	if cfg.PersistEvery <= 0 {
		cfg.PersistEvery = 16
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.FS == nil {
		cfg.FS = chaos.OS
	}
	a := &Aggregator{
		cfg:     cfg,
		reg:     cfg.Registry,
		metrics: newAggMetrics(cfg.Registry),
		probes:  make(map[string]*probeState),
		done:    make(chan struct{}),
	}
	a.registerAggFuncs()
	if cfg.StatePath != "" {
		if err := a.loadState(); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a.ln = ln
	if ctlAddr != "" {
		if a.ctl, err = ctl.Serve(ctlAddr, ctlBackend{a}, a.reg); err != nil {
			ln.Close()
			return nil, err
		}
	}
	a.mu.Lock()
	a.checkDrain()
	a.mu.Unlock()
	a.wg.Add(1)
	go a.accept()
	return a, nil
}

// Addr returns the probe listener's bound address.
func (a *Aggregator) Addr() string { return a.ln.Addr().String() }

// CtlAddr returns the admin listener's bound address ("" if none).
func (a *Aggregator) CtlAddr() string {
	if a.ctl == nil {
		return ""
	}
	return a.ctl.Addr()
}

// Done is closed once Probes distinct probes have completed their
// runs (their FINs are durable).
func (a *Aggregator) Done() <-chan struct{} { return a.done }

// Stop closes the listeners, ends the probe connections (each after
// the reply it may be writing), persists state, and waits for the
// handlers to exit. Safe to call more than once.
func (a *Aggregator) Stop() {
	a.stopOnce.Do(func() {
		a.ln.Close()
		if a.ctl != nil {
			a.ctl.Close()
		}
		a.stopping.Store(true)
		a.mu.Lock()
		for _, ps := range a.probes {
			if ps.conn != nil {
				// Interrupt the handler's read, never its write: the last
				// fin's ack, whose persist closed Done and brought the caller
				// here, still reaches its probe. The handler closes the conn.
				ps.conn.SetReadDeadline(time.Now())
			}
		}
		a.persistLocked()
		a.mu.Unlock()
	})
	a.wg.Wait()
}

func (a *Aggregator) accept() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return
		}
		if a.cfg.WrapConn != nil {
			conn = a.cfg.WrapConn(conn)
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			// Fault isolation: one probe's connection handler must never
			// take the aggregator down. A panic here (a decode bug tickled
			// by a hostile or corrupted stream) kills this connection only;
			// apply's mutations happen under a.mu with deferred unlocks, so
			// shared state stays consistent and the probe's cursor simply
			// stays where the last completed apply left it.
			defer func() {
				if r := recover(); r != nil {
					a.metrics.ConnPanics.Inc()
					a.cfg.Logf("epochwire: probe connection from %s: recovered panic: %v", conn.RemoteAddr(), r)
				}
				conn.Close()
			}()
			if err := a.serve(conn); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				a.cfg.Logf("epochwire: probe connection from %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// serve runs one probe connection: handshake, then the epoch/ack loop.
func (a *Aggregator) serve(conn net.Conn) error {
	conn.SetReadDeadline(time.Now().Add(a.cfg.IdleTimeout))
	br := bufio.NewReader(conn)
	h, err := ReadHello(br)
	if err != nil {
		var ve *VersionError
		if errors.As(err, &ve) {
			a.metrics.Rejects.Inc()
			WriteWelcome(conn, &Welcome{Reject: ve.Error()})
		}
		return err
	}
	a.metrics.Conns.Inc()

	a.mu.Lock()
	// Adopt the first grid, union in every later one. A grid that
	// cannot union (different step or geography, off-lattice start) is
	// a misconfigured probe: reject it at the door.
	if !a.haveBase {
		a.base, a.haveBase = h.Cfg, true
	} else if u, err := a.base.Union(h.Cfg); err != nil {
		a.mu.Unlock()
		a.metrics.Rejects.Inc()
		WriteWelcome(conn, &Welcome{Reject: err.Error()})
		return fmt.Errorf("epochwire: rejecting probe %q: %w", h.ProbeID, err)
	} else {
		a.base = u
	}
	ps := a.probes[h.ProbeID]
	if ps == nil {
		ps = &probeState{}
		a.probes[h.ProbeID] = ps
		a.registerProbeFuncsLocked(h.ProbeID, ps)
	}
	if old := ps.conn; old != nil {
		old.Close() // latest connection for a probe ID wins
	}
	ps.conn = conn
	// The config must land before any persist can run: the incarnation
	// reset below persists, and a brand-new probe's entry serialized
	// with a zero config would poison the state file for the next
	// restart (a load-time decode error), not just this session.
	ps.cfg = h.Cfg
	if ps.incarnation != h.Incarnation {
		// A new probe process: its replayed stream supersedes whatever
		// the old incarnation delivered. Reset this probe's slice of
		// state; peers are untouched.
		if ps.incarnation != 0 || ps.applied != 0 {
			a.cfg.Logf("epochwire: probe %q restarted (incarnation %x→%x), resetting its stream", h.ProbeID, ps.incarnation, h.Incarnation)
			a.metrics.IncarnationResets.Inc()
		}
		ps.incarnation = h.Incarnation
		ps.applied, ps.durable, ps.watermark = 0, 0, 0
		ps.fin = false
		ps.part = nil
		// The discarded stream's bytes leave the conservation gauges
		// with it; the replay re-adds them.
		for d := range ps.appliedBytes {
			a.metrics.AppliedBytes[d].Add(-int64(ps.appliedBytes[d]))
			ps.appliedBytes[d] = 0
		}
		a.foldCache, a.snapCache = nil, nil
		a.persistTolerantLocked()
	}
	durable := ps.durable
	a.mu.Unlock()

	// Every write to the probe gets its own deadline: a probe that
	// stops draining its socket times out and loses only its own
	// connection, instead of parking this handler (and whatever locks a
	// stuck write would transitively hold) forever.
	conn.SetWriteDeadline(time.Now().Add(a.cfg.IdleTimeout))
	if err := WriteWelcome(conn, &Welcome{Durable: durable}); err != nil {
		return err
	}
	a.cfg.Logf("epochwire: probe %q connected from %s (durable %d)", h.ProbeID, conn.RemoteAddr(), durable)

	for {
		conn.SetReadDeadline(time.Now().Add(a.cfg.IdleTimeout))
		// Checked after arming the deadline: Stop sets the flag before it
		// interrupts reads, so one of the two always ends this loop.
		if a.stopping.Load() {
			return net.ErrClosed
		}
		m, err := ReadMessage(br)
		if err != nil {
			if a.stopping.Load() {
				return net.ErrClosed
			}
			return err
		}
		switch m.Type {
		case MsgPing:
			durable, err := a.pingState(h.ProbeID, h.Incarnation)
			if err != nil {
				return err
			}
			conn.SetWriteDeadline(time.Now().Add(a.cfg.IdleTimeout))
			if err := WriteMessage(conn, &Message{Type: MsgPong, Durable: durable}); err != nil {
				return err
			}
		case MsgEpoch, MsgFin:
			ack, err := a.apply(h.ProbeID, h.Incarnation, m)
			if err != nil {
				return err
			}
			conn.SetWriteDeadline(time.Now().Add(a.cfg.IdleTimeout))
			if err := WriteMessage(conn, ack); err != nil {
				return err
			}
		default:
			return fmt.Errorf("epochwire: unexpected %q message from probe %q", m.Type, h.ProbeID)
		}
	}
}

// pingState answers a keepalive: when the probe has applied-but-not-
// durable messages (an earlier state persist failed), the ping is the
// retry trigger, so an idle session still converges to durability.
// Returns the durable cursor the pong should carry.
func (a *Aggregator) pingState(probeID string, incarnation uint64) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ps := a.probes[probeID]
	if ps == nil || ps.incarnation != incarnation {
		return 0, fmt.Errorf("epochwire: probe %q state superseded mid-stream", probeID)
	}
	if ps.durable < ps.applied {
		a.persistTolerantLocked()
	}
	return ps.durable, nil
}

// apply folds one epoch/fin message into the probe's partial and
// returns the ack. Duplicates (seq already applied — a retransmit
// racing an ack) are acked without re-applying; a sequence gap means
// the peers disagree about history and kills the connection.
func (a *Aggregator) apply(probeID string, incarnation uint64, m *Message) (*Message, error) {
	// Decode outside a.mu: the blob decode is the expensive part of an
	// apply and reads nothing from shared state, so one probe's slow or
	// enormous epoch no longer stalls its peers' applies and the ctl
	// plane's folds. (A duplicate pays a wasted decode — retransmit
	// races are rare; a stalled aggregator is not.)
	part, err := rollup.Read(bytes.NewReader(m.Blob))
	if err != nil {
		return nil, fmt.Errorf("epochwire: probe %q seq %d: %w", probeID, m.Seq, err)
	}
	if m.Type == MsgEpoch && len(part.Epochs) == 0 {
		return nil, fmt.Errorf("epochwire: probe %q seq %d: epoch message with no epoch", probeID, m.Seq)
	}
	if m.Type == MsgFin && len(part.Epochs) != 0 {
		return nil, fmt.Errorf("epochwire: probe %q seq %d: fin message carrying %d epochs", probeID, m.Seq, len(part.Epochs))
	}
	// The message partial's cell totals feed the conservation gauges;
	// computed before the merge consumes it (one epoch: a short walk).
	msgBytes := part.CellTotals()

	a.mu.Lock()
	defer a.mu.Unlock()
	ps := a.probes[probeID]
	if ps == nil || ps.incarnation != incarnation {
		return nil, fmt.Errorf("epochwire: probe %q state superseded mid-stream", probeID)
	}
	if m.Seq <= ps.applied {
		a.metrics.Duplicates.Inc()
		// A retransmit means the probe never saw our ack — often because
		// the session died right after a persist failure. Retry the
		// persist here so the duplicate's ack can report progress.
		if ps.durable < ps.applied {
			a.persistTolerantLocked()
		}
		return &Message{Type: MsgAck, Seq: m.Seq, Durable: ps.durable}, nil
	}
	if m.Seq != ps.applied+1 {
		a.metrics.SeqGaps.Inc()
		return nil, fmt.Errorf("epochwire: probe %q sent seq %d after %d", probeID, m.Seq, ps.applied)
	}
	if ps.part == nil {
		ps.part = part
	} else if err := ps.part.Merge(part); err != nil {
		return nil, fmt.Errorf("epochwire: probe %q seq %d: %w", probeID, m.Seq, err)
	}
	a.foldCache, a.snapCache = nil, nil
	ps.applied = m.Seq
	ps.lastApply = time.Now()
	for d := range msgBytes {
		ps.appliedBytes[d] += msgBytes[d]
		a.metrics.AppliedBytes[d].Add(int64(msgBytes[d]))
	}
	if m.Type == MsgEpoch {
		a.metrics.EpochsApplied.Inc()
	}
	if m.Watermark > ps.watermark {
		ps.watermark = m.Watermark
	}
	a.dirty++
	if m.Type == MsgFin {
		ps.fin = true
		a.metrics.FinsApplied.Inc()
	}
	// FIN triggers a persist unconditionally: the probe's Finish blocks
	// until its fin is *durable*, so exit 0 on the probe certifies the
	// whole run is in this aggregator's state file. A persist failure
	// is tolerated, not fatal to the connection: the ack honestly
	// reports the stale durable cursor, the probe keeps the session and
	// its spool, and the next apply, duplicate, or ping retries — the
	// durable cursor lags until the disk recovers, which is exactly
	// what a cursor is for.
	if m.Type == MsgFin || a.dirty >= a.cfg.PersistEvery {
		a.persistTolerantLocked()
	}
	return &Message{Type: MsgAck, Seq: m.Seq, Durable: ps.durable}, nil
}

// persistTolerantLocked persists, tolerating failure: the durable
// cursors simply stay behind and a later trigger retries. Success may
// newly satisfy the drain condition (fins become durable), so it
// re-checks. Caller holds mu.
func (a *Aggregator) persistTolerantLocked() {
	if err := a.persistLocked(); err != nil {
		a.metrics.PersistErrors.Inc()
		a.cfg.Logf("epochwire: state persist failed (durable cursors lag until a retry lands): %v", err)
		return
	}
	a.checkDrain()
}

// checkDrain closes done once enough distinct probes have fin'd
// *durably* — fin applied and captured by a successful persist — so
// draining never certifies a run the state file doesn't hold yet.
// Caller holds mu.
func (a *Aggregator) checkDrain() {
	if a.draining || a.cfg.Probes <= 0 {
		return
	}
	fins := 0
	for _, ps := range a.probes {
		if ps.fin && ps.durable >= ps.applied {
			fins++
		}
	}
	if fins >= a.cfg.Probes {
		a.draining = true
		close(a.done)
	}
}

// Fold merges every probe's partial into one national-view partial on
// the union grid. Merge order is fixed (sorted probe IDs) but
// irrelevant: the algebra is exact and the encoding canonical, so any
// order produces the same bytes. The returned partial is the caller's
// to mutate: it is decoded fresh from the memoized encoding.
func (a *Aggregator) Fold() (*rollup.Partial, error) {
	a.mu.Lock()
	b, err := a.snapshotBytesLocked()
	a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return rollup.Read(bytes.NewReader(b))
}

// foldCachedLocked returns the memoized national fold, rebuilding it
// only after a mutation invalidated the cache. Callers must treat the
// result as read-only; views (Window/Filter) copy.
func (a *Aggregator) foldCachedLocked() (*rollup.Partial, error) {
	if a.foldCache != nil {
		return a.foldCache, nil
	}
	p, err := a.foldLocked()
	if err != nil {
		return nil, err
	}
	a.foldCache = p
	return p, nil
}

// snapshotBytesLocked returns the fold's v2 snapshot encoding,
// memoized alongside the fold. The slice is immutable once built
// (invalidation replaces it), so it may be written to clients and
// files outside the lock.
func (a *Aggregator) snapshotBytesLocked() ([]byte, error) {
	if a.snapCache != nil {
		return a.snapCache, nil
	}
	part, err := a.foldCachedLocked()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rollup.WriteV2(&buf, part); err != nil {
		return nil, err
	}
	a.snapCache = buf.Bytes()
	return a.snapCache, nil
}

func (a *Aggregator) foldLocked() (*rollup.Partial, error) {
	ids := make([]string, 0, len(a.probes))
	for id, ps := range a.probes {
		if ps.part != nil {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		if !a.haveBase {
			return nil, fmt.Errorf("epochwire: nothing aggregated yet")
		}
		return &rollup.Partial{Cfg: a.base}, nil
	}
	sort.Strings(ids)
	// Clone the first partial via an encode/decode round trip so the
	// fold never mutates live per-probe state.
	var buf bytes.Buffer
	if err := rollup.Write(&buf, a.probes[ids[0]].part); err != nil {
		return nil, err
	}
	out, err := rollup.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	for _, id := range ids[1:] {
		if err := out.Merge(a.probes[id].part); err != nil {
			return nil, fmt.Errorf("epochwire: folding probe %q: %w", id, err)
		}
	}
	return out, nil
}

// WriteSnapshot folds and writes the aggregate to path (atomically,
// via a temp file) in snapshot format v2, so an aggd spool directory
// is directly openable as an indexed catalog store.
func (a *Aggregator) WriteSnapshot(path string) error {
	a.mu.Lock()
	b, err := a.snapshotBytesLocked()
	a.mu.Unlock()
	if err != nil {
		return err
	}
	return atomicWrite(a.cfg.FS, path, b)
}

// Status is the machine-readable aggregator state for the admin
// socket and logs.
type Status struct {
	Probes []ProbeStatus `json:"probes"`
	// SealedThrough is the first bin on the union grid that some live
	// probe may still write to — everything below it is final.
	SealedThrough int  `json:"sealed_through"`
	Draining      bool `json:"draining"`
}

// ProbeStatus is one probe's slice of Status.
type ProbeStatus struct {
	ID        string `json:"id"`
	Applied   uint64 `json:"applied"`
	Durable   uint64 `json:"durable"`
	Watermark uint64 `json:"watermark"`
	Fin       bool   `json:"fin"`
	Epochs    int    `json:"epochs"`
	Connected bool   `json:"connected"`
	// AgeSeconds is the time since this probe's last applied message;
	// -1 before the first.
	AgeSeconds float64 `json:"age_seconds"`
	// Lag is how many bins this probe's sealed frontier trails the
	// fastest probe's, on the union grid.
	Lag int `json:"lag"`
}

// StatusNow reports per-probe cursors and the aggregate watermark.
func (a *Aggregator) StatusNow() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Status{Draining: a.draining}
	ids := make([]string, 0, len(a.probes))
	for id := range a.probes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	sealed := -1
	lead := 0 // the fastest probe's frontier, for per-probe lag
	unionWM := make([]int, len(ids))
	for i, id := range ids {
		ps := a.probes[id]
		n := 0
		if ps.part != nil {
			n = len(ps.part.Epochs)
		}
		age := -1.0
		if !ps.lastApply.IsZero() {
			age = time.Since(ps.lastApply).Seconds()
		}
		st.Probes = append(st.Probes, ProbeStatus{
			ID: id, Applied: ps.applied, Durable: ps.durable,
			Watermark: ps.watermark, Fin: ps.fin, Epochs: n,
			Connected: ps.conn != nil, AgeSeconds: age,
		})
		// Shift the probe-grid watermark onto the union grid: the
		// sealed frontier is the minimum across probes.
		off := int(ps.cfg.Start.Sub(a.base.Start) / a.base.Step)
		wm := off + int(ps.watermark)
		unionWM[i] = wm
		if i == 0 || wm < sealed {
			sealed = wm
		}
		if wm > lead {
			lead = wm
		}
	}
	for i := range st.Probes {
		st.Probes[i].Lag = lead - unionWM[i]
	}
	if sealed < 0 {
		sealed = 0
	}
	st.SealedThrough = sealed
	return st
}

// CheckConservation is the telemetry plane as a correctness oracle:
// the cell bytes applied from live probe streams, the national fold's
// cell totals, and the totals of a snapshot decoded back from the
// fold's encoding must agree exactly, per direction. Any difference
// is an accounting bug (all three are sums of the same integer-valued
// contributions), so the daemons run this check on the way out and CI
// asserts it over a live scrape.
func (a *Aggregator) CheckConservation() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var applied [services.NumDirections]float64
	any := false
	for _, ps := range a.probes {
		if ps.part == nil {
			continue
		}
		any = true
		for d := range applied {
			applied[d] += ps.appliedBytes[d]
		}
	}
	if !any {
		return nil // nothing aggregated: trivially conserved
	}
	fold, err := a.foldCachedLocked()
	if err != nil {
		return err
	}
	foldTotals := fold.CellTotals()
	snap, err := a.snapshotBytesLocked()
	if err != nil {
		return err
	}
	decoded, err := rollup.Read(bytes.NewReader(snap))
	if err != nil {
		return err
	}
	snapTotals := decoded.CellTotals()
	for d := range applied {
		dir := services.Direction(d)
		if applied[d] != foldTotals[d] {
			return fmt.Errorf("epochwire: conservation violated: applied %.0f %v bytes but the fold holds %.0f", applied[d], dir, foldTotals[d])
		}
		if foldTotals[d] != snapTotals[d] {
			return fmt.Errorf("epochwire: conservation violated: fold holds %.0f %v bytes but its snapshot decodes to %.0f", foldTotals[d], dir, snapTotals[d])
		}
	}
	return nil
}

// --- admin (ctl) socket -------------------------------------------------

// ctlBackend answers internal/ctl's protocol from the live fold. Every
// method takes a.mu only to fetch memoized state — immutable once built
// — and does the rest outside it, so a slow query never stalls ingest.
type ctlBackend struct{ a *Aggregator }

func (b ctlBackend) Status() (any, error) { return b.a.StatusNow(), nil }

func (b ctlBackend) Snapshot() ([]byte, error) {
	b.a.mu.Lock()
	defer b.a.mu.Unlock()
	return b.a.snapshotBytesLocked()
}

func (b ctlBackend) View(spec rollup.ViewSpec) (*rollup.Partial, error) {
	b.a.mu.Lock()
	part, err := b.a.foldCachedLocked()
	b.a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return spec.Apply(part)
}

// --- state persistence --------------------------------------------------
//
// The state file is what makes aggregator restarts invisible to the
// conformance bar: cursors and partials survive, probes resume from
// their durable seq, and nothing is double-counted.
//
//	magic "EPWSTAT" + version byte 1
//	base-config flag byte (0/1), then config blob (uvarint len + bytes)
//	probe count uvarint, then per probe:
//	  id string, incarnation 8B BE, applied uvarint, watermark uvarint,
//	  fin byte, config blob, partial flag byte + snapshot blob
//	crc32 (IEEE) of everything before it, 4B BE

var stateMagic = []byte("EPWSTAT")

const stateVersion = 1

// persistLocked rewrites the state file. Caller holds mu. On success
// every probe's durable cursor catches up to its applied cursor.
func (a *Aggregator) persistLocked() error {
	if a.cfg.StatePath == "" {
		for _, ps := range a.probes {
			ps.durable = ps.applied // no file: "durable" is in-memory
		}
		a.dirty = 0
		return nil
	}
	buf := &a.stateBuf
	buf.Reset()
	buf.Write(stateMagic)
	buf.WriteByte(stateVersion)
	if a.haveBase {
		buf.WriteByte(1)
		blob, err := EncodeConfig(a.base)
		if err != nil {
			return err
		}
		if err := capture.WriteString(buf, string(blob)); err != nil {
			return err
		}
	} else {
		buf.WriteByte(0)
	}
	ids := make([]string, 0, len(a.probes))
	for id := range a.probes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if err := capture.WriteUvarint(buf, uint64(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		ps := a.probes[id]
		if err := capture.WriteString(buf, id); err != nil {
			return err
		}
		var i64 [8]byte
		binary.BigEndian.PutUint64(i64[:], ps.incarnation)
		buf.Write(i64[:])
		if err := capture.WriteUvarint(buf, ps.applied); err != nil {
			return err
		}
		if err := capture.WriteUvarint(buf, ps.watermark); err != nil {
			return err
		}
		if ps.fin {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		blob, err := EncodeConfig(ps.cfg)
		if err != nil {
			return err
		}
		if err := capture.WriteString(buf, string(blob)); err != nil {
			return err
		}
		if ps.part == nil {
			buf.WriteByte(0)
		} else {
			buf.WriteByte(1)
			pbuf := &a.partBuf
			pbuf.Reset()
			if err := rollup.Write(pbuf, ps.part); err != nil {
				return err
			}
			if err := capture.WriteUvarint(buf, uint64(pbuf.Len())); err != nil {
				return err
			}
			buf.Write(pbuf.Bytes())
		}
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	if err := atomicWrite(a.cfg.FS, a.cfg.StatePath, buf.Bytes()); err != nil {
		return err
	}
	a.metrics.Persists.Inc()
	for _, ps := range a.probes {
		ps.durable = ps.applied
	}
	a.dirty = 0
	return nil
}

func (a *Aggregator) loadState() error {
	raw, err := a.cfg.FS.ReadFile(a.cfg.StatePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(raw) < len(stateMagic)+1+4 {
		return fmt.Errorf("epochwire: state file %s truncated", a.cfg.StatePath)
	}
	body, crc := raw[:len(raw)-4], raw[len(raw)-4:]
	sum := crc32.ChecksumIEEE(body)
	if binary.BigEndian.Uint32(crc) != sum {
		return fmt.Errorf("epochwire: state file %s CRC mismatch", a.cfg.StatePath)
	}
	r := bufio.NewReader(bytes.NewReader(body))
	var magic [7]byte
	if err := capture.ReadFull(r, magic[:], "state magic"); err != nil {
		return err
	}
	if !bytes.Equal(magic[:], stateMagic) {
		return fmt.Errorf("epochwire: %s is not an aggregator state file", a.cfg.StatePath)
	}
	ver, err := r.ReadByte()
	if err != nil {
		return err
	}
	if ver != stateVersion {
		return fmt.Errorf("epochwire: state file version %d, want %d", ver, stateVersion)
	}
	haveBase, err := r.ReadByte()
	if err != nil {
		return err
	}
	if haveBase == 1 {
		blob, err := capture.ReadStringLimited(r, MaxConfigBlob, "state base config")
		if err != nil {
			return err
		}
		if a.base, err = DecodeConfig([]byte(blob)); err != nil {
			return err
		}
		a.haveBase = true
	}
	n, err := capture.ReadUvarint(r, 1<<16, "state probe count")
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		id, err := capture.ReadStringLimited(r, MaxProbeID, "state probe ID")
		if err != nil {
			return err
		}
		ps := &probeState{}
		var i64 [8]byte
		if err := capture.ReadFull(r, i64[:], "state incarnation"); err != nil {
			return err
		}
		ps.incarnation = binary.BigEndian.Uint64(i64[:])
		if ps.applied, err = capture.ReadUvarint(r, ^uint64(0)>>1, "state applied"); err != nil {
			return err
		}
		ps.durable = ps.applied // the file is the definition of durable
		if ps.watermark, err = capture.ReadUvarint(r, rollup.MaxBins+1, "state watermark"); err != nil {
			return err
		}
		fin, err := r.ReadByte()
		if err != nil {
			return err
		}
		ps.fin = fin == 1
		blob, err := capture.ReadStringLimited(r, MaxConfigBlob, "state probe config")
		if err != nil {
			return err
		}
		if ps.cfg, err = DecodeConfig([]byte(blob)); err != nil {
			return err
		}
		havePart, err := r.ReadByte()
		if err != nil {
			return err
		}
		if havePart == 1 {
			pb, err := capture.ReadStringLimited(r, MaxBlob, "state probe partial")
			if err != nil {
				return err
			}
			if ps.part, err = rollup.Read(strings.NewReader(pb)); err != nil {
				return fmt.Errorf("epochwire: state partial for probe %q: %w", id, err)
			}
			// Reseed the conservation gauges: counters reset with the
			// process, but applied bytes are state, not history.
			ps.appliedBytes = ps.part.CellTotals()
			for d := range ps.appliedBytes {
				a.metrics.AppliedBytes[d].Add(int64(ps.appliedBytes[d]))
			}
		}
		a.probes[id] = ps
		a.registerProbeFuncsLocked(id, ps)
	}
	if r.Buffered() > 0 {
		return fmt.Errorf("epochwire: trailing bytes in state file %s", a.cfg.StatePath)
	}
	return nil
}

// atomicWrite writes data to path durably: temp file, write, fsync,
// close, rename, directory fsync. A crash at any point leaves either
// the complete old file or the complete new one (plus at worst a stale
// .tmp that the next write truncates), and a completed rename survives
// power loss — the invariant every durability point of this package
// leans on.
func atomicWrite(fs chaos.FS, path string, data []byte) error {
	if fs == nil {
		fs = chaos.OS
	}
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}
