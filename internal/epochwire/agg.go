package epochwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// StatePath, when set, keeps a log of every accepted handshake and
	// message there, so a restarted aggregator replays it and resumes
	// from its durable cursors instead of zero.
	StatePath string
	// PersistEvery is how many applied messages may accumulate before
	// they are committed to the state log (default 16). FIN always
	// commits immediately — a probe's Finish returns only once its
	// whole run is in the state log.
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
	durable     uint64 // highest seq covered by a state log commit
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
	// hello is the state log's 'H' record for the last handshake that
	// changed this probe: appended then, and again whenever the log's
	// records switch back to this probe from another's.
	hello []byte
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
	metrics *AggMetrics

	mu       sync.Mutex
	base     rollup.Config // union of every accepted grid; adopted from the first Hello
	haveBase bool
	probes   map[string]*probeState
	dirty    int // applied-but-not-committed message count
	draining bool
	// foldCache and snapCache memoize the national fold and its v2
	// encoding between mutations, so ctl clients polling
	// snapshot/window/query pay a re-fold and re-encode only after new
	// epochs actually arrived. The cached partial is immutable once
	// built (folding clones; views copy), so readers may slice it
	// outside the lock.
	foldCache *rollup.Partial
	snapCache []byte
	// The state log (nil without a StatePath): committed bytes of it are
	// written and fsynced, tail holds the records accepted since, and
	// cur is the probe its last 'H' record names.
	log       chaos.File
	committed int64
	tail      []byte
	cur       *probeState

	done     chan struct{} // closed when Probes distinct probes have fin'd
	stopping atomic.Bool   // set by Stop before it interrupts the handlers' reads
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewAggregator binds addr, replays the state log if one exists, and
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
		metrics: newAggMetrics(cfg.Registry),
		probes:  make(map[string]*probeState),
		done:    make(chan struct{}),
	}
	a.registerAggFuncs()
	if cfg.StatePath != "" {
		if err := a.openLog(); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err == nil && ctlAddr != "" {
		if a.ctl, err = ctl.Serve(ctlAddr, ctlBackend{a}, cfg.Registry); err != nil {
			ln.Close()
		}
	}
	if err != nil {
		if a.log != nil {
			a.log.Close()
		}
		return nil, err
	}
	a.ln = ln
	a.mu.Lock()
	// A new log's header is committed here; after a replay there is
	// nothing to write, durable catches up to applied, and a run that
	// had finished drains at once.
	a.persistTolerantLocked()
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
// the reply it may be writing), commits the state log, and waits for
// the handlers to exit. Safe to call more than once.
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
				// fin's ack, whose commit closed Done and brought the caller
				// here, still reaches its probe. The handler closes the conn.
				ps.conn.SetReadDeadline(time.Now())
			}
		}
		a.persistTolerantLocked()
		a.mu.Unlock()
		a.wg.Wait()
		if a.log != nil {
			a.log.Close()
		}
	})
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
		if errors.As(err, &ve) || errors.Is(err, errProbeID) {
			a.metrics.Rejects.Inc()
			WriteWelcome(conn, &Welcome{Reject: err.Error()})
		}
		return err
	}
	a.metrics.Conns.Inc()

	a.mu.Lock()
	ps, changed, err := a.admit(h)
	if err != nil {
		a.mu.Unlock()
		a.metrics.Rejects.Inc()
		WriteWelcome(conn, &Welcome{Reject: err.Error()})
		return fmt.Errorf("epochwire: rejecting probe %q: %w", h.ProbeID, err)
	}
	if old := ps.conn; old != nil {
		old.Close() // latest connection for a probe ID wins
	}
	ps.conn = conn
	if changed {
		a.logLocked(ps, nil)
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
		var reply *Message
		switch m.Type {
		case MsgPing:
			reply, err = a.pingState(h.ProbeID, h.Incarnation)
		case MsgEpoch, MsgFin:
			reply, err = a.apply(h.ProbeID, h.Incarnation, m)
		default:
			err = fmt.Errorf("epochwire: unexpected %q message from probe %q", m.Type, h.ProbeID)
		}
		if err != nil {
			return err
		}
		conn.SetWriteDeadline(time.Now().Add(a.cfg.IdleTimeout))
		if err := WriteMessage(conn, reply); err != nil {
			return err
		}
	}
}

// maxProbes bounds the distinct probe IDs tracked: any peer can name a
// new one, and each costs a probeState, five gauges and a log record.
var maxProbes = 1 << 16

// admit is a handshake's whole effect on aggregator state, from the
// network and from the state log's replay alike: union the grid into
// base, create the probe's state, reset it for a new incarnation.
// changed reports a hello unlike the last one admitted for this ID (a
// new probe, incarnation or grid): the ones a restart needs logged. An
// error — a grid that cannot union, one probe too many — leaves no
// trace. Caller holds mu.
func (a *Aggregator) admit(h *Hello) (ps *probeState, changed bool, err error) {
	// Adopt the first grid, union in every later one. A grid that
	// cannot union (different step or geography, off-lattice start) is
	// a misconfigured probe: reject it at the door.
	base := h.Cfg
	if a.haveBase {
		if base, err = a.base.Union(h.Cfg); err != nil {
			return nil, false, err
		}
	}
	hello, err := appendHello(nil, h)
	if err != nil {
		return nil, false, err
	}
	rec := appendFrame(nil, recHello, hello, nil)
	if ps = a.probes[h.ProbeID]; ps == nil {
		if len(a.probes) >= maxProbes {
			return nil, false, fmt.Errorf("epochwire: already tracking %d probe IDs, the limit", maxProbes)
		}
		ps = &probeState{}
		a.probes[h.ProbeID] = ps
		a.registerProbeFuncsLocked(h.ProbeID, ps)
	}
	a.base, a.haveBase = base, true
	changed = !bytes.Equal(ps.hello, rec)
	if ps.incarnation != h.Incarnation {
		// A new probe process: its replayed stream supersedes whatever
		// the old incarnation delivered. Reset this probe's slice of
		// state; peers are untouched.
		if ps.incarnation != 0 || ps.applied != 0 {
			a.cfg.Logf("epochwire: probe %q restarted (incarnation %x→%x), resetting its stream", h.ProbeID, ps.incarnation, h.Incarnation)
			a.metrics.IncarnationResets.Inc()
		}
		// The discarded stream's bytes leave the conservation gauges
		// with it; the replay re-adds them.
		for d := range ps.appliedBytes {
			a.metrics.AppliedBytes[d].Add(-int64(ps.appliedBytes[d]))
		}
		*ps = probeState{incarnation: h.Incarnation, conn: ps.conn, lastApply: ps.lastApply}
		a.foldCache, a.snapCache = nil, nil
	}
	ps.hello, ps.cfg = rec, h.Cfg
	return ps, changed, nil
}

// pingState answers a keepalive with a pong carrying the probe's durable
// cursor. When the probe has applied-but-not-durable messages (an
// earlier commit failed), the ping is the retry trigger, so an idle
// session still converges to durability.
func (a *Aggregator) pingState(probeID string, incarnation uint64) (*Message, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ps := a.probes[probeID]
	if ps == nil || ps.incarnation != incarnation {
		return nil, fmt.Errorf("epochwire: probe %q state superseded mid-stream", probeID)
	}
	if ps.durable < ps.applied {
		a.persistTolerantLocked()
	}
	return &Message{Type: MsgPong, Durable: ps.durable}, nil
}

// decodeBlob parses a message's snapshot blob and checks it against the
// message type — the half of an apply that touches no shared state.
func decodeBlob(m *Message) (*rollup.Partial, error) {
	part, err := rollup.Read(bytes.NewReader(m.Blob))
	if err != nil {
		return nil, err
	}
	if (m.Type == MsgFin) != (len(part.Epochs) == 0) { // a fin carries totals only, an epoch at least one epoch
		return nil, fmt.Errorf("%q message carrying %d epochs", m.Type, len(part.Epochs))
	}
	return part, nil
}

// fold is the other half, and with admit the only code that changes
// what the aggregator holds: the network's apply and the state log's
// replay both end here. It merges m's decoded blob into ps's partial
// and advances the cursors, the conservation gauges and fin. dup
// reports a seq already applied (a retransmit racing an ack), nothing
// folded; a gap means the peers disagree about history. Caller holds mu.
func (a *Aggregator) fold(ps *probeState, m *Message, part *rollup.Partial) (dup bool, err error) {
	if m.Seq <= ps.applied {
		return true, nil
	}
	if m.Seq != ps.applied+1 {
		a.metrics.SeqGaps.Inc()
		return false, fmt.Errorf("seq %d after %d", m.Seq, ps.applied)
	}
	// The message partial's cell totals feed the conservation gauges;
	// computed before the merge consumes it (one epoch: a short walk).
	msgBytes := part.CellTotals()
	if ps.part == nil {
		ps.part = part
	} else if err := ps.part.Merge(part); err != nil {
		return false, err
	}
	a.foldCache, a.snapCache = nil, nil
	ps.applied = m.Seq
	for d := range msgBytes {
		ps.appliedBytes[d] += msgBytes[d]
		a.metrics.AppliedBytes[d].Add(int64(msgBytes[d]))
	}
	ps.watermark = max(ps.watermark, m.Watermark)
	if m.Type == MsgFin {
		ps.fin = true
		a.metrics.FinsApplied.Inc()
	} else {
		a.metrics.EpochsApplied.Inc()
	}
	return false, nil
}

// apply is the network's path to fold: decode, validate and fold one
// epoch/fin message, append it to the state log's tail, commit if it
// is time, and return the ack. A duplicate is acked without being
// re-applied (or logged); any error kills the connection.
func (a *Aggregator) apply(probeID string, incarnation uint64, m *Message) (*Message, error) {
	// Decode outside a.mu: the blob decode is the expensive part of an
	// apply and reads nothing from shared state, so one probe's slow or
	// enormous epoch no longer stalls its peers' applies and the ctl
	// plane's folds. (A duplicate pays a wasted decode — retransmit
	// races are rare; a stalled aggregator is not.)
	part, err := decodeBlob(m)
	if err != nil {
		return nil, fmt.Errorf("epochwire: probe %q seq %d: %w", probeID, m.Seq, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ps := a.probes[probeID]
	if ps == nil || ps.incarnation != incarnation {
		return nil, fmt.Errorf("epochwire: probe %q state superseded mid-stream", probeID)
	}
	dup, err := a.fold(ps, m, part)
	if err != nil {
		return nil, fmt.Errorf("epochwire: probe %q seq %d: %w", probeID, m.Seq, err)
	}
	if dup {
		a.metrics.Duplicates.Inc()
		// A retransmit means the probe never saw our ack — often because
		// the session died right after a commit failure. Retry the
		// commit here so the duplicate's ack can report progress.
		if ps.durable < ps.applied {
			a.persistTolerantLocked()
		}
		return &Message{Type: MsgAck, Seq: m.Seq, Durable: ps.durable}, nil
	}
	ps.lastApply = time.Now()
	a.logLocked(ps, m)
	a.dirty++
	// FIN triggers a commit unconditionally: the probe's Finish blocks
	// until its fin is *durable*, so exit 0 on the probe certifies the
	// whole run is in this aggregator's state log. A commit failure
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

// persistTolerantLocked commits the state log, tolerating failure: the
// durable cursors simply stay behind and a later trigger retries.
// Success may newly satisfy the drain condition (fins become durable),
// so it re-checks. Caller holds mu.
func (a *Aggregator) persistTolerantLocked() {
	if err := a.commitLocked(); err != nil {
		a.metrics.PersistErrors.Inc()
		a.cfg.Logf("epochwire: state log commit failed (durable cursors lag until a retry lands): %v", err)
		return
	}
	a.checkDrain()
}

// checkDrain closes done once enough distinct probes have fin'd
// *durably* — fin applied and covered by a successful commit — so
// draining never certifies a run the state log doesn't hold yet.
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
	b, err := a.snapshotBytes()
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

func (a *Aggregator) snapshotBytes() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snapshotBytesLocked()
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
	// Merge copies what it takes from its argument, so folding into an
	// empty partial on the first probe's grid never aliases live state.
	out := &rollup.Partial{Cfg: a.probes[ids[0]].part.Cfg}
	for _, id := range ids {
		if err := out.Merge(a.probes[id].part); err != nil {
			return nil, fmt.Errorf("epochwire: folding probe %q: %w", id, err)
		}
	}
	return out, nil
}

// WriteSnapshot folds and writes the aggregate to path in snapshot
// format v2 through chaos.WriteAtomic on the configured FS, so an aggd
// spool directory is directly openable as an indexed catalog store.
func (a *Aggregator) WriteSnapshot(path string) error {
	b, err := a.snapshotBytes()
	if err != nil {
		return err
	}
	return chaos.WriteAtomic(a.cfg.FS, path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
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
		lead = max(lead, wm)
	}
	for i := range st.Probes {
		st.Probes[i].Lag = lead - unionWM[i]
	}
	st.SealedThrough = max(sealed, 0)
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

func (b ctlBackend) Snapshot() ([]byte, error) { return b.a.snapshotBytes() }

func (b ctlBackend) View(spec rollup.ViewSpec) (*rollup.Partial, error) {
	b.a.mu.Lock()
	part, err := b.a.foldCachedLocked()
	b.a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return spec.Apply(part)
}

// --- state log ----------------------------------------------------------
//
// The state file is the accepted input, kept (DESIGN.md §10): logHeader,
// then wire frames in the order they were applied — 'H' records whose
// payload is a Hello, and the 'E'/'F' messages as they arrived. A message
// carries no probe ID; the nearest 'H' before it names its stream.
// Restarting is replaying the records through admit and fold.

const (
	logHeader = "EPWLOG\x01" // magic + format version
	recHello  = 'H'
	logTypes  = "HEF"
)

// logLocked appends what was just admitted (m == nil) or folded for ps
// to the uncommitted tail: ps's hello if it is new or the log's last
// record belongs to another probe, then m. Caller holds mu.
func (a *Aggregator) logLocked(ps *probeState, m *Message) {
	if a.log == nil {
		return
	}
	if m == nil || a.cur != ps {
		a.tail, a.cur = append(a.tail, ps.hello...), ps
	}
	if m != nil {
		a.tail = appendMessage(a.tail, m)
	}
}

// commitLocked makes the tail durable — written at the committed
// offset, then fsynced — and only then lets every durable cursor catch
// up to its applied cursor. On failure the tail stays in memory and the
// next commit writes it again from the same offset before syncing: a
// failed fsync may have dropped the pages of the write before it. The
// commit that creates the log syncs its directory too; with no state
// file "durable" is in-memory. Caller holds mu.
func (a *Aggregator) commitLocked() error {
	if len(a.tail) > 0 {
		if _, err := a.log.WriteAt(a.tail, a.committed); err != nil {
			return err
		}
		if err := a.log.Sync(); err != nil {
			return err
		}
		if a.committed == 0 {
			if err := a.cfg.FS.SyncDir(filepath.Dir(a.cfg.StatePath)); err != nil {
				return err
			}
		}
		a.committed += int64(len(a.tail))
		a.tail = a.tail[:0]
		a.metrics.Persists.Inc()
	}
	for _, ps := range a.probes {
		ps.durable = ps.applied
	}
	a.dirty = 0
	return nil
}

// openLog replays the state file and opens it for appending; a new
// log's header waits in the tail for the first commit.
func (a *Aggregator) openLog() error {
	start := time.Now()
	raw, err := a.cfg.FS.ReadFile(a.cfg.StatePath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	records, end, err := a.replay(raw)
	if err != nil {
		return fmt.Errorf("epochwire: state log %s: %w", a.cfg.StatePath, err)
	}
	if a.log, err = a.cfg.FS.OpenFile(a.cfg.StatePath, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return err
	}
	if err := a.log.Truncate(end); err != nil {
		a.log.Close()
		return err
	}
	if a.committed = end; end == 0 {
		a.tail = append(a.tail, logHeader...)
	}
	a.cfg.Logf("epochwire: state log: replayed %d records (%d bytes) in %v", records, end, time.Since(start))
	if torn := int64(len(raw)) - end; torn > 0 {
		a.cfg.Logf("epochwire: state log: dropped %d bytes of a torn final record", torn)
	}
	return nil
}

// replay feeds the log's records to admit and fold — the code the
// network feeds — and returns how many there were and where the log
// ends. A record that is complete but does not verify, parse or follow
// from the ones before it is an error naming its offset; only a final
// record cut short (an append torn by a crash) is the log's end, and
// end is then where it starts.
func (a *Aggregator) replay(raw []byte) (records int, end int64, err error) {
	switch {
	case bytes.HasPrefix(raw, []byte(logHeader)):
	case strings.HasPrefix(logHeader, string(raw)):
		return 0, 0, nil // no file yet, or a crash before the header landed
	case bytes.HasPrefix(raw, []byte("EPWSTAT")):
		return 0, 0, fmt.Errorf("written by an older build as one whole-state image, which this build cannot read: finish that run with the build that started it, or start on a new path")
	default:
		return 0, 0, fmt.Errorf("not an aggregator state log")
	}
	src := bytes.NewReader(raw[len(logHeader):])
	br := bufio.NewReader(src)
	for ; ; records++ {
		end = int64(len(raw) - src.Len() - br.Buffered())
		typ, payload, err := readFrame(br, logTypes)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return records, end, nil
		}
		if err == nil {
			err = a.replayRecord(typ, payload)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("record %d at offset %d: %w", records, end, err)
		}
	}
}

// replayRecord applies one verified record: a hello is admitted and
// becomes the current stream, a message is folded into it.
func (a *Aggregator) replayRecord(typ byte, payload []byte) error {
	if typ == recHello {
		br := bufio.NewReader(bytes.NewReader(payload))
		h, err := ReadHello(br)
		if err == nil && br.Buffered() > 0 {
			err = fmt.Errorf("%d bytes after the hello", br.Buffered())
		}
		if err == nil {
			a.cur, _, err = a.admit(h)
		}
		return err
	}
	m, err := parseMessage(typ, payload)
	if err != nil {
		return err
	}
	if a.cur == nil {
		return fmt.Errorf("%q message before any hello", typ)
	}
	part, err := decodeBlob(m)
	if err != nil {
		return err
	}
	dup, err := a.fold(a.cur, m, part)
	if dup {
		return fmt.Errorf("seq %d again after %d", m.Seq, a.cur.applied) // apply never logs a duplicate
	}
	return err
}
