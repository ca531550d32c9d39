package epochwire

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/rollup"
	"repro/internal/services"
)

// ShipperConfig configures a probe-side epoch shipper.
type ShipperConfig struct {
	// Addr is the aggregator's TCP address.
	Addr string
	// ProbeID names this probe to the aggregator: 1..MaxProbeID bytes
	// of [A-Za-z0-9._-].
	ProbeID string
	// SpoolPath is the on-disk spool file (created/truncated).
	SpoolPath string
	// Cfg is the probe's rollup grid, announced in the handshake.
	Cfg rollup.Config
	// Shards is the pipeline's shard count; the shipped watermark is
	// the minimum sealed horizon across all of them.
	Shards int
	// Keepalive is the idle interval before a ping (default 10s).
	Keepalive time.Duration
	// AckTimeout bounds the wait for an ack or pong (default 30s).
	AckTimeout time.Duration
	// BackoffBase is the first reconnect backoff step (default 100ms,
	// doubling per failed attempt up to BackoffMax). Each step is
	// additionally jittered by a deterministic per-probe factor so a
	// fleet of probes orphaned by one aggregator restart does not redial
	// in lockstep.
	BackoffBase time.Duration
	// BackoffMax caps the reconnect backoff (default 5s).
	BackoffMax time.Duration
	// RetryFor bounds how long the shipper keeps retrying a dead
	// aggregator before giving up fatally. Zero means forever — the
	// spool holds everything meanwhile.
	RetryFor time.Duration
	// SpoolBudget caps the spool file's on-disk size in bytes; an
	// append that would exceed it blocks (backpressuring the pipeline's
	// sealing) until acks prune the spool. Zero means unlimited.
	SpoolBudget int64
	// Dial, when set, replaces the default TCP dialer — the seam
	// chaos-enabled daemons inject wire faults through.
	Dial func(network, addr string) (net.Conn, error)
	// FS, when set, replaces the OS filesystem for the spool — the
	// chaos.FS seam.
	FS chaos.FS
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
	// Registry, when set, receives the wire_* shipper metrics
	// (spool depth, unacked window, session health, shipped bytes).
	Registry *obs.Registry
}

// Shipper streams sealed epochs to an aggregator. Wire it to a
// pipeline with Collector.WithSealHook(s.SealHook): every sealed
// generation is encoded as a one-epoch snapshot, spooled to disk, and
// sent in order over a self-healing connection. Neither the network
// nor the disk's sync latency backpressures the pipeline — sealing
// writes to the spool and returns; a sender goroutine fsyncs what it
// finds waiting (one sync per batch, always before the first send of
// anything in it) and drains it at whatever pace the aggregator
// sustains, reconnecting with exponential backoff and resuming from
// the aggregator's durable cursor after either side restarts the
// connection.
//
// After the pipeline drains, Finish ships the run's totals as a FIN
// message and blocks until the aggregator has made the whole stream
// durable — when Finish returns nil, every sealed byte of this run is
// in the aggregator's state file.
type Shipper struct {
	cfg         ShipperConfig
	incarnation uint64
	sp          *spool
	metrics     *ShipperMetrics

	mu       sync.Mutex
	horizons []uint64 // per shard: first bin possibly still open
	shipped  [services.NumDirections]float64
	durable  uint64
	finSeq   uint64
	fatal    error
	stopped  bool

	notify chan struct{} // pokes the sender after an append or stop
	exited chan struct{} // closed when the sender goroutine returns
}

// NewShipper opens the spool, draws a fresh incarnation, and starts
// the sender. The incarnation is random per process: if this probe
// restarts and re-runs its source, the new incarnation tells the
// aggregator to discard the old partial stream rather than try to
// splice two differently-ordered replays together.
func NewShipper(cfg ShipperConfig) (*Shipper, error) {
	if err := checkProbeID(cfg.ProbeID); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Keepalive <= 0 {
		cfg.Keepalive = 10 * time.Second
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 30 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = cfg.BackoffBase
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Dial == nil {
		d := &net.Dialer{Timeout: cfg.AckTimeout}
		cfg.Dial = d.Dial
	}
	var inc [8]byte
	if _, err := rand.Read(inc[:]); err != nil {
		return nil, fmt.Errorf("epochwire: drawing incarnation: %w", err)
	}
	s := &Shipper{
		cfg:         cfg,
		incarnation: binary.BigEndian.Uint64(inc[:]),
		metrics:     noShipperMetrics,
		horizons:    make([]uint64, cfg.Shards),
		notify:      make(chan struct{}, 1),
		exited:      make(chan struct{}),
	}
	var err error
	if s.sp, err = newSpool(cfg.SpoolPath, cfg.FS, cfg.SpoolBudget, s.poke); err != nil {
		return nil, err
	}
	if cfg.Registry != nil {
		s.metrics = NewShipperMetrics(cfg.Registry)
	}
	go s.sender()
	return s, nil
}

// Incarnation returns the random incarnation this shipper announces —
// daemons stamp it into their log fields so aggregator-side reset
// counters can be matched to a specific probe restart.
func (s *Shipper) Incarnation() uint64 { return s.incarnation }

// syncSpoolGauges refreshes the spool-shaped gauges after an append,
// a prune, or an ack moved the durable cursor.
func (s *Shipper) syncSpoolGauges() {
	depth, size := s.sp.stats()
	s.metrics.SpoolDepth.Set(int64(depth))
	s.metrics.SpoolBytes.Set(size)
	s.metrics.SpoolRetries.Set(int64(s.sp.retryCount()))
	durable := s.Durable()
	if last := s.sp.lastSeq(); last >= durable {
		s.metrics.Unacked.Set(int64(last - durable))
	}
	s.metrics.DurableSeq.Set(int64(durable))
}

// SealHook is the Collector.WithSealHook callback: it encodes the
// sealed generation as a self-describing one-epoch snapshot and spools
// it. Safe for concurrent use (shards seal independently); never
// blocks on the network. A spool failure (disk full) latches as the
// shipper's fatal error and is reported by Finish.
func (s *Shipper) SealHook(shard int, ep rollup.Epoch, nameOf func(svc uint32) string) {
	part := rollup.SingleEpochPartial(s.cfg.Cfg, ep, nameOf)
	var buf bytes.Buffer
	if err := rollup.Write(&buf, part); err != nil {
		s.setFatal(fmt.Errorf("epochwire: encoding sealed epoch %d: %w", ep.Bin, err))
		return
	}
	s.mu.Lock()
	if s.fatal != nil || s.stopped {
		s.mu.Unlock()
		return
	}
	if ep.Bin >= 0 && uint64(ep.Bin)+1 > s.horizons[shard] {
		s.horizons[shard] = uint64(ep.Bin) + 1
	}
	wm := s.horizons[0]
	for _, h := range s.horizons[1:] {
		if h < wm {
			wm = h
		}
	}
	var cellBytes [services.NumDirections]float64
	for _, c := range ep.Cells {
		s.shipped[c.Dir] += c.Bytes
		cellBytes[c.Dir] += c.Bytes
	}
	s.mu.Unlock()
	for d, b := range cellBytes {
		s.metrics.ShippedBytes[d].Add(uint64(b))
	}
	if _, err := s.sp.append(MsgEpoch, wm, buf.Bytes()); err != nil {
		s.setFatal(err)
		return
	}
	s.metrics.Spooled.Inc()
	s.syncSpoolGauges()
	s.poke()
}

// Finish ships the run's totals as a FIN message and waits until the
// aggregator has durably applied the entire stream. part is the
// collector's final partial; its cell totals are cross-checked against
// the bytes this shipper actually spooled, so a seal hook that missed
// a generation fails loudly here instead of silently shorting the
// aggregate.
func (s *Shipper) Finish(part *rollup.Partial) error {
	s.mu.Lock()
	if s.fatal != nil {
		err := s.fatal
		s.mu.Unlock()
		return err
	}
	totals := part.CellTotals()
	for d := 0; d < services.NumDirections; d++ {
		if s.shipped[d] != totals[d] {
			s.mu.Unlock()
			return fmt.Errorf("epochwire: shipped %.0f %v bytes but the final partial holds %.0f — seal hook not seeing every generation?",
				s.shipped[d], services.Direction(d), totals[d])
		}
	}
	s.mu.Unlock()

	fin := &rollup.Partial{Cfg: s.cfg.Cfg}
	fin.TotalBytes = part.TotalBytes
	fin.ClassifiedBytes = part.ClassifiedBytes
	fin.Counters = part.Counters
	var buf bytes.Buffer
	if err := rollup.Write(&buf, fin); err != nil {
		return fmt.Errorf("epochwire: encoding fin: %w", err)
	}
	seq, err := s.sp.append(MsgFin, uint64(s.cfg.Cfg.Bins), buf.Bytes())
	if err != nil {
		s.setFatal(err)
		return err
	}
	s.mu.Lock()
	s.finSeq = seq
	s.mu.Unlock()
	s.metrics.Spooled.Inc()
	s.syncSpoolGauges()
	s.poke()

	<-s.exited
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal != nil {
		return s.fatal
	}
	return nil
}

// Abort stops the sender without waiting for durability and closes the
// spool — the shutdown path for a probe that is not completing its
// run. Releasing the spool first unblocks any seal hook waiting on the
// disk budget.
func (s *Shipper) Abort() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.sp.release()
	s.poke()
	<-s.exited
	s.sp.close()
}

// Durable returns the aggregator's durable cursor as last acked.
func (s *Shipper) Durable() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

// LastSeq returns the highest sequence number spooled so far.
func (s *Shipper) LastSeq() uint64 { return s.sp.lastSeq() }

func (s *Shipper) setFatal(err error) {
	s.mu.Lock()
	if s.fatal == nil {
		s.fatal = err
	}
	s.mu.Unlock()
	s.sp.release() // unblock a seal hook waiting on the disk budget
	s.poke()
}

func (s *Shipper) poke() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// rejectError carries a handshake rejection out of serve. The sender
// latches it fatal only once it repeats: the hello's version byte is
// necessarily checked before the handshake CRC (everything after it is
// version-dependent), so a single rejection may be the echo of a
// hello corrupted in flight — three in a row cannot be.
type rejectError struct{ reason string }

func (e *rejectError) Error() string {
	return "epochwire: aggregator rejected handshake: " + e.reason
}

// consecutiveRejectLimit is how many back-to-back handshake
// rejections the sender tolerates before latching fatal.
const consecutiveRejectLimit = 3

// sender is the connection goroutine: dial, handshake, commit and
// stream the spool from the aggregator's cursor, one ack per message,
// pings when idle. The error taxonomy drives the loop: a transient
// session error closes the conn and redials with jittered exponential
// backoff; a fatal one (repeated rejection, a spool gap, a commit out
// of retries, RetryFor running out) latches and ends the sender.
func (s *Shipper) sender() {
	defer close(s.exited)
	attempt := 0
	rejects := 0
	var downSince time.Time
	for {
		if s.done() {
			return
		}
		s.metrics.Dials.Inc()
		conn, err := s.cfg.Dial("tcp", s.cfg.Addr)
		if err == nil {
			before := s.Durable()
			err = s.serve(conn)
			conn.Close()
			if err != nil {
				s.metrics.SessionErrors.Inc()
			}
			if s.done() {
				return
			}
			var rej *rejectError
			switch {
			case errors.As(err, &rej):
				if rejects++; rejects >= consecutiveRejectLimit {
					s.setFatal(Fatal(err))
					return
				}
			case IsFatal(err):
				s.setFatal(err)
				return
			default:
				rejects = 0
			}
			if err != nil {
				s.cfg.Logf("epochwire: session with %s ended: %v", s.cfg.Addr, err)
			}
			if err == nil || s.Durable() > before {
				// The session made progress; reconnect immediately
				// with a fresh backoff budget.
				downSince = time.Time{}
				attempt = 0
				continue
			}
		} else {
			s.cfg.Logf("epochwire: dialing %s: %v", s.cfg.Addr, err)
		}
		if downSince.IsZero() {
			downSince = time.Now()
		}
		if s.cfg.RetryFor > 0 && time.Since(downSince) > s.cfg.RetryFor {
			s.setFatal(Fatal(fmt.Errorf("epochwire: aggregator %s unreachable for %v: %w", s.cfg.Addr, s.cfg.RetryFor, err)))
			return
		}
		select {
		case <-time.After(jitterBackoff(s.cfg.ProbeID, attempt, s.cfg.BackoffBase, s.cfg.BackoffMax)):
		case <-s.notify:
		}
		attempt++
	}
}

// jitterBackoff is the attempt-th reconnect delay for probeID:
// base·2^attempt capped at max, then scaled by a factor in [0.5, 1.5)
// derived deterministically from (probe ID, attempt). No math/rand —
// a failing run's timing is reproducible from its inputs — yet
// distinct probes spread out instead of redialing an aggregator that
// just restarted in lockstep.
func jitterBackoff(probeID string, attempt int, base, max time.Duration) time.Duration {
	d := max
	if shift := uint(attempt); shift < 32 && base<<shift < max {
		d = base << shift
	}
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(probeID); i++ {
		h = (h ^ uint64(probeID[i])) * 0x100000001B3
	}
	h ^= uint64(attempt) * 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	frac := 0.5 + float64(h>>11)/(1<<53) // [0.5, 1.5)
	return time.Duration(float64(d) * frac)
}

// done reports whether the sender has nothing left to do: aborted,
// fatally failed, or the fin is durable.
func (s *Shipper) done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped || s.fatal != nil || (s.finSeq > 0 && s.durable >= s.finSeq)
}

func (s *Shipper) serve(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(s.cfg.AckTimeout))
	if err := WriteHello(conn, &Hello{ProbeID: s.cfg.ProbeID, Incarnation: s.incarnation, Cfg: s.cfg.Cfg}); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	wl, err := ReadWelcome(br)
	if err != nil {
		return err
	}
	if wl.Reject != "" {
		return &rejectError{reason: wl.Reject}
	}
	if wl.Durable > s.sp.lastSeq() {
		// The Welcome's CRC has already checked out, so this cursor is
		// what the aggregator really holds: state for a probe with this
		// ID that is further along than we are. Retrying cannot help.
		return Fatal(fmt.Errorf("epochwire: aggregator's durable cursor %d is past this probe's last sequence %d — probe ID %q collision?",
			wl.Durable, s.sp.lastSeq(), s.cfg.ProbeID))
	}
	s.advanceDurable(wl.Durable)
	s.metrics.Sessions.Inc()
	s.cfg.Logf("epochwire: connected to %s, resuming from seq %d", s.cfg.Addr, wl.Durable+1)

	next := wl.Durable + 1
	// earlyPing is set once a budget-starved spool has been answered with
	// an immediate ping and cleared by the next send: one early ping per
	// starvation, so a persist that keeps failing at the aggregator costs
	// one extra ping, not a hot loop.
	earlyPing := false
	for {
		if s.done() {
			return nil
		}
		if next <= s.sp.lastSeq() {
			if next > s.sp.committedSeq() {
				// Group commit: one fsync covers everything sealed since
				// the last one. Nothing reaches the wire before the sync
				// covering it has returned; exhausting the retry budget is
				// fatal, exactly as a spool write's is.
				err := s.sp.commit()
				s.syncSpoolGauges() // a commit may have retried
				if err != nil {
					return err
				}
				s.metrics.SpoolSyncs.Inc()
			}
			m, err := s.sp.get(next)
			if err != nil {
				return err // Fatal-labeled by the spool
			}
			conn.SetDeadline(time.Now().Add(s.cfg.AckTimeout))
			if err := WriteMessage(conn, m); err != nil {
				return err
			}
			s.metrics.Sends.Inc()
			earlyPing = false
			ack, err := s.readAck(br, MsgAck)
			if err != nil {
				return err
			}
			if ack.Seq != m.Seq {
				return fmt.Errorf("epochwire: sent seq %d, acked seq %d", m.Seq, ack.Seq)
			}
			s.metrics.Acks.Inc()
			s.advanceDurable(ack.Durable)
			next++
			// A duplicate's ack can carry a durable cursor past the seq
			// it acknowledges: the previous session delivered further
			// messages whose acks were lost with the connection. Those
			// sequences are durable (and just got pruned) — skip them,
			// or the next get() would read the spool below its own
			// prune line and misdiagnose a cursor regression.
			if ack.Durable >= next {
				next = ack.Durable + 1
			}
			continue
		}
		// Idle: wait for new work, pinging to keep the session alive.
		// The pong carries the aggregator's durable cursor, so a state
		// persist that failed at apply time and succeeded on a later
		// retry still reaches an idle probe waiting on fin durability.
		//
		// A seal blocked on the spool budget cannot wait for the timer:
		// the file shrinks only when the spool empties, which takes a
		// durable cursor this idle session will not hear about before its
		// next ping (the aggregator persists every PersistEvery applies,
		// and everything it was sent is already acked). So a starved spool
		// with undurable entries pings at once — the ping makes the
		// aggregator persist — instead of stalling capture for a Keepalive.
		if s.sp.starved() && !earlyPing && s.Durable() < s.sp.lastSeq() {
			earlyPing = true
		} else {
			select {
			case <-s.notify:
				continue
			case <-time.After(s.cfg.Keepalive):
			}
		}
		conn.SetDeadline(time.Now().Add(s.cfg.AckTimeout))
		if err := WriteMessage(conn, &Message{Type: MsgPing}); err != nil {
			return err
		}
		s.metrics.Pings.Inc()
		pong, err := s.readAck(br, MsgPong)
		if err != nil {
			return err
		}
		s.advanceDurable(pong.Durable)
		if pong.Durable >= next {
			next = pong.Durable + 1
		}
	}
}

// advanceDurable takes the aggregator's durable cursor as a welcome, an
// ack or a pong carried it: it only moves forward, and the spool prunes
// through it.
func (s *Shipper) advanceDurable(durable uint64) {
	s.mu.Lock()
	if durable > s.durable {
		s.durable = durable
	}
	s.mu.Unlock()
	s.sp.pruneThrough(durable)
	s.syncSpoolGauges()
}

// readAck reads the single synchronous reply, tolerating nothing else.
func (s *Shipper) readAck(br *bufio.Reader, want byte) (*Message, error) {
	m, err := ReadMessage(br)
	if err != nil {
		return nil, err
	}
	if m.Type != want {
		return nil, fmt.Errorf("epochwire: expected %q reply, got %q", want, m.Type)
	}
	return m, nil
}
