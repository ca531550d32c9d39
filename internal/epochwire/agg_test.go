package epochwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/rollup"
)

func startAgg(t *testing.T, cfg AggConfig) *Aggregator {
	t.Helper()
	a, err := NewAggregator("127.0.0.1:0", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	return a
}

// probeConn is a hand-driven probe session for protocol-level tests.
type probeConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	wl   *Welcome
}

func dialProbe(t *testing.T, addr, id string, incarnation uint64, cfg rollup.Config) *probeConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := WriteHello(conn, &Hello{ProbeID: id, Incarnation: incarnation, Cfg: cfg}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	wl, err := ReadWelcome(br)
	if err != nil {
		t.Fatal(err)
	}
	return &probeConn{t: t, conn: conn, br: br, wl: wl}
}

// send writes one epoch/fin message and returns its ack.
func (p *probeConn) send(m *Message) *Message {
	p.t.Helper()
	if err := WriteMessage(p.conn, m); err != nil {
		p.t.Fatal(err)
	}
	ack, err := ReadMessage(p.br)
	if err != nil {
		p.t.Fatal(err)
	}
	if ack.Type != MsgAck {
		p.t.Fatalf("reply to seq %d is %q, want ack", m.Seq, ack.Type)
	}
	return ack
}

// epochBlob builds a one-epoch, one-cell snapshot.
func epochBlob(t *testing.T, cfg rollup.Config, bin int, svc string, commune int32, volume float64) []byte {
	t.Helper()
	p := &rollup.Partial{
		Cfg:      cfg,
		Services: []string{svc},
		Epochs:   []rollup.Epoch{{Bin: bin, Cells: []rollup.Cell{{Dir: 0, Svc: 0, Commune: commune, Bytes: volume}}}},
	}
	var buf bytes.Buffer
	if err := rollup.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func finBlob(t *testing.T, cfg rollup.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rollup.Write(&buf, &rollup.Partial{Cfg: cfg}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func foldTotal(t *testing.T, a *Aggregator) float64 {
	t.Helper()
	part, err := a.Fold()
	if err != nil {
		t.Fatal(err)
	}
	tot := part.CellTotals()
	return tot[0] + tot[1]
}

// TestAggregatorDuplicateEpochIdempotent pins the retransmit path: a
// sequence number the aggregator already applied (an ack lost in a
// disconnect makes the probe resend) is acked but folded only once.
func TestAggregatorDuplicateEpochIdempotent(t *testing.T) {
	cfg := testConfig()
	a := startAgg(t, AggConfig{PersistEvery: 1})
	p := dialProbe(t, a.Addr(), "north", 7, cfg)
	if p.wl.Durable != 0 {
		t.Fatalf("fresh probe welcomed with durable %d", p.wl.Durable)
	}
	e1 := &Message{Type: MsgEpoch, Seq: 1, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 100)}
	if ack := p.send(e1); ack.Seq != 1 || ack.Durable != 1 {
		t.Fatalf("first ack %+v", ack)
	}
	// Retransmit the exact message: acked, not re-applied.
	if ack := p.send(e1); ack.Seq != 1 || ack.Durable != 1 {
		t.Fatalf("duplicate ack %+v", ack)
	}
	p.send(&Message{Type: MsgEpoch, Seq: 2, Watermark: 2, Blob: epochBlob(t, cfg, 1, "YouTube", 5, 50)})
	if got := foldTotal(t, a); got != 150 {
		t.Errorf("folded %v bytes, want 150 (duplicate double-counted?)", got)
	}
}

// TestAggregatorResumeAfterTruncatedEpoch simulates the wire dying
// mid-message: the truncated epoch never applies, and the reconnect
// (same incarnation) resumes from the aggregator's durable cursor.
func TestAggregatorResumeAfterTruncatedEpoch(t *testing.T) {
	cfg := testConfig()
	state := filepath.Join(t.TempDir(), "agg.state")
	a := startAgg(t, AggConfig{StatePath: state, PersistEvery: 1, Probes: 1})
	p := dialProbe(t, a.Addr(), "north", 7, cfg)
	p.send(&Message{Type: MsgEpoch, Seq: 1, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 100)})

	// Half an epoch message, then the connection dies.
	var frame bytes.Buffer
	if err := WriteMessage(&frame, &Message{Type: MsgEpoch, Seq: 2, Watermark: 2, Blob: epochBlob(t, cfg, 1, "YouTube", 5, 50)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.conn.Write(frame.Bytes()[:frame.Len()/2]); err != nil {
		t.Fatal(err)
	}
	p.conn.Close()

	p2 := dialProbe(t, a.Addr(), "north", 7, cfg)
	if p2.wl.Durable != 1 {
		t.Fatalf("resume welcomed with durable %d, want 1", p2.wl.Durable)
	}
	p2.send(&Message{Type: MsgEpoch, Seq: 2, Watermark: 2, Blob: epochBlob(t, cfg, 1, "YouTube", 5, 50)})
	p2.send(&Message{Type: MsgFin, Seq: 3, Watermark: uint64(cfg.Bins), Blob: finBlob(t, cfg)})
	select {
	case <-a.Done():
	default:
		t.Error("aggregator not draining after the probe's fin")
	}
	if got := foldTotal(t, a); got != 150 {
		t.Errorf("folded %v bytes, want 150", got)
	}
}

// TestAggregatorIncarnationReset pins the probe-restart model: a
// reconnect under a new incarnation discards the old partial stream
// entirely and the replacement stream stands alone.
func TestAggregatorIncarnationReset(t *testing.T) {
	cfg := testConfig()
	a := startAgg(t, AggConfig{PersistEvery: 1})
	p := dialProbe(t, a.Addr(), "north", 7, cfg)
	p.send(&Message{Type: MsgEpoch, Seq: 1, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 100)})
	p.conn.Close()

	p2 := dialProbe(t, a.Addr(), "north", 8, cfg) // new incarnation
	if p2.wl.Durable != 0 {
		t.Fatalf("new incarnation welcomed with durable %d, want 0", p2.wl.Durable)
	}
	p2.send(&Message{Type: MsgEpoch, Seq: 1, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 70)})
	if got := foldTotal(t, a); got != 70 {
		t.Errorf("folded %v bytes, want 70 (old incarnation's stream kept?)", got)
	}
}

// TestAggregatorRestartFromState pins the mid-run aggregator restart:
// cursors and partials reload from the state file, the probe resumes
// past everything durable, and nothing is double-counted.
func TestAggregatorRestartFromState(t *testing.T) {
	cfg := testConfig()
	state := filepath.Join(t.TempDir(), "agg.state")
	a := startAgg(t, AggConfig{StatePath: state, PersistEvery: 1, Probes: 1})
	p := dialProbe(t, a.Addr(), "north", 7, cfg)
	p.send(&Message{Type: MsgEpoch, Seq: 1, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 100)})
	p.send(&Message{Type: MsgEpoch, Seq: 2, Watermark: 2, Blob: epochBlob(t, cfg, 1, "YouTube", 5, 50)})
	p.conn.Close()
	a.Stop()

	b := startAgg(t, AggConfig{StatePath: state, PersistEvery: 1, Probes: 1})
	p2 := dialProbe(t, b.Addr(), "north", 7, cfg)
	if p2.wl.Durable != 2 {
		t.Fatalf("restarted aggregator welcomed with durable %d, want 2", p2.wl.Durable)
	}
	p2.send(&Message{Type: MsgEpoch, Seq: 3, Watermark: 3, Blob: epochBlob(t, cfg, 2, "Netflix", 1, 25)})
	p2.send(&Message{Type: MsgFin, Seq: 4, Watermark: uint64(cfg.Bins), Blob: finBlob(t, cfg)})
	select {
	case <-b.Done():
	default:
		t.Error("restarted aggregator not draining after fin")
	}
	if got := foldTotal(t, b); got != 175 {
		t.Errorf("folded %v bytes, want 175", got)
	}
}

// TestAggregatorRejectsIncompatibleGrid: a probe whose grid cannot
// union with the aggregate (different step) is refused at the door
// with a reason.
func TestAggregatorRejectsIncompatibleGrid(t *testing.T) {
	cfg := testConfig()
	a := startAgg(t, AggConfig{})
	dialProbe(t, a.Addr(), "north", 7, cfg).send(
		&Message{Type: MsgEpoch, Seq: 1, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 100)})

	bad := cfg
	bad.Step = cfg.Step / 3
	bad.Start = cfg.Start
	p := dialProbe(t, a.Addr(), "south", 9, bad)
	if p.wl.Reject == "" {
		t.Fatal("incompatible grid accepted")
	}
}

// TestAggregatorKillsSequenceGap: a seq that skips ahead means probe
// and aggregator disagree about history — fatal to the connection.
func TestAggregatorKillsSequenceGap(t *testing.T) {
	cfg := testConfig()
	a := startAgg(t, AggConfig{})
	p := dialProbe(t, a.Addr(), "north", 7, cfg)
	if err := WriteMessage(p.conn, &Message{Type: MsgEpoch, Seq: 5, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(p.br); err == nil {
		t.Fatal("gap seq acked; connection should have died")
	}
}

// TestAggregatorHandshakePersistSurvivesRestart pins a state-poisoning
// bug the convergence oracle caught: the handshake's incarnation-reset
// persist ran before the probe's config was recorded, so a state file
// whose *last* persist was that handshake one (every later persist
// failing — a dying disk, or chaos) held a zero config the next start
// refused to load. Here the handshake's record is the last thing that
// reaches the log (the chaos crash latch eats its sync and every later
// one, the shutdown commit included), and a fresh aggregator must still
// start from that file.
func TestAggregatorHandshakePersistSurvivesRestart(t *testing.T) {
	cfg := testConfig()
	state := filepath.Join(t.TempDir(), "agg.state")
	in := chaos.CrashAt("aggd.state", "sync", 1) // sync #0 = the new log's header, #1 = the handshake commit
	a1, err := NewAggregator("127.0.0.1:0", "", AggConfig{
		StatePath: state, PersistEvery: 1,
		FS: in.FS("aggd.state", chaos.OS),
	})
	if err != nil {
		t.Fatal(err)
	}
	dialProbe(t, a1.Addr(), "north", 7, cfg)
	a1.Stop() // its commit retry hits the crash latch and is dropped
	if !in.Crashed() {
		t.Fatal("the shutdown persist never reached the crash point")
	}
	a2, err := NewAggregator("127.0.0.1:0", "", AggConfig{StatePath: state, PersistEvery: 1})
	if err != nil {
		t.Fatalf("restart from the handshake-only state file: %v", err)
	}
	defer a2.Stop()
	p := dialProbe(t, a2.Addr(), "north", 7, cfg)
	if p.wl.Durable != 0 {
		t.Fatalf("recovered probe welcomed with durable %d, want 0", p.wl.Durable)
	}
}

// TestAggregatorRejectsForgedProbeID: a probe ID is spliced into metric
// labels, log lines and the state log, so one that could close a label
// and forge an exposition line is refused at the door — with a reason,
// before any state or gauge exists for it.
func TestAggregatorRejectsForgedProbeID(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	a := startAgg(t, AggConfig{Registry: reg})
	const forged = "a\"} 1\nx{y=\""
	// No writer in the package emits this hello; build it by hand.
	blob := mustEncodeConfig(t, testConfig())
	b := append(append([]byte(nil), helloMagic[:]...), Version)
	b = binary.BigEndian.AppendUint64(appendString(b, forged), 7)
	b = appendCRC(appendString(b, string(blob)), 0)
	if _, err := ReadHello(bufio.NewReader(bytes.NewReader(b))); err == nil {
		t.Fatal("ReadHello accepted the forged ID")
	}
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	wl, err := ReadWelcome(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wl.Reject, "invalid probe ID") {
		t.Fatalf("forged ID answered with %+v, want a rejection naming the ID rule", wl)
	}
	if n := len(a.StatusNow().Probes); n != 0 {
		t.Fatalf("%d probes have state after the rejected handshake", n)
	}
	if got := a.metrics.Rejects.Load(); got != 1 {
		t.Fatalf("aggd_handshake_rejects_total = %d, want 1", got)
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^(# (HELP|TYPE) [a-z_]+ .+|[a-z_]+(\{[a-z]+="[A-Za-z0-9._+-]*"(,[a-z]+="[A-Za-z0-9._+-]*")*\})? -?[0-9]+)$`)
	for _, l := range strings.Split(strings.TrimSuffix(prom.String(), "\n"), "\n") {
		if !line.MatchString(l) || strings.Contains(l, "aggd_probe_") {
			t.Fatalf("scrape after the attempt has the line %q", l)
		}
	}
	for _, id := range []string{"", "a b", "a/b", "é", strings.Repeat("x", MaxProbeID+1)} {
		if err := WriteHello(&bytes.Buffer{}, &Hello{ProbeID: id, Cfg: testConfig()}); err == nil {
			t.Errorf("WriteHello accepted probe ID %q", id)
		}
		if _, err := NewShipper(ShipperConfig{ProbeID: id, SpoolPath: filepath.Join(t.TempDir(), "s")}); err == nil {
			t.Errorf("NewShipper accepted probe ID %q", id)
		}
	}
	if err := checkProbeID("north-2.eu_West"); err != nil {
		t.Errorf("a plain ID is refused: %v", err)
	}
}

// TestAggregatorBoundsProbeIDs: every new ID costs state, gauges and a
// log record, and any peer can invent one — so admission counts them,
// for a handshake and for the log's replay alike.
func TestAggregatorBoundsProbeIDs(t *testing.T) {
	leakcheck.Check(t)
	defer func(n int) { maxProbes = n }(maxProbes)
	maxProbes = 3
	cfg := testConfig()
	state := filepath.Join(t.TempDir(), "agg.state")
	a := startAgg(t, AggConfig{StatePath: state})
	for i := 0; i < 3; i++ {
		if p := dialProbe(t, a.Addr(), fmt.Sprintf("probe-%d", i), 7, cfg); p.wl.Reject != "" {
			t.Fatalf("probe %d of 3 rejected: %s", i, p.wl.Reject)
		}
	}
	if p := dialProbe(t, a.Addr(), "probe-3", 7, cfg); !strings.Contains(p.wl.Reject, "limit") {
		t.Fatalf("a fourth probe ID under a limit of 3 answered with %+v", p.wl)
	}
	if got := a.metrics.Rejects.Load(); got != 1 {
		t.Fatalf("aggd_handshake_rejects_total = %d, want 1", got)
	}
	if n := len(a.StatusNow().Probes); n != 3 {
		t.Fatalf("%d probes have state, want 3", n)
	}
	// A known ID is not a new one: reconnects and restarts stay welcome.
	if p := dialProbe(t, a.Addr(), "probe-1", 8, cfg); p.wl.Reject != "" {
		t.Fatalf("known probe rejected at the limit: %s", p.wl.Reject)
	}
	a.Stop()
	maxProbes = 2
	if _, err := NewAggregator("127.0.0.1:0", "", AggConfig{StatePath: state}); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("replaying three probes under a limit of two: %v", err)
	}
}
