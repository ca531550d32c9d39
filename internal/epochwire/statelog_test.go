package epochwire_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/chaos"
	"repro/internal/epochwire"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/rollup"
)

// handProbe drives one recorded chaosProbe's stream over a real
// connection one synchronous message at a time, so a test can stop
// between any two messages with the aggregator quiescent — what the
// shipper's own pacing never allows.
type handProbe struct {
	t           *testing.T
	p           *chaosProbe
	incarnation uint64
	msgs        []*epochwire.Message // the whole run: every epoch, then the fin
	conn        net.Conn
	br          *bufio.Reader
}

func newHandProbe(t *testing.T, p *chaosProbe, incarnation uint64) *handProbe {
	t.Helper()
	h := &handProbe{t: t, p: p, incarnation: incarnation}
	blob := func(part *rollup.Partial) []byte {
		var buf bytes.Buffer
		if err := rollup.Write(&buf, part); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	wm := uint64(0)
	for _, ev := range p.rec.events {
		if ev.ep.Bin >= 0 {
			wm = max(wm, uint64(ev.ep.Bin)+1)
		}
		h.msgs = append(h.msgs, &epochwire.Message{Type: epochwire.MsgEpoch, Seq: uint64(len(h.msgs) + 1), Watermark: wm,
			Blob: blob(rollup.SingleEpochPartial(p.rcfg, ev.ep, p.rec.nameOf))})
	}
	fin := &rollup.Partial{Cfg: p.rcfg, TotalBytes: p.part.TotalBytes, ClassifiedBytes: p.part.ClassifiedBytes, Counters: p.part.Counters}
	h.msgs = append(h.msgs, &epochwire.Message{Type: epochwire.MsgFin, Seq: uint64(len(h.msgs) + 1), Watermark: uint64(p.rcfg.Bins), Blob: blob(fin)})
	return h
}

// dial (re)connects and completes the handshake.
func (h *handProbe) dial(addr string) *epochwire.Welcome {
	h.t.Helper()
	if h.conn != nil {
		h.conn.Close()
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { conn.Close() })
	if err := epochwire.WriteHello(conn, &epochwire.Hello{ProbeID: h.p.id, Incarnation: h.incarnation, Cfg: h.p.rcfg}); err != nil {
		h.t.Fatal(err)
	}
	h.conn, h.br = conn, bufio.NewReader(conn)
	wl, err := epochwire.ReadWelcome(h.br)
	if err != nil {
		h.t.Fatal(err)
	}
	if wl.Reject != "" {
		h.t.Fatalf("probe %s rejected: %s", h.p.id, wl.Reject)
	}
	return wl
}

// send ships message seq (1-based) and returns its ack.
func (h *handProbe) send(seq int) *epochwire.Message {
	h.t.Helper()
	if err := epochwire.WriteMessage(h.conn, h.msgs[seq-1]); err != nil {
		h.t.Fatal(err)
	}
	ack, err := epochwire.ReadMessage(h.br)
	if err != nil {
		h.t.Fatal(err)
	}
	if ack.Type != epochwire.MsgAck || ack.Seq != uint64(seq) {
		h.t.Fatalf("probe %s seq %d answered with %q seq %d", h.p.id, seq, ack.Type, ack.Seq)
	}
	return ack
}

// snapshotOf returns a's snapshot bytes — or, before anything was
// aggregated, the refusal, so two aggregators still compare.
func snapshotOf(t *testing.T, a *epochwire.Aggregator) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.roll")
	if err := a.WriteSnapshot(path); err != nil {
		return []byte(err.Error())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// cursors is the part of a status a restart must reproduce.
func cursors(a *epochwire.Aggregator) []epochwire.ProbeStatus {
	st := a.StatusNow().Probes
	for i := range st {
		st[i].Connected, st[i].AgeSeconds = false, 0
	}
	return st
}

// requireReplayEqualsLive starts a fresh aggregator on a copy of the
// live one's state file and holds it to the live one's snapshot bytes,
// cursors and handshake answers.
func requireReplayEqualsLive(t *testing.T, live *epochwire.Aggregator, state string, probes []*handProbe, at string) {
	t.Helper()
	raw, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "copy.state")
	if err := os.WriteFile(cp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := epochwire.NewAggregator("127.0.0.1:0", "", epochwire.AggConfig{StatePath: cp, PersistEvery: 1})
	if err != nil {
		t.Fatalf("%s: replaying a copy of the live state log: %v", at, err)
	}
	defer b.Stop()
	if got, want := cursors(b), cursors(live); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: replayed cursors %+v, live %+v", at, got, want)
	}
	if got, want := snapshotOf(t, b), snapshotOf(t, live); !bytes.Equal(got, want) {
		t.Fatalf("%s: replayed snapshot (%d bytes) differs from the live one (%d bytes)", at, len(got), len(want))
	}
	if err := b.CheckConservation(); err != nil {
		t.Fatalf("%s: replayed gauges: %v", at, err)
	}
	for _, lp := range live.StatusNow().Probes {
		for _, h := range probes {
			if h.p.id != lp.ID {
				continue
			}
			twin := &handProbe{t: t, p: h.p, incarnation: h.incarnation}
			if wl := twin.dial(b.Addr()); wl.Durable != lp.Durable {
				t.Fatalf("%s: replayed aggregator welcomes %s at durable %d, live is at %d", at, lp.ID, wl.Durable, lp.Durable)
			}
			twin.conn.Close()
		}
	}
}

// TestStateLogReplayEqualsLive is the log's defining property: at any
// point between two messages, a fresh aggregator started on the state
// file is the live one — same snapshot bytes, same cursors, same
// handshake answers — through interleaved probes, a retransmit, and a
// probe restart under a new incarnation.
func TestStateLogReplayEqualsLive(t *testing.T) {
	leakcheck.Check(t)
	fx := chaosWorkload(t)
	state := filepath.Join(t.TempDir(), "agg.state")
	live, err := epochwire.NewAggregator("127.0.0.1:0", "", epochwire.AggConfig{Probes: 2, StatePath: state, PersistEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Stop()
	north, south := newHandProbe(t, fx.probes[0], 11), newHandProbe(t, fx.probes[1], 21)
	probes := []*handProbe{north, south}
	requireReplayEqualsLive(t, live, state, probes, "empty log")
	north.dial(live.Addr())
	requireReplayEqualsLive(t, live, state, probes, "one handshake")
	south.dial(live.Addr())

	rng := rand.New(rand.NewSource(5))
	next := []int{1, 1}
	cuts := 0
	for step := 0; next[0] <= len(north.msgs) || next[1] <= len(south.msgs); step++ {
		i := rng.Intn(2)
		if next[i] > len(probes[i].msgs) {
			i = 1 - i
		}
		h := probes[i]
		if ack := h.send(next[i]); ack.Durable != uint64(next[i]) {
			t.Fatalf("persist-every-1 ack for %s seq %d reports durable %d", h.p.id, next[i], ack.Durable)
		}
		next[i]++
		switch {
		case step == 7:
			h.send(next[i] - 1) // a retransmit: acked, folded once, never logged
		case step == 15:
			// South's process dies and its replacement replays from seq 1.
			south.incarnation = 22
			if wl := south.dial(live.Addr()); wl.Durable != 0 {
				t.Fatalf("new incarnation welcomed at durable %d", wl.Durable)
			}
			next[1] = 1
		}
		if step%9 == 0 || step == 15 {
			requireReplayEqualsLive(t, live, state, probes, fmt.Sprintf("after step %d", step))
			cuts++
		}
	}
	waitDone(t, live)
	requireReplayEqualsLive(t, live, state, probes, "finished run")
	if cuts < 5 {
		t.Fatalf("only %d cut points — the workload shrank under the test", cuts)
	}
	if got := snapshotOf(t, live); !bytes.Equal(got, fx.fullSnap) {
		t.Fatalf("hand-driven aggregate (%d bytes) differs from the single-process run (%d bytes)", len(got), len(fx.fullSnap))
	}
}

// finishedLog hand-drives the whole chaos workload into a fresh state
// file, north's run first and then south's, and returns the file's
// length after each of south's messages was committed: the last two
// are the bounds of the final record, south's fin.
func finishedLog(t *testing.T, fx *chaosFixture, state string) (south *handProbe, sizes []int64) {
	t.Helper()
	a, err := epochwire.NewAggregator("127.0.0.1:0", "", epochwire.AggConfig{Probes: 2, StatePath: state, PersistEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	north, south := newHandProbe(t, fx.probes[0], 11), newHandProbe(t, fx.probes[1], 21)
	north.dial(a.Addr())
	for seq := range north.msgs {
		north.send(seq + 1)
	}
	south.dial(a.Addr())
	for seq := range south.msgs {
		south.send(seq + 1)
		sizes = append(sizes, fileSize(t, state))
	}
	waitDone(t, a)
	return south, sizes
}

// TestStateLogTornTail: a crash can cut the log anywhere inside the
// record being appended. Every such cut of the final record starts,
// comes back with exactly the complete records durable and the file cut
// back to their end — and from there the probe finishes the run to the
// byte-identical aggregate.
func TestStateLogTornTail(t *testing.T) {
	leakcheck.Check(t)
	fx := chaosWorkload(t)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.state")
	south, sizes := finishedLog(t, fx, full)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	finStart, finEnd := sizes[len(sizes)-2], sizes[len(sizes)-1]
	if finEnd != int64(len(raw)) || finEnd-finStart < 16 {
		t.Fatalf("final record spans %d..%d of a %d-byte log", finStart, finEnd, len(raw))
	}
	finSeq := uint64(len(south.msgs))
	for cut := finStart; cut < finEnd; cut++ {
		state := filepath.Join(dir, "torn.state")
		if err := os.WriteFile(state, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var startup string
		a, err := epochwire.NewAggregator("127.0.0.1:0", "", epochwire.AggConfig{Probes: 2, StatePath: state, PersistEvery: 1,
			Logf: func(format string, args ...any) {
				if strings.Contains(format, "state log") {
					startup += fmt.Sprintf(format, args...) + "\n"
				}
			}})
		if err != nil {
			t.Fatalf("log cut at %d (final record %d..%d): %v", cut, finStart, finEnd, err)
		}
		if got := fileSize(t, state); got != finStart {
			t.Fatalf("log cut at %d is %d bytes after the start, want it truncated to %d", cut, got, finStart)
		}
		if want := fmt.Sprintf("dropped %d bytes", cut-finStart); !strings.Contains(startup, "replayed") || strings.Contains(startup, "dropped") != (cut > finStart) || (cut > finStart && !strings.Contains(startup, want)) {
			t.Fatalf("log cut at %d: startup lines %q, want the replay summary and %q iff anything was torn", cut, startup, want)
		}
		for _, ps := range a.StatusNow().Probes {
			if ps.Durable != ps.Applied || ps.Fin != (ps.ID == "north") || (ps.ID == "south" && ps.Applied != finSeq-1) {
				t.Fatalf("log cut at %d: recovered %+v (south's fin is seq %d)", cut, ps, finSeq)
			}
		}
		if (cut-finStart)%((finEnd-finStart)/3) == 1 {
			// Finish the run on the recovered log.
			twin := &handProbe{t: t, p: south.p, incarnation: south.incarnation, msgs: south.msgs}
			if wl := twin.dial(a.Addr()); wl.Durable != finSeq-1 {
				t.Fatalf("log cut at %d: welcomed at durable %d, want %d", cut, wl.Durable, finSeq-1)
			}
			twin.send(int(finSeq))
			waitDone(t, a)
			if got := snapshotOf(t, a); !bytes.Equal(got, fx.fullSnap) {
				t.Fatalf("log cut at %d: finished aggregate differs from the single-process run", cut)
			}
			if got := fileSize(t, state); got != finEnd {
				t.Fatalf("log cut at %d: finished log is %d bytes, the uncut one %d", cut, got, finEnd)
			}
		}
		a.Stop()
	}
}

// TestStateLogCorruptionIsNotSilent: a complete record that does not
// verify is never skipped or taken for the end of the log — the start
// fails and names where.
func TestStateLogCorruptionIsNotSilent(t *testing.T) {
	leakcheck.Check(t)
	fx := chaosWorkload(t)
	state := filepath.Join(t.TempDir(), "agg.state")
	_, sizes := finishedLog(t, fx, state)
	raw, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	// One bit, in the payload of a record from the middle of south's run.
	recStart, recEnd := sizes[len(sizes)/2-1], sizes[len(sizes)/2]
	raw[recEnd-9] ^= 0x10
	if err := os.WriteFile(state, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = epochwire.NewAggregator("127.0.0.1:0", "", epochwire.AggConfig{StatePath: state})
	if err == nil {
		t.Fatal("an aggregator started on a log with a flipped bit")
	}
	m := regexp.MustCompile(`at offset (\d+)`).FindStringSubmatch(err.Error())
	if m == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("error does not name the offset and the CRC: %v", err)
	}
	if off, _ := strconv.ParseInt(m[1], 10, 64); off != recStart {
		t.Fatalf("error names offset %d, the damaged record starts at %d (ends %d): %v", off, recStart, recEnd, err)
	}
	if got := fileSize(t, state); got != int64(len(raw)) {
		t.Fatalf("the refused log was modified: %d bytes, was %d", got, len(raw))
	}
}

// TestStateLogRefusesTheOldFormat: no reader for the whole-state image
// is kept, and a file in that format says so instead of being
// overwritten or misparsed.
func TestStateLogRefusesTheOldFormat(t *testing.T) {
	leakcheck.Check(t)
	state := filepath.Join(t.TempDir(), "agg.state")
	old := append([]byte("EPWSTAT\x01\x00\x00"), 0x1c, 0xdf, 0x44, 0x21)
	if err := os.WriteFile(state, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := epochwire.NewAggregator("127.0.0.1:0", "", epochwire.AggConfig{StatePath: state})
	if err == nil || !strings.Contains(err.Error(), "older build") {
		t.Fatalf("starting on an EPWSTAT file: %v", err)
	}
	if got, _ := os.ReadFile(state); !bytes.Equal(got, old) {
		t.Fatal("the refused file was modified")
	}
	if err := os.WriteFile(state, []byte("not a log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := epochwire.NewAggregator("127.0.0.1:0", "", epochwire.AggConfig{StatePath: state}); err == nil || !strings.Contains(err.Error(), "not an aggregator state log") {
		t.Fatalf("starting on a foreign file: %v", err)
	}
}

// failOnceFS fails the failSync-th Sync (after the write before it
// landed) and tears the shortWrite-th WriteAt in half, both counted
// from 1 across the state file's life; 0 disarms.
type failOnceFS struct {
	chaos.FS
	failSync, shortWrite int
	syncs, writes        int
}

type failOnceFile struct {
	chaos.File
	fs *failOnceFS
}

func (fs *failOnceFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failOnceFile{File: f, fs: fs}, nil
}

func (f *failOnceFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.writes++; f.fs.writes == f.fs.shortWrite {
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		return n, io.ErrShortWrite
	}
	return f.File.WriteAt(p, off)
}

func (f *failOnceFile) Sync() error {
	if f.fs.syncs++; f.fs.syncs == f.fs.failSync {
		return &os.PathError{Op: "sync", Path: "agg.state", Err: syscall.EIO}
	}
	return f.File.Sync()
}

// TestStateLogTailRewrite: a commit that fails — the fsync, or the
// write itself cut short — leaves the tail in memory, the ack honest
// (durable lags), and the next commit rewrites the tail from the
// committed offset: read back, the file holds every record exactly
// once.
func TestStateLogTailRewrite(t *testing.T) {
	leakcheck.Check(t)
	fx := chaosWorkload(t)
	for _, tc := range []struct {
		name string
		fs   *failOnceFS
	}{
		// Commit 1 is the header, 2 north's handshake, 3.. one per message.
		{"failed-sync", &failOnceFS{FS: chaos.OS, failSync: 5}},
		{"short-write", &failOnceFS{FS: chaos.OS, shortWrite: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := filepath.Join(t.TempDir(), "agg.state")
			reg := obs.NewRegistry()
			a, err := epochwire.NewAggregator("127.0.0.1:0", "", epochwire.AggConfig{StatePath: state, PersistEvery: 1, FS: tc.fs, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Stop()
			north := newHandProbe(t, fx.probes[0], 11)
			north.dial(a.Addr())
			lagged := 0
			for seq := 1; seq <= 8; seq++ {
				if ack := north.send(seq); ack.Durable != uint64(seq) {
					if lagged++; ack.Durable != uint64(seq-1) {
						t.Fatalf("ack for seq %d reports durable %d", seq, ack.Durable)
					}
				}
			}
			if lagged != 1 {
				t.Fatalf("%d acks reported a lagging durable cursor, want exactly the failed commit's", lagged)
			}
			if got := reg.Counter("aggd_persist_errors_total", "").Load(); got != 1 {
				t.Fatalf("aggd_persist_errors_total = %d, want 1", got)
			}
			var prom bytes.Buffer
			reg.WriteProm(&prom)
			if want := fmt.Sprintf("\naggd_state_log_bytes %d\n", fileSize(t, state)); !strings.Contains(prom.String(), want) {
				t.Fatalf("scrape lacks %q", want)
			}
			requireReplayEqualsLive(t, a, state, []*handProbe{north}, tc.name)
		})
	}
}
