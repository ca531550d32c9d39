package epochwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/rollup"
)

// commitLog watches the spool file and the wire through the shipper's
// own seams (ShipperConfig.FS and Dial) and checks the group-commit
// contract from outside: no epoch or fin is offered to the wire before
// an fsync covering it has returned. The k-th spool write that succeeds
// is seq k — append assigns the sequence number in the critical section
// its write lands in — so "covered" is simply how many writes had
// returned when the latest successful Sync began.
type commitLog struct {
	mu        sync.Mutex
	written   uint64 // spool writes that returned nil
	covered   uint64 // written, as of the start of the latest Sync that returned nil
	syncs     int
	firstSent map[uint64]bool
	onFirst   func(seq, covered uint64, syncs int) // optional, under mu
	early     []string                             // contract violations
}

func (l *commitLog) syncCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

type commitLogFS struct {
	chaos.FS
	log *commitLog
}

func (fs commitLogFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &commitLogFile{File: f, log: fs.log}, nil
}

type commitLogFile struct {
	chaos.File
	log *commitLog
}

func (f *commitLogFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if err == nil {
		f.log.mu.Lock()
		f.log.written++
		f.log.mu.Unlock()
	}
	return n, err
}

func (f *commitLogFile) Sync() error {
	f.log.mu.Lock()
	at := f.log.written
	f.log.mu.Unlock()
	err := f.File.Sync()
	if err == nil {
		f.log.mu.Lock()
		f.log.covered = max(f.log.covered, at)
		f.log.syncs++
		f.log.mu.Unlock()
	}
	return err
}

// dial wraps a dialer so every frame the shipper writes is inspected
// before it reaches the socket. WriteHello and WriteMessage each issue
// one Write, so the first Write of a connection is the handshake and
// every later one is exactly one framed message.
func (l *commitLog) dial(next func(network, addr string) (net.Conn, error)) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		c, err := next(network, addr)
		if err != nil {
			return nil, err
		}
		return &commitLogConn{Conn: c, log: l}, nil
	}
}

type commitLogConn struct {
	net.Conn
	log   *commitLog
	hello bool
}

func (c *commitLogConn) Write(p []byte) (int, error) {
	if !c.hello {
		c.hello = true
		return c.Conn.Write(p)
	}
	l := c.log
	m, err := ReadMessage(bufio.NewReader(bytes.NewReader(p)))
	l.mu.Lock()
	switch {
	case err != nil:
		l.early = append(l.early, fmt.Sprintf("unparseable frame on the wire: %v", err))
	case (m.Type == MsgEpoch || m.Type == MsgFin) && !l.firstSent[m.Seq]:
		if l.firstSent == nil {
			l.firstSent = make(map[uint64]bool)
		}
		l.firstSent[m.Seq] = true
		if m.Seq > l.covered {
			l.early = append(l.early, fmt.Sprintf("seq %d offered to the wire with only %d entries under a returned fsync", m.Seq, l.covered))
		}
		if l.onFirst != nil {
			l.onFirst(m.Seq, l.covered, l.syncs)
		}
	}
	l.mu.Unlock()
	return c.Conn.Write(p)
}

// TestShipperCommitsBeforeFirstSend is the group-commit contract, from
// one sealing goroutine and from two shards sealing concurrently while
// the sender commits and drains (the -race case): every message's
// first appearance on the wire follows a Sync that returned after its
// spool write, the run folds exactly, and the syncs are shared — never
// more of them than messages.
func TestShipperCommitsBeforeFirstSend(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			leakcheck.Check(t)
			cfg := testConfig()
			a := startAgg(t, AggConfig{Probes: 1, PersistEvery: 4})
			log := &commitLog{}
			sh, err := NewShipper(ShipperConfig{
				Addr:       a.Addr(),
				ProbeID:    "ordered",
				SpoolPath:  filepath.Join(t.TempDir(), "ordered.spool"),
				Cfg:        cfg,
				Shards:     shards,
				BackoffMax: 10 * time.Millisecond,
				Dial:       log.dial(net.Dial),
				FS:         commitLogFS{FS: chaos.OS, log: log},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sh.Abort)
			const perShard = 150
			parts := make([]*rollup.Partial, shards)
			var wg sync.WaitGroup
			for shard := range parts {
				parts[shard] = &rollup.Partial{Cfg: cfg}
				wg.Add(1)
				go func() {
					defer wg.Done()
					nameOf := func(uint32) string { return "Facebook" }
					for i := 0; i < perShard; i++ {
						ep := rollup.Epoch{Bin: i % cfg.Bins, Cells: []rollup.Cell{{Commune: int32(shard), Bytes: float64(1 + i)}}}
						sh.SealHook(shard, ep, nameOf)
						if err := parts[shard].Merge(rollup.SingleEpochPartial(cfg, ep, nameOf)); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			want := parts[0]
			for _, p := range parts[1:] {
				if err := want.Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := sh.Finish(want); err != nil {
				t.Fatal(err)
			}
			log.mu.Lock()
			defer log.mu.Unlock()
			for _, v := range log.early {
				t.Error(v)
			}
			spooled := uint64(shards*perShard + 1)
			if got := uint64(len(log.firstSent)); got != spooled {
				t.Errorf("%d distinct messages reached the wire, want %d", got, spooled)
			}
			if log.syncs < 1 || uint64(log.syncs) > spooled {
				t.Errorf("%d spool fsyncs for %d messages, want 1 ≤ syncs ≤ messages", log.syncs, spooled)
			}
			if got, want := foldTotal(t, a), want.CellTotals()[0]; got != want {
				t.Errorf("aggregator folded %v bytes, want %v", got, want)
			}
		})
	}
}

// TestShipperSealsWithoutFsyncWhileAggregatorDown pins where the disk
// wait went: with no aggregator reachable, sealing writes and returns —
// zero fsyncs, however many epochs pile up — and the first session
// that can send anything commits the whole backlog with one.
func TestShipperSealsWithoutFsyncWhileAggregatorDown(t *testing.T) {
	leakcheck.Check(t)
	cfg := testConfig()
	a := startAgg(t, AggConfig{Probes: 1, PersistEvery: 4})
	const seals = 100
	log := &commitLog{}
	firstSend := make(chan string, 1)
	log.onFirst = func(seq, covered uint64, syncs int) {
		if seq == 1 {
			firstSend <- fmt.Sprintf("syncs=%d covered=%d", syncs, covered)
		}
	}
	var up atomic.Bool
	dial := func(network, addr string) (net.Conn, error) {
		if !up.Load() {
			return nil, &net.OpError{Op: "dial", Net: network, Err: syscall.ECONNREFUSED}
		}
		return net.Dial(network, addr)
	}
	sh, err := NewShipper(ShipperConfig{
		Addr:        a.Addr(),
		ProbeID:     "backlog",
		SpoolPath:   filepath.Join(t.TempDir(), "backlog.spool"),
		Cfg:         cfg,
		Shards:      1,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Dial:        log.dial(dial),
		FS:          commitLogFS{FS: chaos.OS, log: log},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Abort)
	want := &rollup.Partial{Cfg: cfg}
	for i := 0; i < seals; i++ {
		if err := want.Merge(sealOne(t, sh, cfg, i%cfg.Bins, float64(1+i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := sh.LastSeq(); got != seals {
		t.Fatalf("spooled through seq %d with the aggregator down, want %d (a seal blocked or was dropped)", got, seals)
	}
	if syncs := log.syncCount(); syncs != 0 {
		t.Fatalf("%d spool fsyncs before any session existed; sealing must not wait for the disk", syncs)
	}
	up.Store(true)
	select {
	case got := <-firstSend:
		if want := fmt.Sprintf("syncs=1 covered=%d", seals); got != want {
			t.Errorf("at the first send: %s, want %s (one commit for the whole backlog)", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nothing reached the wire after the aggregator came up")
	}
	if err := sh.Finish(want); err != nil {
		t.Fatal(err)
	}
	for _, v := range log.early {
		t.Error(v)
	}
	// The backlog's commit, plus at most one more for the fin.
	if syncs := log.syncCount(); syncs > 2 {
		t.Errorf("%d spool fsyncs for one backlog and a fin, want at most 2", syncs)
	}
}

// TestShipperCommitFailureLatchesFatal is the other half of the
// contract: when no fsync ever succeeds, nothing may be sent. The
// commit exhausts its retry budget, the shipper latches fatal with the
// cause preserved, and the aggregator — up and reachable throughout —
// has been offered no epoch at all.
func TestShipperCommitFailureLatchesFatal(t *testing.T) {
	leakcheck.Check(t)
	cfg := testConfig()
	a := startAgg(t, AggConfig{Probes: 1, PersistEvery: 1})
	spec := chaos.Spec{Seed: 1}
	spec.Prob[chaos.FaultFsync] = 1 // every sync, unlimited fuel
	reg := obs.NewRegistry()
	sh, err := NewShipper(ShipperConfig{
		Addr:       a.Addr(),
		ProbeID:    "no-sync",
		SpoolPath:  filepath.Join(t.TempDir(), "no-sync.spool"),
		Cfg:        cfg,
		Shards:     1,
		BackoffMax: 10 * time.Millisecond,
		FS:         spec.Injector().FS("spool", chaos.OS),
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Abort)
	want := sealOne(t, sh, cfg, 0, 100)
	if got := sh.LastSeq(); got != 1 {
		t.Fatalf("seal spooled seq %d, want 1: a failing fsync must not fail the write", got)
	}
	err = sh.Finish(want)
	if err == nil {
		t.Fatal("Finish returned nil although no spool fsync ever succeeded")
	}
	if !IsFatal(err) {
		t.Errorf("commit exhaustion should be fatal, got: %v", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Errorf("error should attribute the cause (EIO from fsync), got: %v", err)
	}
	if got := sh.sp.retryCount(); got != spoolWriteRetries {
		t.Errorf("commit retried %d times, want the full budget of %d", got, spoolWriteRetries)
	}
	if got := sh.metrics.SpoolRetries.Load(); got != spoolWriteRetries {
		t.Errorf("wire_spool_write_retries = %d, want %d", got, spoolWriteRetries)
	}
	if sends, syncs := sh.metrics.Sends.Load(), sh.metrics.SpoolSyncs.Load(); sends != 0 || syncs != 0 {
		t.Errorf("sends = %d, syncs = %d; nothing may reach the wire without a commit", sends, syncs)
	}
	if got := a.metrics.EpochsApplied.Load() + a.metrics.FinsApplied.Load(); got != 0 {
		t.Errorf("aggregator applied %d messages from an uncommitted spool", got)
	}
}

// TestShipperBudgetStarvationPingsAtOnce is the regression test for the
// -spool-budget stall: the spool file only shrinks when the spool
// empties, the aggregator only persists every PersistEvery applies, and
// an idle sender used to learn the durable cursor only from its next
// keepalive — so every time the file filled, sealing stopped for one
// whole Keepalive (this run: four fills, 2 s each). A starved spool
// now makes the idle sender ping at once.
func TestShipperBudgetStarvationPingsAtOnce(t *testing.T) {
	leakcheck.Check(t)
	cfg := testConfig()
	a := startAgg(t, AggConfig{Probes: 1, PersistEvery: 16})
	const keepalive = 2 * time.Second
	reg := obs.NewRegistry()
	sh, err := NewShipper(ShipperConfig{
		Addr:        a.Addr(),
		ProbeID:     "tight",
		SpoolPath:   filepath.Join(t.TempDir(), "tight.spool"),
		Cfg:         cfg,
		Shards:      1,
		Keepalive:   keepalive,
		SpoolBudget: 1500,
		BackoffMax:  10 * time.Millisecond,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Abort)
	start := time.Now()
	want := &rollup.Partial{Cfg: cfg}
	for i := 0; i < 60; i++ {
		if err := want.Merge(sealOne(t, sh, cfg, i%cfg.Bins, float64(1+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Finish(want); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > keepalive/2 {
		t.Errorf("run took %v; a full spool must not wait out the %v keepalive", took, keepalive)
	}
	if got := sh.metrics.Pings.Load(); got == 0 {
		t.Error("no ping was sent: the spool never starved and this test checked nothing")
	}
	if got, want := foldTotal(t, a), want.CellTotals()[0]; got != want {
		t.Errorf("aggregator folded %v bytes, want %v", got, want)
	}
}
