package epochwire_test

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/chaos"
	"repro/internal/dpi"
	"repro/internal/epochwire"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/leakcheck"
	"repro/internal/probe"
	"repro/internal/rollup"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// chaosSeed reruns a single failed convergence schedule: the failure
// message of TestConvergenceUnderFaults prints the exact command.
var chaosSeed = flag.Uint64("chaos.seed", 0, "run only this TestConvergenceUnderFaults seed (0 = the full sweep)")

// sealEvent is one recorded Collector seal callback, replayable into
// any number of shippers without re-running the pipeline.
type sealEvent struct {
	shard int
	ep    rollup.Epoch
}

// sealRec records a probe run's seal events once, so the convergence
// sweep pays for the capture pipeline a single time and each seeded
// schedule only exercises what chaos actually perturbs: the spool, the
// wire and the aggregator's disk.
type sealRec struct {
	mu     sync.Mutex
	events []sealEvent
	names  map[uint32]string
}

func (r *sealRec) hook(shard int, ep rollup.Epoch, nameOf func(svc uint32) string) {
	cp := ep
	cp.Cells = append([]rollup.Cell(nil), ep.Cells...)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cp.Cells {
		if _, ok := r.names[c.Svc]; !ok {
			r.names[c.Svc] = nameOf(c.Svc)
		}
	}
	r.events = append(r.events, sealEvent{shard: shard, ep: cp})
}

func (r *sealRec) nameOf(svc uint32) string { return r.names[svc] }

// chaosProbe is one pre-recorded networked probe run: its grid, its
// seal events in original order, and the final partial Finish ships.
type chaosProbe struct {
	id   string
	rcfg rollup.Config
	rec  *sealRec
	part *rollup.Partial
}

// chaosFixture is the convergence sweep's workload: a 64-bin capture
// split across two probes (same shape as the distributed conformance
// fixture, sized for hundreds of repetitions), its single-process
// reference snapshot, and both probes' recorded seal streams.
type chaosFixture struct {
	rangeBins int
	probes    []*chaosProbe
	fullSnap  []byte
}

var (
	chaosOnce sync.Once
	chaosFx   *chaosFixture
)

func chaosWorkload(t *testing.T) *chaosFixture {
	t.Helper()
	chaosOnce.Do(func() {
		country := geo.Generate(geo.SmallConfig())
		catalog := services.Catalog()
		cells := gtpsim.BuildCells(country, 23)
		const rangeBins, half, sessions = 64, 32, 120
		sim := func(winFrom, winTo int) []capture.Frame {
			cfg := gtpsim.DefaultConfig()
			cfg.Sessions = sessions
			cfg.Seed = 23
			cfg.Start = timeseries.StudyStart.Add(time.Duration(winFrom) * timeseries.DefaultStep)
			cfg.Duration = time.Duration(winTo-winFrom) * timeseries.DefaultStep
			s, err := gtpsim.New(country, catalog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			frames, _ := s.Run()
			return frames
		}
		frames1, frames2 := sim(0, half), sim(half, rangeBins)

		// The single-process reference over the concatenated capture.
		pcfg := probe.ConfigFor(country)
		pcfg.Bins = rangeBins
		pl := probe.NewPipeline(pcfg, cells, dpi.NewClassifier(catalog), 2)
		col := rollup.NewCollector(rollup.ConfigFrom(pcfg, geo.SmallConfig()), pl.Shards())
		all := append(append([]capture.Frame(nil), frames1...), frames2...)
		rep, err := pl.WithSinks(col.Sink).Run(capture.NewSliceSource(all))
		if err != nil {
			t.Fatal(err)
		}
		part, err := col.Finish(rep)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rollup.WriteV2(&buf, part); err != nil {
			t.Fatal(err)
		}
		fx := &chaosFixture{rangeBins: rangeBins, fullSnap: buf.Bytes()}

		// Record each probe's seal stream once (daemon.ProbeConfig's
		// exact window arithmetic: window plus spill slack, clamped to
		// the range).
		record := func(id string, frames []capture.Frame, winFrom, winTo int) *chaosProbe {
			const slack = 3
			pcfg := probe.ConfigFor(country)
			pcfg.Start = timeseries.StudyStart.Add(time.Duration(winFrom) * timeseries.DefaultStep)
			pcfg.Bins = min(winTo+slack, rangeBins) - winFrom
			rcfg := rollup.ConfigFrom(pcfg, geo.SmallConfig())
			pl := probe.NewPipeline(pcfg, cells, dpi.NewClassifier(catalog), 2)
			rec := &sealRec{names: map[uint32]string{}}
			col := rollup.NewCollector(rcfg, pl.Shards()).WithSealHook(rec.hook)
			rep, err := pl.WithSinks(col.Sink).Run(capture.NewSliceSource(frames))
			if err != nil {
				t.Fatal(err)
			}
			part, err := col.Finish(rep)
			if err != nil {
				t.Fatal(err)
			}
			return &chaosProbe{id: id, rcfg: rcfg, rec: rec, part: part}
		}
		fx.probes = []*chaosProbe{
			record("north", frames1, 0, half),
			record("south", frames2, half, rangeBins),
		}
		for _, p := range fx.probes {
			if len(p.rec.events) == 0 {
				t.Fatalf("probe %s recorded no seal events — the chaos workload is vacuous", p.id)
			}
		}
		chaosFx = fx
	})
	if chaosFx == nil {
		t.Fatal("chaos fixture failed to build")
	}
	return chaosFx
}

// convergenceInjector composes a seeded schedule out of every
// *transient* fault the plane knows: connection faults plus recoverable
// disk faults. Crash latching is deliberately absent — it models a
// process death, which the dedicated restart tests cover — so with the
// fuel bound every schedule's faults eventually subside and the run
// must converge.
func convergenceInjector(seed uint64) *chaos.Injector {
	s := chaos.Spec{Seed: seed, Fuel: 24, Stall: 25 * time.Millisecond}
	s.Prob[chaos.FaultDial] = 0.08
	s.Prob[chaos.FaultReset] = 0.05
	s.Prob[chaos.FaultShortWrite] = 0.04
	s.Prob[chaos.FaultStallRead] = 0.03
	s.Prob[chaos.FaultStallWrite] = 0.03
	s.Prob[chaos.FaultCorrupt] = 0.04
	s.Prob[chaos.FaultFSShortWrite] = 0.03
	s.Prob[chaos.FaultENOSPC] = 0.03
	s.Prob[chaos.FaultFsync] = 0.03
	s.Prob[chaos.FaultRename] = 0.03
	return s.Injector()
}

// runConvergenceSeed runs the full distributed collection — both
// recorded probes into one aggregator — under the seed's fault
// schedule and requires exact convergence: conservation holds and the
// final snapshot is byte-identical to the single-process run. Seeds
// divisible by three additionally restart the aggregator mid-run.
func runConvergenceSeed(t *testing.T, fx *chaosFixture, seed uint64) {
	t.Helper()
	repro := fmt.Sprintf("repro: go test ./internal/epochwire -run 'TestConvergenceUnderFaults' -chaos.seed=%d", seed)
	// Session logs accumulate in a buffer (not t.Logf: the shipper and
	// aggregator goroutines may outlive a t.Fatalf) and are dumped only
	// when the seed fails.
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	logf := func(format string, args ...any) {
		logMu.Lock()
		fmt.Fprintf(&logBuf, format+"\n", args...)
		logMu.Unlock()
	}
	fatalf := func(format string, args ...any) {
		t.Helper()
		logMu.Lock()
		trace := logBuf.String()
		logMu.Unlock()
		t.Fatalf(format+"\n  %s\nsession trace:\n%s", append(args, repro, trace)...)
	}
	in := convergenceInjector(seed)
	state := filepath.Join(t.TempDir(), "agg.state")
	newAgg := func(addr string) *epochwire.Aggregator {
		a, err := epochwire.NewAggregator(addr, "", epochwire.AggConfig{
			Probes:       len(fx.probes),
			StatePath:    state,
			PersistEvery: 4,
			WrapConn:     in.WrapConn("aggd.wire"),
			FS:           in.FS("aggd.state", chaos.OS),
			Logf:         logf,
		})
		if err != nil {
			fatalf("starting aggregator: %v", err)
		}
		t.Cleanup(a.Stop)
		return a
	}
	a := newAgg("127.0.0.1:0")
	addr := a.Addr()

	errs := make(chan error, len(fx.probes))
	shippers := make([]*epochwire.Shipper, len(fx.probes))
	for i, p := range fx.probes {
		d := &net.Dialer{Timeout: 250 * time.Millisecond}
		sh, err := epochwire.NewShipper(epochwire.ShipperConfig{
			Addr:        addr,
			ProbeID:     p.id,
			SpoolPath:   filepath.Join(t.TempDir(), p.id+".spool"),
			Cfg:         p.rcfg,
			Shards:      2,
			Keepalive:   20 * time.Millisecond,
			AckTimeout:  250 * time.Millisecond,
			BackoffBase: 2 * time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
			Dial:        in.Dial(p.id+".wire", d.Dial),
			FS:          in.FS(p.id+".spool", chaos.OS),
			Logf:        logf,
		})
		if err != nil {
			fatalf("starting shipper %s: %v", p.id, err)
		}
		shippers[i] = sh
		go func(p *chaosProbe, sh *epochwire.Shipper) {
			for _, ev := range p.rec.events {
				sh.SealHook(ev.shard, ev.ep, p.rec.nameOf)
			}
			errs <- sh.Finish(p.part)
		}(p, sh)
	}

	if seed%3 == 0 {
		// Restart the aggregator mid-run, once some of the stream is
		// durable, so recovery composes with the wire/disk faults.
		deadline := time.Now().Add(5 * time.Second)
		for shippers[0].Durable() == 0 && shippers[1].Durable() == 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		a.Stop()
		a = newAgg(addr)
	}

	for range fx.probes {
		select {
		case err := <-errs:
			if err != nil {
				fatalf("probe finish: %v", err)
			}
		case <-time.After(60 * time.Second):
			fatalf("a probe did not finish within 60s (chaos fuel left: %d)", in.FuelLeft())
		}
	}
	select {
	case <-a.Done():
	case <-time.After(30 * time.Second):
		fatalf("aggregator did not drain")
	}
	if err := a.CheckConservation(); err != nil {
		fatalf("conservation broken: %v", err)
	}
	// The snapshot write itself goes through the chaos FS; a transient
	// disk fault there is not a convergence violation, so retry it.
	path := filepath.Join(t.TempDir(), "agg.roll")
	var werr error
	for i := 0; i < 5; i++ {
		if werr = a.WriteSnapshot(path); werr == nil {
			break
		}
	}
	if werr != nil {
		fatalf("writing converged snapshot: %v", werr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		fatalf("reading converged snapshot: %v", err)
	}
	if !bytes.Equal(got, fx.fullSnap) {
		fatalf("converged snapshot (%d bytes) is not byte-identical to the single-process run (%d bytes)", len(got), len(fx.fullSnap))
	}
}

// TestConvergenceUnderFaults is the chaos plane's headline oracle:
// across hundreds of seeded fault schedules — dial refusals, mid-frame
// resets, short writes, stalls, corrupted frames, ENOSPC, failed
// fsyncs, failed renames, with an aggregator restart folded into every
// third seed — the distributed collection must converge to a snapshot
// byte-identical to the single-process run, with the conservation
// chain intact. Every failure prints the one-line repro command.
func TestConvergenceUnderFaults(t *testing.T) {
	fx := chaosWorkload(t)
	if *chaosSeed != 0 {
		runConvergenceSeed(t, fx, *chaosSeed)
		return
	}
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for i := 0; i < seeds; i++ {
		seed := uint64(i)*2654435761 + 1
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runConvergenceSeed(t, fx, seed)
		})
	}
}

// TestAggregatorCrashMidStateWrite pins the durability point of the
// state log: a commit is a write of the uncommitted tail followed by an
// fsync, so a crash landing inside the write (chaos.CrashAt tears it:
// half the bytes reach the file, and every later write is torn the same
// way) leaves the committed prefix intact plus a torn final record.
// The restarted aggregator replays the complete records, drops the
// torn one, resumes from that durable cursor, the probes replay the gap
// from their spools, and the aggregate still comes out byte-identical.
func TestAggregatorCrashMidStateWrite(t *testing.T) {
	leakcheck.Check(t)
	fx := chaosWorkload(t)
	in := chaos.CrashAt("aggd.state", "write", 3)
	state := filepath.Join(t.TempDir(), "agg.state")
	a1, err := epochwire.NewAggregator("127.0.0.1:0", "", epochwire.AggConfig{
		Probes:       len(fx.probes),
		StatePath:    state,
		PersistEvery: 1,
		FS:           in.FS("aggd.state", chaos.OS),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a1.Stop)
	addr := a1.Addr()

	errs := make(chan error, len(fx.probes))
	for _, p := range fx.probes {
		sh, err := epochwire.NewShipper(epochwire.ShipperConfig{
			Addr:        addr,
			ProbeID:     p.id,
			SpoolPath:   filepath.Join(t.TempDir(), p.id+".spool"),
			Cfg:         p.rcfg,
			Shards:      2,
			Keepalive:   20 * time.Millisecond,
			AckTimeout:  250 * time.Millisecond,
			BackoffBase: 2 * time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func(p *chaosProbe, sh *epochwire.Shipper) {
			for _, ev := range p.rec.events {
				sh.SealHook(ev.shard, ev.ep, p.rec.nameOf)
			}
			errs <- sh.Finish(p.part)
		}(p, sh)
	}

	// Wait for the crash point to fire (with persist-every-1 it is hit
	// within the first few applies), then kill the wounded aggregator.
	deadline := time.Now().Add(10 * time.Second)
	for !in.Crashed() {
		if time.Now().After(deadline) {
			t.Fatal("the armed write crash point never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	a1.Stop()

	// The torn state log must still be loadable — that is the whole
	// point of the torn-tail rule — and the restarted aggregator
	// finishes the run exactly.
	a2, err := epochwire.NewAggregator(addr, "", epochwire.AggConfig{
		Probes:       len(fx.probes),
		StatePath:    state,
		PersistEvery: 4,
	})
	if err != nil {
		t.Fatalf("restart after torn write: %v", err)
	}
	t.Cleanup(a2.Stop)
	for range fx.probes {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("a probe did not finish after the aggregator restart")
		}
	}
	waitDone(t, a2)
	if err := a2.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "agg.roll")
	if err := a2.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fx.fullSnap) {
		t.Fatalf("post-crash aggregate (%d bytes) differs from the single-process run (%d bytes)", len(got), len(fx.fullSnap))
	}
}
