package epochwire_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
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

// distFixture is the shared workload of the distributed conformance
// suite: one seed, the study week split into two observation windows —
// probe "north" measures the first half, probe "south" the second —
// and the single-process reference snapshot over the concatenated
// capture. Mirrors TestMultiDaySplitCaptureIdentity's setup, which
// already pins that the windowed split merges back byte-identically.
type distFixture struct {
	country  *geo.Country
	catalog  []services.Service
	cells    *gtpsim.CellRegistry
	frames1  []capture.Frame
	frames2  []capture.Frame
	half     int
	weekBins int
	fullSnap []byte
}

var (
	distOnce sync.Once
	dist     *distFixture
)

func distWorkload(t *testing.T) *distFixture {
	t.Helper()
	distOnce.Do(func() {
		fx := &distFixture{
			country: geo.Generate(geo.SmallConfig()),
			catalog: services.Catalog(),
		}
		fx.weekBins = int(timeseries.Week / timeseries.DefaultStep)
		fx.half = fx.weekBins / 2
		halfSim := func(winFrom, winTo int) []capture.Frame {
			cfg := gtpsim.DefaultConfig()
			cfg.Sessions = 300
			cfg.Seed = 11
			cfg.Start = timeseries.StudyStart.Add(time.Duration(winFrom) * timeseries.DefaultStep)
			cfg.Duration = time.Duration(winTo-winFrom) * timeseries.DefaultStep
			sim, err := gtpsim.New(fx.country, fx.catalog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			frames, _ := sim.Run()
			return frames
		}
		fx.frames1 = halfSim(0, fx.half)
		fx.frames2 = halfSim(fx.half, fx.weekBins)
		fx.cells = gtpsim.BuildCells(fx.country, 11)

		// The single-process reference: one pipeline over the whole
		// concatenated capture on the full week grid.
		pcfg := probe.ConfigFor(fx.country)
		pcfg.Bins = fx.weekBins
		pl := probe.NewPipeline(pcfg, fx.cells, dpi.NewClassifier(fx.catalog), 2)
		col := rollup.NewCollector(rollup.ConfigFrom(pcfg, geo.SmallConfig()), pl.Shards())
		all := append(append([]capture.Frame(nil), fx.frames1...), fx.frames2...)
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
		fx.fullSnap = buf.Bytes()
		dist = fx
	})
	if dist == nil {
		t.Fatal("distributed fixture failed to build")
	}
	return dist
}

// probeGrid returns the probe and rollup configs of one windowed probe
// (the window plus spill slack, clamped to the week —
// daemon.ProbeConfig's exact arithmetic).
func (fx *distFixture) probeGrid(winFrom, winTo int) (probe.Config, rollup.Config) {
	const slack = 3
	pcfg := probe.ConfigFor(fx.country)
	pcfg.Start = timeseries.StudyStart.Add(time.Duration(winFrom) * timeseries.DefaultStep)
	pcfg.Bins = min(winTo+slack, fx.weekBins) - winFrom
	return pcfg, rollup.ConfigFrom(pcfg, geo.SmallConfig())
}

func (fx *distFixture) newShipper(t *testing.T, addr, id string, rcfg rollup.Config) *epochwire.Shipper {
	t.Helper()
	sh, err := epochwire.NewShipper(epochwire.ShipperConfig{
		Addr:       addr,
		ProbeID:    id,
		SpoolPath:  filepath.Join(t.TempDir(), id+".spool"),
		Cfg:        rcfg,
		Shards:     2,
		BackoffMax: 100 * time.Millisecond, // fail fast: these tests kill aggregators on purpose
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// runProbe is one complete networked probe run: pipeline over src,
// every sealed epoch shipped, FIN awaited durable.
func (fx *distFixture) runProbe(t *testing.T, addr, id string, src capture.Source, winFrom, winTo int) error {
	t.Helper()
	pcfg, rcfg := fx.probeGrid(winFrom, winTo)
	pl := probe.NewPipeline(pcfg, fx.cells, dpi.NewClassifier(fx.catalog), 2)
	sh := fx.newShipper(t, addr, id, rcfg)
	col := rollup.NewCollector(rcfg, pl.Shards()).WithSealHook(sh.SealHook)
	rep, err := pl.WithSinks(col.Sink).Run(src)
	if err != nil {
		sh.Abort()
		return err
	}
	part, err := col.Finish(rep)
	if err != nil {
		sh.Abort()
		return err
	}
	return sh.Finish(part)
}

func (fx *distFixture) checkAggSnapshot(t *testing.T, a *epochwire.Aggregator) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "agg.roll")
	if err := a.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fx.fullSnap) {
		t.Fatalf("aggregated snapshot (%d bytes) is not byte-identical to the single-process run (%d bytes)", len(got), len(fx.fullSnap))
	}
}

func waitDone(t *testing.T, a *epochwire.Aggregator) {
	t.Helper()
	select {
	case <-a.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("aggregator did not drain")
	}
}

// chanSource streams frames pushed through a channel — the test's
// throttle for holding a probe mid-run while infrastructure fails
// around it. The fed frames are materialized sim output, so data
// stays valid after Next (stable).
type chanSource struct{ ch chan capture.Frame }

func (c *chanSource) Next() (capture.Frame, error) {
	f, ok := <-c.ch
	if !ok {
		return capture.Frame{}, io.EOF
	}
	return f, nil
}

func (c *chanSource) StableData() bool { return true }

// TestDistributedConformance is the tentpole's acceptance gate: two
// networked probes over the partitioned week produce a snapshot
// byte-identical to the single-process run — through a plain run, an
// aggregator restart mid-run, and a probe kill + restart mid-run.
func TestDistributedConformance(t *testing.T) {
	leakcheck.Check(t)
	fx := distWorkload(t)

	newAgg := func(t *testing.T, addr, statePath string) *epochwire.Aggregator {
		t.Helper()
		a, err := epochwire.NewAggregator(addr, "", epochwire.AggConfig{
			Probes:       2,
			StatePath:    statePath,
			PersistEvery: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Stop)
		return a
	}

	t.Run("TwoProbes", func(t *testing.T) {
		a := newAgg(t, "127.0.0.1:0", filepath.Join(t.TempDir(), "agg.state"))
		errs := make(chan error, 2)
		go func() {
			errs <- fx.runProbe(t, a.Addr(), "north", capture.NewSliceSource(fx.frames1), 0, fx.half)
		}()
		go func() {
			errs <- fx.runProbe(t, a.Addr(), "south", capture.NewSliceSource(fx.frames2), fx.half, fx.weekBins)
		}()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		waitDone(t, a)
		fx.checkAggSnapshot(t, a)
	})

	t.Run("AggregatorRestartMidRun", func(t *testing.T) {
		state := filepath.Join(t.TempDir(), "agg.state")
		a1 := newAgg(t, "127.0.0.1:0", state)
		addr := a1.Addr()
		if err := fx.runProbe(t, addr, "north", capture.NewSliceSource(fx.frames1), 0, fx.half); err != nil {
			t.Fatal(err)
		}

		// Probe south starts streaming against a1, which dies under it
		// mid-run; a2 rebinds the same address and state, and the
		// shipper's reconnect resumes from the durable cursor.
		src := &chanSource{ch: make(chan capture.Frame, 64)}
		pcfg, rcfg := fx.probeGrid(fx.half, fx.weekBins)
		pl := probe.NewPipeline(pcfg, fx.cells, dpi.NewClassifier(fx.catalog), 2)
		sh := fx.newShipper(t, addr, "south", rcfg)
		col := rollup.NewCollector(rcfg, pl.Shards()).WithSealHook(sh.SealHook)
		runErr := make(chan error, 1)
		var rep *probe.Report
		go func() {
			var err error
			rep, err = pl.WithSinks(col.Sink).Run(src)
			runErr <- err
		}()
		feed := func(frames []capture.Frame) {
			for _, f := range frames {
				src.ch <- f
			}
		}
		third := len(fx.frames2) / 3
		feed(fx.frames2[:third])
		// Wait until some of south's stream is durable at a1, so the
		// restart genuinely resumes mid-stream rather than from zero.
		deadline := time.Now().Add(20 * time.Second)
		for sh.Durable() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("probe south shipped nothing durable before the aggregator restart")
			}
			time.Sleep(10 * time.Millisecond)
		}
		a1.Stop()
		feed(fx.frames2[third : 2*third]) // spooled while the aggregator is down
		a2 := newAgg(t, addr, state)
		feed(fx.frames2[2*third:])
		close(src.ch)
		if err := <-runErr; err != nil {
			t.Fatal(err)
		}
		part, err := col.Finish(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.Finish(part); err != nil {
			t.Fatal(err)
		}
		waitDone(t, a2)
		fx.checkAggSnapshot(t, a2)
	})

	t.Run("ProbeKillAndRestartMidRun", func(t *testing.T) {
		a := newAgg(t, "127.0.0.1:0", filepath.Join(t.TempDir(), "agg.state"))
		if err := fx.runProbe(t, a.Addr(), "north", capture.NewSliceSource(fx.frames1), 0, fx.half); err != nil {
			t.Fatal(err)
		}

		// Probe south "crashes" mid-run: it measures only part of its
		// window, ships those sealed epochs (no FIN), and dies. The
		// aggregator is left holding a partial stream.
		pcfg, rcfg := fx.probeGrid(fx.half, fx.weekBins)
		pl := probe.NewPipeline(pcfg, fx.cells, dpi.NewClassifier(fx.catalog), 2)
		sh1 := fx.newShipper(t, a.Addr(), "south", rcfg)
		col := rollup.NewCollector(rcfg, pl.Shards()).WithSealHook(sh1.SealHook)
		cut := 2 * len(fx.frames2) / 3
		if _, err := pl.WithSinks(col.Sink).Run(capture.NewSliceSource(fx.frames2[:cut])); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for sh1.Durable() < sh1.LastSeq() {
			if time.Now().After(deadline) {
				t.Fatal("probe south's partial stream never became durable")
			}
			time.Sleep(10 * time.Millisecond)
		}
		if sh1.LastSeq() == 0 {
			t.Fatal("probe south sealed nothing before its crash — the scenario is vacuous")
		}
		sh1.Abort()

		// The restarted probe re-runs its whole deterministic window
		// under a new incarnation; the aggregator discards the orphaned
		// partial stream and the final aggregate is exact.
		if err := fx.runProbe(t, a.Addr(), "south", capture.NewSliceSource(fx.frames2), fx.half, fx.weekBins); err != nil {
			t.Fatal(err)
		}
		waitDone(t, a)
		fx.checkAggSnapshot(t, a)
	})
}
