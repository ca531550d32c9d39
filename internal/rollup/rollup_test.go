package rollup

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/probe"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// tinyConfig is a 4-bin grid for boundary tests.
func tinyConfig() Config {
	return Config{
		Start:    timeseries.StudyStart,
		Step:     15 * time.Minute,
		Bins:     4,
		Geo:      geo.SmallConfig(),
		Lateness: 1,
	}
}

// testNames is the ID namespace of handcrafted observations: the
// default catalogue, exactly what a live classifier would assign.
var testNames = services.DefaultNames()

func obs(at time.Time, dir services.Direction, svc string, commune int, bytes float64) probe.Observation {
	id, ok := testNames.Lookup(svc)
	if !ok {
		panic("rollup test: observation for a non-catalogue service " + svc)
	}
	return probe.Observation{At: at, Dir: dir, Svc: id, Service: svc, Commune: commune, Bytes: bytes}
}

// TestBinEdges pins the epoch grid arithmetic to
// timeseries.Series.IndexOf: an instant exactly on a bin edge belongs
// to the bin it opens, and instants outside the grid land in the
// overflow epoch.
func TestBinEdges(t *testing.T) {
	cfg := tinyConfig()
	ref := timeseries.New(cfg.Start, cfg.Step, cfg.Bins)
	cases := []time.Time{
		cfg.Start.Add(-time.Nanosecond),
		cfg.Start,
		cfg.Start.Add(cfg.Step - time.Nanosecond),
		cfg.Start.Add(cfg.Step), // exactly on the bin 1 edge
		cfg.Start.Add(2*cfg.Step + time.Minute),
		cfg.Start.Add(4 * cfg.Step), // exactly on the end edge
		cfg.Start.Add(time.Hour * 24),
	}
	for _, at := range cases {
		want := ref.IndexOf(at)
		if want < 0 {
			want = OverflowBin
		}
		if got := cfg.binOf(at); got != want {
			t.Errorf("binOf(%v) = %d, IndexOf says %d", at, got, want)
		}
	}
}

// TestSealingAndLateReopen drives a builder with out-of-order
// observations: epochs past the lateness horizon seal, a late
// observation reopens its bin as a fresh generation, and Seal folds
// the generations back together without losing a byte.
func TestSealingAndLateReopen(t *testing.T) {
	cfg := tinyConfig() // lateness 1
	b := NewBuilder(cfg)
	at := func(bin int) time.Time { return cfg.Start.Add(time.Duration(bin) * cfg.Step) }

	b.Observe(obs(at(0), services.DL, "Facebook", 7, 100))
	b.Observe(obs(at(1), services.DL, "Facebook", 7, 10))
	if b.SealedEpochs() != 0 {
		t.Fatalf("sealed %d epochs before the horizon passed bin 0", b.SealedEpochs())
	}
	b.Observe(obs(at(3), services.UL, "YouTube", 2, 5))
	if b.SealedEpochs() != 2 {
		t.Fatalf("watermark 3, lateness 1: want bins 0 and 1 sealed, got %d seals", b.SealedEpochs())
	}
	// Late arrival for the sealed bin 0: a reopened generation.
	b.Observe(obs(at(0).Add(time.Minute), services.DL, "Facebook", 7, 1))
	p := b.Seal()
	if p.LateFrames != 1 {
		t.Errorf("LateFrames = %d, want 1", p.LateFrames)
	}
	if len(p.Epochs) != 3 {
		t.Fatalf("want 3 folded epochs, got %d: %+v", len(p.Epochs), p.Epochs)
	}
	// Bin 0 must hold both generations, summed exactly.
	ep0 := p.Epochs[0]
	if ep0.Bin != 0 || len(ep0.Cells) != 1 || ep0.Cells[0].Bytes != 101 {
		t.Errorf("bin 0 epoch = %+v, want one 101-byte Facebook cell", ep0)
	}
	if got := p.CellTotals(); got[services.DL] != 111 || got[services.UL] != 5 {
		t.Errorf("cell totals = %v, want [111 5]", got)
	}
}

// TestObserveAfterSealPanics pins the spent-builder contract.
func TestObserveAfterSealPanics(t *testing.T) {
	b := NewBuilder(tinyConfig())
	b.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("Observe after Seal did not panic")
		}
	}()
	b.Observe(obs(timeseries.StudyStart, services.DL, "Facebook", 0, 1))
}

// TestMergeCommutative verifies that partial merging is exact and
// commutative, and that normalization makes the two orders
// structurally identical.
func TestMergeCommutative(t *testing.T) {
	cfg := tinyConfig()
	at := func(bin int) time.Time { return cfg.Start.Add(time.Duration(bin) * cfg.Step) }
	build := func(events ...probe.Observation) *Partial {
		b := NewBuilder(cfg)
		for _, e := range events {
			b.Observe(e)
		}
		return b.Seal()
	}
	mk := func() (*Partial, *Partial) {
		a := build(
			obs(at(0), services.DL, "YouTube", 1, 3),
			obs(at(2), services.UL, "Facebook", 2, 7),
			obs(at(0).Add(-time.Hour), services.DL, "Netflix", 3, 11), // overflow
		)
		b := build(
			obs(at(0), services.DL, "YouTube", 1, 5),
			obs(at(1), services.DL, "iCloud", 1, 13),
			obs(at(2), services.UL, "Facebook", 2, 17),
		)
		return a, b
	}
	a1, b1 := mk()
	if err := a1.Merge(b1); err != nil {
		t.Fatal(err)
	}
	a2, b2 := mk()
	if err := b2.Merge(a2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, b2) {
		t.Fatalf("merge is not commutative:\n a·b = %+v\n b·a = %+v", a1, b2)
	}
	if a1.Epochs[0].Bin != OverflowBin {
		t.Errorf("overflow epoch not first: %+v", a1.Epochs[0])
	}
	if got := a1.CellTotals(); got[services.DL] != 3+11+5+13 || got[services.UL] != 7+17 {
		t.Errorf("merged totals = %v", got)
	}
}

// TestMergeRejectsMismatchedGrids pins the alignment guard: grids that
// merely extend each other (same lattice, different range) now merge,
// but a different step, an off-lattice start or another geography is
// still a hard error — and a failed merge must leave p untouched.
func TestMergeRejectsMismatchedGrids(t *testing.T) {
	mk := func(mut func(*Config)) *Partial {
		cfg := tinyConfig()
		mut(&cfg)
		b := NewBuilder(cfg)
		b.Observe(obs(cfg.Start, services.DL, "Facebook", 1, 10))
		return b.Seal()
	}
	base := mk(func(*Config) {})
	cases := map[string]*Partial{
		"different step":    mk(func(c *Config) { c.Step = 30 * time.Minute }),
		"off-lattice start": mk(func(c *Config) { c.Start = c.Start.Add(time.Minute) }),
		"another geography": mk(func(c *Config) { c.Geo.NumCommunes++ }),
		"over-limit union":  mk(func(c *Config) { c.Start = c.Start.Add(time.Duration(MaxBins+1) * c.Step) }),
		"aliased receiver":  base,
	}
	for name, other := range cases {
		before := base.CellTotals()
		if err := base.Merge(other); err == nil {
			t.Errorf("%s: merge did not error", name)
		}
		if got := base.CellTotals(); got != before {
			t.Errorf("%s: failed merge mutated the receiver (%v -> %v)", name, before, got)
		}
	}

	// Same lattice, larger range: the time-extension feature, not an
	// error.
	wider := mk(func(c *Config) { c.Bins = 8 })
	if err := base.Merge(wider); err != nil {
		t.Fatalf("extending merge rejected: %v", err)
	}
	if base.Cfg.Bins != 8 {
		t.Fatalf("union grid has %d bins, want 8", base.Cfg.Bins)
	}
}

// TestCollectorInvariant ensures Finish cross-checks the sink cell
// sums against the report's classified bytes.
func TestCollectorInvariant(t *testing.T) {
	col := NewCollector(tinyConfig(), 2)
	col.Sink(0).Observe(obs(timeseries.StudyStart, services.DL, "Facebook", 0, 42))
	rep := &probe.Report{}
	rep.ClassifiedBytes[services.DL] = 42
	if _, err := col.Finish(rep); err != nil {
		t.Fatalf("matching totals rejected: %v", err)
	}

	col2 := NewCollector(tinyConfig(), 1)
	rep2 := &probe.Report{}
	rep2.ClassifiedBytes[services.DL] = 42 // report saw traffic the sink never did
	if _, err := col2.Finish(rep2); err == nil {
		t.Fatal("mismatched totals not rejected")
	}
}

// TestIngestMemoryIsAggregateBound drives ~50k observations through a
// builder and checks the retained state is the aggregate cube, not the
// event stream: every event hits one of a few hundred (bin, cell)
// slots, so cells must number exactly the distinct keys.
func TestIngestMemoryIsAggregateBound(t *testing.T) {
	cfg := tinyConfig()
	cfg.Lateness = -1 // keep everything open; we count final cells
	b := NewBuilder(cfg)
	const events = 50000
	for i := 0; i < events; i++ {
		bin := i % cfg.Bins
		commune := i % 10
		b.Observe(obs(cfg.Start.Add(time.Duration(bin)*cfg.Step), services.DL, "Facebook", commune, 1))
	}
	p := b.Seal()
	var cells int
	for _, ep := range p.Epochs {
		cells += len(ep.Cells)
	}
	// (i mod 4, i mod 10) cycles with period lcm(4, 10) = 20.
	if want := 20; cells != want {
		t.Fatalf("retained %d cells for %d events, want the %d distinct keys", cells, events, want)
	}
	if got := p.CellTotals()[services.DL]; got != events {
		t.Fatalf("cell totals %v, want %d", got, events)
	}
	if math.Abs(float64(p.LateFrames)) > 0 {
		t.Fatalf("lateness disabled but %d late frames", p.LateFrames)
	}
}
