package probe

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/capture"
	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/measured"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// shardSweep returns the shard counts of the conformance contract —
// 1, 2 and NumCPU — deduplicated for small machines.
func shardSweep() []int {
	counts := []int{1, 2, runtime.NumCPU()}
	seen := map[int]bool{}
	var out []int
	for _, n := range counts {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// diffReports reports where two runs disagree — counters first, then
// the per-service aggregates of their observations — in a form small
// enough to read in a test log.
func diffReports(t *testing.T, want, got *Report, wantAgg, gotAgg *measured.Aggregate) {
	t.Helper()
	for d := services.Direction(0); d < services.NumDirections; d++ {
		if want.TotalBytes[d] != got.TotalBytes[d] {
			t.Errorf("%v TotalBytes: %v != %v", d, got.TotalBytes[d], want.TotalBytes[d])
		}
		if want.ClassifiedBytes[d] != got.ClassifiedBytes[d] {
			t.Errorf("%v ClassifiedBytes: %v != %v", d, got.ClassifiedBytes[d], want.ClassifiedBytes[d])
		}
		if !reflect.DeepEqual(wantAgg.SvcBytes[d], gotAgg.SvcBytes[d]) {
			t.Errorf("%v SvcBytes differ: %d vs %d services", d, len(gotAgg.SvcBytes[d]), len(wantAgg.SvcBytes[d]))
		}
		if !reflect.DeepEqual(wantAgg.SvcCommuneBytes[d], gotAgg.SvcCommuneBytes[d]) {
			t.Errorf("%v SvcCommuneBytes differ", d)
		}
		if !reflect.DeepEqual(wantAgg.SvcSeries[d], gotAgg.SvcSeries[d]) {
			t.Errorf("%v SvcSeries differ", d)
		}
		if !reflect.DeepEqual(wantAgg.SvcClassSeries[d], gotAgg.SvcClassSeries[d]) {
			t.Errorf("%v SvcClassSeries differ", d)
		}
	}
	for _, c := range []struct {
		name      string
		want, got int
	}{
		{"DecodeErrors", want.DecodeErrors, got.DecodeErrors},
		{"UnknownTEID", want.UnknownTEID, got.UnknownTEID},
		{"UnknownCell", want.UnknownCell, got.UnknownCell},
		{"ControlMessages", want.ControlMessages, got.ControlMessages},
		{"UserPlanePackets", want.UserPlanePackets, got.UserPlanePackets},
	} {
		if c.want != c.got {
			t.Errorf("%s: %d != %d", c.name, c.got, c.want)
		}
	}
}

// runSharded streams src through a pipeline whose every shard feeds one
// shared reference sink, returning the counters and the aggregate.
func runSharded(t *testing.T, country *geo.Country, cells *gtpsim.CellRegistry, shards int, src capture.Source) (*Report, *measured.Aggregate) {
	t.Helper()
	cls := dpi.NewClassifier(services.Catalog())
	ref := newRefSink(DefaultConfig(), cls, country)
	rep, err := NewPipeline(DefaultConfig(), cells, cls, shards).WithSinks(ref.shared).Run(src)
	if err != nil {
		t.Fatal(err)
	}
	return rep, ref.agg
}

// TestStreamingMatchesMaterializedReport is the conformance contract
// of the redesign: a gtpsim run consumed via capture.Source through
// the sharded pipeline must produce counters and an observation stream
// (folded by the reference sink) identical to the legacy materialized
// []Frame path through a single probe — at every shard count. Identity
// is exact (reflect.DeepEqual over every float), because all accounting
// sums integer-valued byte counts and the router keeps per-tunnel state
// shard-local.
func TestStreamingMatchesMaterializedReport(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 600

	// Legacy path: materialize the whole capture, consume on one
	// goroutine.
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	cls := dpi.NewClassifier(catalog)
	legacy := New(DefaultConfig(), sim.Cells, cls)
	ref := newRefSink(DefaultConfig(), cls, country)
	legacy.SetSink(ref)
	for _, f := range frames {
		legacy.HandleFrame(f.Time, f.Data)
	}
	want, wantAgg := legacy.Report(), ref.agg

	for _, shards := range shardSweep() {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			// A fresh simulator replays the identical workload (same
			// seed) as a stream, never materialized.
			sim2, err := gtpsim.New(country, catalog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, gotAgg := runSharded(t, country, sim2.Cells, shards, sim2.Stream())
			if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(wantAgg, gotAgg) {
				diffReports(t, want, got, wantAgg, gotAgg)
				t.Fatal("streamed/sharded report differs from the materialized single-probe report")
			}
		})
	}
}

// TestPipelineTraceReplayMatchesLive closes the persistence loop: a
// capture written to the binary trace format and replayed from it must
// measure identically to the live stream.
func TestPipelineTraceReplayMatchesLive(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 150

	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := capture.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capture.Copy(w, sim.Stream()); err != nil {
		t.Fatal(err)
	}

	sim2, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, liveAgg := runSharded(t, country, sim2.Cells, 2, sim2.Stream())

	rd, err := capture.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, replayedAgg := runSharded(t, country, sim.Cells, 2, rd)
	if !reflect.DeepEqual(live, replayed) || !reflect.DeepEqual(liveAgg, replayedAgg) {
		diffReports(t, live, replayed, liveAgg, replayedAgg)
		t.Fatal("trace replay report differs from the live stream report")
	}
}

// TestPipelineUnroutableFramesCounted pins the shard-0 fallback: a
// frame the router cannot key is still accounted (as a decode error)
// exactly once.
func TestPipelineUnroutableFramesCounted(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	cells := gtpsim.BuildCells(country, 1)
	frames := []capture.Frame{
		{Time: timeseries.StudyStart, Data: []byte{0xde, 0xad}},
		{Time: timeseries.StudyStart, Data: make([]byte, 40)},
	}
	pl := NewPipeline(DefaultConfig(), cells, dpi.NewClassifier(services.Catalog()), 4)
	rep, err := pl.Run(capture.NewSliceSource(frames))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecodeErrors != 2 {
		t.Errorf("DecodeErrors = %d, want 2", rep.DecodeErrors)
	}
}

// TestPipelineDefaultShards pins the shards<=0 → NumCPU default.
func TestPipelineDefaultShards(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	pl := NewPipeline(DefaultConfig(), gtpsim.BuildCells(country, 1), dpi.NewClassifier(services.Catalog()), 0)
	if pl.Shards() != runtime.NumCPU() {
		t.Errorf("Shards() = %d, want NumCPU = %d", pl.Shards(), runtime.NumCPU())
	}
}

// TestMergeSumsCounters pins the counters-only Merge shard reports
// combine through: every counter sums, and the source is left alone.
func TestMergeSumsCounters(t *testing.T) {
	a := &Report{UserPlanePackets: 3, DecodeErrors: 1}
	a.ClassifiedBytes[DL] = 5
	b := &Report{UserPlanePackets: 2, UnknownTEID: 4}
	b.ClassifiedBytes[DL] = 7
	b.TotalBytes[UL] = 9
	a.Merge(b)
	want := &Report{UserPlanePackets: 5, DecodeErrors: 1, UnknownTEID: 4}
	want.ClassifiedBytes[DL] = 12
	want.TotalBytes[UL] = 9
	if !reflect.DeepEqual(a, want) {
		t.Errorf("merged report %+v, want %+v", a, want)
	}
	if b.UserPlanePackets != 2 || b.ClassifiedBytes[DL] != 7 {
		t.Errorf("merge mutated its source: %+v", b)
	}
}
