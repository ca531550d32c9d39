package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/capture"
	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/rollup"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// pipelineShards is P, the shard count of every "as deployed" pipeline.
func pipelineShards() int { return min(runtime.NumCPU(), 4) }

// world is what probesim, probed and tracegen all build before their
// first frame: the small-scale country and the service catalog.
type world struct {
	country  *geo.Country
	catalog  []services.Service
	weekBins int
}

func newWorld() *world {
	return &world{
		country:  geo.Generate(geo.SmallConfig()),
		catalog:  services.Catalog(),
		weekBins: int(timeseries.Week / timeseries.DefaultStep),
	}
}

// simulator builds the generator for sessions starting inside bins
// [from, to) of the study week — probesim's -window arithmetic.
func (w *world) simulator(sessions int, seed uint64, from, to int) (*gtpsim.Simulator, error) {
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = sessions
	cfg.Seed = seed
	cfg.Start = timeseries.StudyStart.Add(time.Duration(from) * timeseries.DefaultStep)
	cfg.Duration = time.Duration(to-from) * timeseries.DefaultStep
	return gtpsim.New(w.country, w.catalog, cfg)
}

// grids returns the probe and rollup configs of a probe observing bins
// [from, to): the window plus spill slack, clamped to the week, exactly
// as probesim and probed compute it.
func (w *world) grids(from, to int) (probe.Config, rollup.Config) {
	const spillSlackBins = 3
	pcfg := probe.ConfigFor(w.country)
	pcfg.Start = timeseries.StudyStart.Add(time.Duration(from) * timeseries.DefaultStep)
	pcfg.Bins = min(to+spillSlackBins, w.weekBins) - from
	return pcfg, rollup.ConfigFrom(pcfg, geo.SmallConfig())
}

// captureJob is one capture-plane run in the shape probesim and probed
// assemble it: source → CountingSource → StopSource → sharded pipeline
// → per-shard rollup builders → Collector.Finish.
type captureJob struct {
	src      capture.Source
	cells    *gtpsim.CellRegistry
	from, to int // observed bins
	shards   int
	// reg receives the live metrics bundles of every layer; nil runs
	// the layers bare (the obs-overhead baseline).
	reg *obs.Registry
	// sealHook, when set, is the shipper's hook (probed); nil is
	// probesim.
	sealHook sealHookFunc
	// srcLayer names the source's boundary span on a traced run.
	srcLayer string
}

// captureStats is what the job's own layers counted (frames and bytes
// come from the CountingSource's counters, so a bare run reports none).
type captureStats struct {
	frames, bytes float64
	report        *probe.Report
	finishS       float64
}

// run executes the job. tr wraps the source and sink seams on a traced
// run and is nil otherwise.
func (w *world) run(j captureJob, tr *tracer) (*rollup.Partial, captureStats, error) {
	var st captureStats
	src := tr.source(j.srcLayer, "pipeline.run", j.src)
	stop := capture.NewStopSource(capture.NewCountingSource(src, j.reg))

	pcfg, rcfg := w.grids(j.from, j.to)
	pl := probe.NewPipeline(pcfg, j.cells, dpi.NewClassifier(w.catalog), j.shards)
	col := rollup.NewCollector(rcfg, pl.Shards())
	if j.reg != nil {
		pl.WithMetrics(probe.NewMetrics(j.reg, pl.Shards()))
		col.WithMetrics(rollup.NewMetrics(j.reg))
	}
	if j.sealHook != nil {
		col.WithSealHook(j.sealHook)
	}
	pl.WithSinks(tr.sinks("rollup.observe", "pipeline.run", col.Sink))

	done := tr.begin("pipeline.run", "")
	rep, err := pl.Run(stop)
	done()
	if err != nil {
		return nil, st, fmt.Errorf("pipeline run: %w", err)
	}
	done = tr.begin("rollup.finish", "")
	start := time.Now()
	part, err := col.Finish(rep)
	st.finishS = time.Since(start).Seconds()
	done()
	if err != nil {
		return nil, st, fmt.Errorf("collector finish: %w", err)
	}
	st.report = rep
	if j.reg != nil {
		st.frames, st.bytes = counter(j.reg, "capture_frames_total"), counter(j.reg, "capture_bytes_total")
	}
	return part, st, nil
}

// teeSource records every frame it forwards into a trace writer, so
// one generator pass yields both a recorded trace and the streamed
// run's reference snapshot.
type teeSource struct {
	src capture.Source
	tw  *capture.Writer
}

func (s *teeSource) Next() (capture.Frame, error) {
	f, err := s.src.Next()
	if err != nil {
		return f, err
	}
	return f, s.tw.Write(f)
}

// record streams the simulated capture of bins [from, to) into a trace
// file while running it through a P-shard pipeline, returning the
// snapshot (v2 bytes) that streamed run produced: what every replay of
// the trace must reproduce.
func (w *world) record(path string, sessions int, seed uint64, from, to int) (snapshot []byte, err error) {
	sim, err := w.simulator(sessions, seed, from, to)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tw, err := capture.NewWriter(f)
	if err != nil {
		return nil, err
	}
	part, _, err := w.run(captureJob{src: &teeSource{src: sim.Stream(), tw: tw}, cells: sim.Cells,
		from: from, to: to, shards: pipelineShards()}, nil)
	if err != nil {
		return nil, err
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rollup.WriteV2(&buf, part); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replay opens a recorded trace as a source; close the file when done.
func replay(path string) (*capture.Reader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	rd, err := capture.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return rd, f, nil
}

// weekPartial streams a full-week simulation through the pipeline and
// returns the week's partial — the in-memory input of the store and
// analysis workloads.
func (w *world) weekPartial(sessions int, seed uint64) (*rollup.Partial, error) {
	sim, err := w.simulator(sessions, seed, 0, w.weekBins)
	if err != nil {
		return nil, err
	}
	part, _, err := w.run(captureJob{src: sim.Stream(), cells: sim.Cells, from: 0, to: w.weekBins, shards: pipelineShards()}, nil)
	return part, err
}

// digest is a short content hash for byte-identity checks and messages.
func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b))[:16] }

// counter reads a registry counter by name (registration is idempotent,
// so asking for an existing name returns the live instance).
func counter(reg *obs.Registry, name string) float64 {
	return float64(reg.Counter(name, "").Load())
}
