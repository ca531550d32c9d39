package daemon

import (
	"context"
	"flag"
	"fmt"
	"io"
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

// Capture is the capture plane probesim and probed both run: a frame
// source (live gtpsim simulation or recorded trace) streamed through
// the sharded probe pipeline into a rollup collector, the run's one
// per-service aggregate. probed attaches a shipper's seal hook to the
// plane probesim runs bare, so its run over -window A:B is the
// networked twin of probesim's by construction. NewCapture registers
// the flags, Open assembles, Run runs once.
type Capture struct {
	// The shared flags.
	Sessions int
	Seed     uint64
	Shards   int
	Trace    string
	Window   string
	Snapshot string
	Metrics  string
	Verbose  bool
	Quiet    bool

	// Assembled by Open.
	Log      *obs.Logger   // leveled by -v/-quiet
	Reg      *obs.Registry // every layer's metrics; served on -metrics
	Country  *geo.Country
	Catalog  []services.Service
	From, To int                  // the observation window, in bins of the study week
	Stream   *gtpsim.Stream       // the live generator; nil when replaying -trace
	Cells    *gtpsim.CellRegistry // rebuilt from -seed when replaying
	// RollupCfg and Pipeline.Shards() are what a seal-hook consumer (the
	// shipper) is configured with before Run.
	RollupCfg rollup.Config
	Pipeline  *probe.Pipeline

	stdout       io.Writer
	src          capture.Source
	trace        *os.File
	closeMetrics func()
}

// NewCapture defines the shared flags on fs, once, so names, defaults
// and meaning cannot drift apart. The help text is probesim's; a binary
// for which a flag means something more specific rewords it through
// fs.Lookup(name).Usage.
func NewCapture(fs *flag.FlagSet) *Capture {
	c := &Capture{}
	fs.IntVar(&c.Sessions, "sessions", 2000, "number of IP sessions to simulate")
	fs.Uint64Var(&c.Seed, "seed", 1, "simulation seed (for -trace: the seed the trace was recorded with)")
	fs.IntVar(&c.Shards, "shards", runtime.NumCPU(), "probe pipeline shards (frames hash-partitioned by TEID)")
	fs.StringVar(&c.Trace, "trace", "", "replay a binary trace file (see cmd/tracegen -trace) instead of simulating")
	fs.StringVar(&c.Window, "window", "", "simulate only bins A:B of the study week and bin the rollup on that range")
	fs.StringVar(&c.Snapshot, "snapshot", "", "persist the run as a rollup snapshot to this file (analyze with cmd/analyze -snapshot)")
	fs.StringVar(&c.Metrics, "metrics", "", "serve /metrics, /debug/vars and pprof on this address during the run")
	fs.BoolVar(&c.Verbose, "v", false, "log debug detail")
	fs.BoolVar(&c.Quiet, "quiet", false, "print only the essential summary lines (CI mode)")
	return c
}

// Say prints one of the binary's conversational stdout lines; -quiet
// keeps only the essential ones, which the caller prints itself.
func (c *Capture) Say(format string, args ...any) {
	if !c.Quiet {
		fmt.Fprintf(c.stdout, format, args...)
	}
}

// WeekBins is the study week on the default 15-minute grid.
const WeekBins = int(timeseries.Week / timeseries.DefaultStep)

// spillSlackBins is how far past its window a probe grid extends to
// catch session tails: sessions live < 30 min ≈ 2 bins; +1 margin.
const spillSlackBins = 3

func binStart(bin int) time.Time {
	return timeseries.StudyStart.Add(time.Duration(bin) * timeseries.DefaultStep)
}

// SimConfig returns the generator config of one collection unit:
// sessions that start only inside bins [from, to) of the study week.
func SimConfig(sessions int, seed uint64, from, to int) gtpsim.Config {
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = sessions
	cfg.Seed = seed
	cfg.Start = binStart(from)
	cfg.Duration = time.Duration(to-from) * timeseries.DefaultStep
	return cfg
}

// ProbeConfig returns the probe grid measuring observation window
// [from, to): the window plus slack for session tails, clamped to the
// week so windowed grids stay sub-grids of the full-week grid and their
// snapshots merge back onto it (and union cleanly at an aggregator).
func ProbeConfig(from, to int) probe.Config {
	cfg := probe.DefaultConfig()
	cfg.Start = binStart(from)
	cfg.Bins = min(to+spillSlackBins, WeekBins) - from
	return cfg
}

// Open validates the parsed flags and assembles the plane: logger,
// registry and optional metrics listener, the small-scale country, the
// frame source, the instrumented pipeline. Close it when done; a failed
// Open has released what it took.
func (c *Capture) Open(stdout, stderr io.Writer, component string) (err error) {
	// The observation window: the whole study week, or -window's range.
	c.From, c.To = 0, WeekBins
	if c.Window != "" {
		if c.From, c.To, err = rollup.ParseBinRange(c.Window); err != nil {
			return fmt.Errorf("-window wants A:B bin indices, got %q", c.Window)
		}
		if c.From < 0 || c.To > WeekBins || c.From >= c.To {
			return fmt.Errorf("-window %d:%d outside the %d-bin study week", c.From, c.To, WeekBins)
		}
		if c.Trace != "" {
			return fmt.Errorf("-window shapes the simulation; it cannot re-window a recorded -trace")
		}
	}
	c.stdout, c.Reg = stdout, obs.NewRegistry()
	c.Log = obs.NewLogger(stderr, component, obs.LevelFromFlags(c.Verbose, c.Quiet))
	if c.closeMetrics, err = ServeMetrics(c.Metrics, c.Reg, c.Log); err != nil {
		return err
	}
	c.Country = geo.Generate(geo.SmallConfig())
	c.Catalog = services.Catalog()
	if c.Trace != "" {
		// A trace carries only frames; the cell registry must be rebuilt
		// from the seed the recording used.
		c.Cells = gtpsim.BuildCells(c.Country, c.Seed)
		if c.trace, err = os.Open(c.Trace); err == nil {
			c.src, err = capture.NewReader(c.trace)
		}
	} else {
		var sim *gtpsim.Simulator
		if sim, err = gtpsim.New(c.Country, c.Catalog, SimConfig(c.Sessions, c.Seed, c.From, c.To)); err == nil {
			c.Cells, c.Stream = sim.Cells, sim.Stream()
			c.src = c.Stream
		}
	}
	if err != nil {
		c.Close()
		return err
	}
	pcfg := ProbeConfig(c.From, c.To)
	c.RollupCfg = rollup.ConfigFrom(pcfg, geo.SmallConfig())
	c.Pipeline = probe.NewPipeline(pcfg, c.Cells, dpi.NewClassifier(c.Catalog), c.Shards).
		WithMetrics(probe.NewMetrics(c.Reg, c.Shards))
	return nil
}

// Close releases the trace file and the metrics listener.
func (c *Capture) Close() {
	if c.trace != nil {
		c.trace.Close()
	}
	c.closeMetrics()
}

// Run streams the source through the pipeline until it drains or ctx
// is cancelled — cancellation cuts the source, so everything downstream
// runs its normal end-of-stream path on what was measured, as it does
// (with a log line) when the source breaks mid-stream. Every shard feeds
// a rollup builder; the sealed partial, checked against the probes'
// counters, is returned and, with -snapshot, written. sealHook, when
// set, sees each epoch as it seals (from shard goroutines).
func (c *Capture) Run(ctx context.Context, sealHook func(shard int, ep rollup.Epoch, nameOf func(svc uint32) string)) (*probe.Report, *rollup.Partial, error) {
	stop := capture.NewStopSource(capture.NewCountingSource(c.src, c.Reg))
	defer context.AfterFunc(ctx, stop.Stop)()
	col := rollup.NewCollector(c.RollupCfg, c.Pipeline.Shards()).WithMetrics(rollup.NewMetrics(c.Reg))
	if sealHook != nil {
		col.WithSealHook(sealHook)
	}
	rep, err := c.Pipeline.WithSinks(col.Sink).Run(stop)
	if err != nil {
		c.Log.Errorf("capture broke mid-stream: %v (continuing with what was measured)", err)
	}
	part, err := col.Finish(rep)
	if err != nil {
		return rep, nil, err
	}
	if c.Snapshot != "" {
		if err := rollup.WriteFile(c.Snapshot, part); err != nil {
			return rep, nil, err
		}
	}
	return rep, part, nil
}
