package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dpi"
	"repro/internal/gtpsim"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/rollup"
)

// captureLayers fills the probe.* and rollup.* ingest metrics every
// capture workload shares, from the traced reps' boundary spans and the
// layers' own registries.
func captureLayers(m map[string]float64, untraced, traced recorder, srcLayer string) {
	srcBusy := traced.median(srcLayer + ".busy_s")
	sinkBusy := traced.median("rollup.observe.busy_s")
	m["probe.capture_MBps"] = captureMBps(untraced)
	m["probe.cpu_s"] = max(traced.median("cpu_s")-srcBusy-sinkBusy, 0)
	m["probe.shard_skew"] = untraced.median("shard_skew")
	m["probe.decode_errors"] = untraced.median("decode_errors")
	m["probe.classified_ratio"] = untraced.median("classified_ratio")
	m["rollup.observations"] = traced.median("rollup.observe.count")
	m["rollup.observe_busy_s"] = sinkBusy
	m["rollup.finish_s"] = untraced.median("finish_s")
	m["rollup.epochs_sealed"] = untraced.median("epochs_sealed")
	m["rollup.late_reopens"] = untraced.median("late_reopens")
	m["rollup.snapshot_bytes"] = untraced.median("snapshot_bytes")
	m["rollup.write_MBps"] = untraced.median("snapshot_bytes") / 1e6 / untraced.median("write_s")
}

// captureMBps is the median over reps of accounted frame bytes
// (capture_bytes_total) ÷ the rep's wall_s.
func captureMBps(untraced recorder) float64 {
	var mbps []float64
	for _, s := range untraced.reps {
		mbps = append(mbps, s["bytes"]/1e6/s["wall_s"])
	}
	return median(mbps)
}

// captureSample records what one capture job's layers counted.
func captureSample(s sample, st captureStats, reg *obs.Registry, shards int) {
	s["bytes"] += st.bytes
	s["frames"] += st.frames
	s["finish_s"] += st.finishS
	s["decode_errors"] += float64(st.report.DecodeErrors)
	s["classified_ratio"] = st.report.ClassificationRate()
	s["epochs_sealed"] += counter(reg, "rollup_sealed_epochs_total")
	s["late_reopens"] += counter(reg, "rollup_late_reopens_total")
	var maxShard, sum float64
	for i := 0; i < shards; i++ {
		n := counter(reg, fmt.Sprintf(`pipeline_shard_frames_total{shard="%d"}`, i))
		maxShard, sum = max(maxShard, n), sum+n
	}
	if sum > 0 {
		s["shard_skew"] = maxShard / (sum / float64(shards))
	}
}

// --- local-sim ----------------------------------------------------------

// localSim is what `probesim -sessions N -shards P -snapshot` does:
// gtpsim.Stream → pipeline → rollup.Collector → WriteFile. The
// generator is most of this run, so generator work shows here and in no
// other workload.
type localSim struct {
	o    options
	w    *world
	out  string
	want string // digest of the set-up run's snapshot
	last []byte
}

// setup runs the job once: the snapshot every timed rep must reproduce
// byte for byte.
func (l *localSim) setup() error {
	l.w = newWorld()
	l.out = filepath.Join(l.o.dir, "local-sim.roll")
	if err := l.rep(newRepCtx(nil)); err != nil {
		return err
	}
	l.want = digest(l.last)
	return nil
}

func (l *localSim) rep(c *repCtx) error {
	reg := obs.NewRegistry()
	shards := pipelineShards()
	err := c.measure(func() error {
		sim, err := l.w.simulator(l.o.size.simSessions, l.o.seed, 0, l.w.weekBins)
		if err != nil {
			return err
		}
		part, st, err := l.w.run(captureJob{src: sim.Stream(), cells: sim.Cells, from: 0, to: l.w.weekBins,
			shards: shards, reg: reg, srcLayer: "gtpsim.next"}, c.tr)
		if err != nil {
			return err
		}
		captureSample(c.s, st, reg, shards)
		return c.timed("write_s", func() error { return rollup.WriteFile(l.out, part) })
	})
	if err != nil {
		return err
	}
	if l.last, err = os.ReadFile(l.out); err != nil {
		return err
	}
	c.s["snapshot_bytes"] = float64(len(l.last))
	return nil
}

func (l *localSim) verify() (int, []string) {
	if _, err := rollup.ReadFile(l.out); err != nil {
		return 1, []string{fmt.Sprintf("local-sim: snapshot does not read back: %v", err)}
	}
	if got := digest(l.o.corrupt(l.last)); got != l.want {
		return 1, []string{fmt.Sprintf("local-sim: snapshot %s differs from the set-up run's %s", got, l.want)}
	}
	return 1, nil
}

func (l *localSim) layers(untraced, traced recorder) (map[string]float64, error) {
	m := map[string]float64{}
	captureLayers(m, untraced, traced, "gtpsim.next")
	m["gtpsim.frames"] = traced.median("gtpsim.next.count")
	m["gtpsim.next_busy_s"] = traced.median("gtpsim.next.busy_s")
	m["gtpsim.MBps"] = traced.median("gtpsim.next.bytes") / 1e6 / traced.median("gtpsim.next.busy_s")
	return m, nil
}

func (l *localSim) cold() bool { return false }
func (l *localSim) close()     {}

// --- local-replay -------------------------------------------------------

// localReplay replays a recorded trace (capture.Reader) through the
// pipeline: the generator is bypassed, so probe (parse, DPI, broadcast
// router) and rollup.Builder do the work. Each rep runs the trace at
// shards=P and then at shards=1, the single-threaded baseline that
// exposes "two shards lose to one".
type localReplay struct {
	o           options
	w           *world
	trace       string
	cells       *gtpsim.CellRegistry
	want        string // digest of the streamed run's snapshot
	outP, out1  string
	lastP, last []byte
}

func (l *localReplay) setup() error {
	l.w = newWorld()
	l.trace = filepath.Join(l.o.dir, "replay.trace")
	l.outP = filepath.Join(l.o.dir, "replay-p.roll")
	l.out1 = filepath.Join(l.o.dir, "replay-1.roll")
	ref, err := l.w.record(l.trace, l.o.size.replaySession, l.o.seed, 0, l.w.weekBins)
	if err != nil {
		return err
	}
	l.want = digest(ref)
	// A trace carries only frames: the cell registry is rebuilt from
	// the recording seed, as probesim -trace does.
	l.cells = gtpsim.BuildCells(l.w.country, l.o.seed)
	return nil
}

// replayOnce is `probesim -trace` at one shard count.
func (l *localReplay) replayOnce(c *repCtx, shards int, reg *obs.Registry, out string) (captureStats, error) {
	rd, f, err := replay(l.trace)
	if err != nil {
		return captureStats{}, err
	}
	defer f.Close()
	part, st, err := l.w.run(captureJob{src: rd, cells: l.cells, from: 0, to: l.w.weekBins,
		shards: shards, reg: reg, srcLayer: "capture.read"}, c.tr)
	if err != nil {
		return st, err
	}
	return st, c.timed("write_s", func() error { return rollup.WriteFile(out, part) })
}

func (l *localReplay) rep(c *repCtx) error {
	reg := obs.NewRegistry()
	shards := pipelineShards()
	err := c.measure(func() error {
		st, err := l.replayOnce(c, shards, reg, l.outP)
		if err != nil {
			return err
		}
		captureSample(c.s, st, reg, shards)
		return nil
	})
	if err != nil {
		return err
	}
	// The 1-shard baseline rides in the same rep so the two shard
	// counts see the same machine state; its boundary layers are not
	// traced (the P-shard run's spans are the rep's).
	start := time.Now()
	if _, err := l.replayOnce(newRepCtx(nil), 1, obs.NewRegistry(), l.out1); err != nil {
		return err
	}
	c.s["wall_1shard_s"] = time.Since(start).Seconds()
	if l.lastP, err = os.ReadFile(l.outP); err != nil {
		return err
	}
	if l.last, err = os.ReadFile(l.out1); err != nil {
		return err
	}
	c.s["snapshot_bytes"] = float64(len(l.lastP))
	return nil
}

func (l *localReplay) verify() (int, []string) {
	var failures []string
	if got := digest(l.o.corrupt(l.lastP)); got != l.want {
		failures = append(failures, fmt.Sprintf("local-replay: %d-shard snapshot %s differs from the streamed run's %s", pipelineShards(), got, l.want))
	}
	if got := digest(l.last); got != l.want {
		failures = append(failures, fmt.Sprintf("local-replay: 1-shard snapshot %s differs from the streamed run's %s", got, l.want))
	}
	return 2, failures
}

func (l *localReplay) layers(untraced, traced recorder) (map[string]float64, error) {
	m := map[string]float64{}
	captureLayers(m, untraced, traced, "capture.read")
	m["capture.frames"] = traced.median("capture.read.count")
	m["capture.bytes"] = traced.median("capture.read.bytes")
	m["capture.read_busy_s"] = traced.median("capture.read.busy_s")
	m["probe.capture_MBps_1shard"] = untraced.median("bytes") / 1e6 / untraced.median("wall_1shard_s")

	// Attribution passes, each over the whole trace: reading alone,
	// the bare single-probe loop, the 1-shard pipeline with no sinks,
	// and the full job with nil metrics bundles.
	frames := untraced.median("frames")
	readS, err := l.pass(func(time.Time, []byte) {})
	if err != nil {
		return nil, err
	}
	pcfg, _ := l.w.grids(0, l.w.weekBins)
	p := probe.New(pcfg, l.cells, dpi.NewClassifier(l.w.catalog))
	bareS, err := l.pass(p.HandleFrame)
	if err != nil {
		return nil, err
	}
	m["probe.handle_ns_per_frame"] = max(bareS-readS, 0) * 1e9 / frames

	rd, f, err := replay(l.trace)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_, err = probe.NewPipeline(pcfg, l.cells, dpi.NewClassifier(l.w.catalog), 1).Run(rd)
	pipeS := time.Since(start).Seconds()
	f.Close()
	if err != nil {
		return nil, err
	}
	m["probe.router_overhead"] = pipeS / bareS

	var bare []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := l.replayOnce(newRepCtx(nil), pipelineShards(), nil, l.outP); err != nil {
			return nil, err
		}
		bare = append(bare, time.Since(start).Seconds())
	}
	m["obs.overhead_ratio"] = untraced.median("wall_s") / median(bare)
	return m, nil
}

// pass reads the whole trace once, handing every frame to handle, and
// returns the seconds it took.
func (l *localReplay) pass(handle func(at time.Time, frame []byte)) (float64, error) {
	rd, f, err := replay(l.trace)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	start := time.Now()
	for {
		fr, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return time.Since(start).Seconds(), nil
		}
		if err != nil {
			return 0, err
		}
		handle(fr.Time, fr.Data)
	}
}

func (l *localReplay) cold() bool { return false }
func (l *localReplay) close()     {}
