package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/epochwire"
	"repro/internal/gtpsim"
	"repro/internal/obs"
	"repro/internal/rollup"
)

// dist2probe is the probed → aggd path in one process: an
// epochwire.Aggregator with aggd's defaults (state file, persist every
// 16 epochs) on loopback, and two Shippers each replaying a half-week
// trace through seal hook → spool → wire → apply → persist. Replay
// keeps the source cheap, so the wire plane is most of the wall time;
// the same two replays with no shipper, merged with MergeFiles, are the
// local base the distributed run is read against. The traces are always
// recorded from pinnedSeed (see there).
type dist2probe struct {
	o       options
	w       *world
	cells   *gtpsim.CellRegistry
	traces  [2]string
	windows [2][2]int

	lastAgg, lastLocal []byte
	conserveErr        error
	duplicates         float64
}

var distProbeIDs = [2]string{"north", "south"}

func (d *dist2probe) path(name string) string { return filepath.Join(d.o.dir, name) }

func (d *dist2probe) setup() error {
	d.w = newWorld()
	half := d.w.weekBins / 2
	d.windows = [2][2]int{{0, half}, {half, d.w.weekBins}}
	for i, id := range distProbeIDs {
		d.traces[i] = d.path(id + ".trace")
		if _, err := d.w.record(d.traces[i], d.o.size.distSessions, pinnedSeed, d.windows[i][0], d.windows[i][1]); err != nil {
			return err
		}
	}
	d.cells = gtpsim.BuildCells(d.w.country, pinnedSeed)
	return nil
}

// probeStats is what one networked probe run reports back.
type probeStats struct {
	capture captureStats
	finishS float64 // Shipper.Finish: end of capture → whole stream durable
	epochs  float64
	reg     *obs.Registry
}

// probe is one probed run: replay → 1-shard pipeline → collector with
// the shipper's seal hook → FIN durable.
func (d *dist2probe) probe(i int, addr string, tr *tracer) (probeStats, error) {
	st := probeStats{reg: obs.NewRegistry()}
	rd, f, err := replay(d.traces[i])
	if err != nil {
		return st, err
	}
	defer f.Close()
	from, to := d.windows[i][0], d.windows[i][1]
	_, rcfg := d.w.grids(from, to)
	dialer := &net.Dialer{Timeout: 30 * time.Second}
	sh, err := epochwire.NewShipper(epochwire.ShipperConfig{
		Addr:      addr,
		ProbeID:   distProbeIDs[i],
		SpoolPath: d.path(distProbeIDs[i] + ".spool"),
		Cfg:       rcfg,
		Shards:    1,
		Registry:  st.reg,
		Dial:      tr.dial("epochwire.wire", "dist.run", dialer.Dial),
		FS:        tr.fs("epochwire.spool", "dist.run", chaos.OS),
	})
	if err != nil {
		return st, err
	}
	// probed exits after Finish; in one process the spool file has to be
	// closed by hand. Abort after a finished (or failed) run only does
	// that.
	defer sh.Abort()
	part, cst, err := d.w.run(captureJob{src: rd, cells: d.cells, from: from, to: to, shards: 1,
		reg: st.reg, sealHook: tr.sealHook("epochwire.sealhook", "rollup.observe", sh.SealHook), srcLayer: "capture.read"}, tr)
	if err != nil {
		return st, err
	}
	st.capture = cst
	done := tr.begin("epochwire.finish_wait", "dist.run")
	start := time.Now()
	err = sh.Finish(part)
	st.finishS = time.Since(start).Seconds()
	done()
	st.epochs = float64(sh.LastSeq()) - 1
	return st, err
}

// both runs f for probe 0 and 1 concurrently and joins their errors.
func both(f func(i int) error) error {
	var wg sync.WaitGroup
	var errs [2]error
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

func (d *dist2probe) rep(c *repCtx) error {
	// A state file left by the previous rep would resume it: every rep
	// starts the aggregator empty, as a first start of aggd does.
	for _, name := range []string{"agg.state", "agg.roll", "local.roll"} {
		if err := os.Remove(d.path(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	aggReg := obs.NewRegistry()
	var probes [2]probeStats
	err := c.measure(func() error {
		done := c.tr.begin("dist.run", "")
		defer done()
		agg, err := epochwire.NewAggregator("127.0.0.1:0", "", epochwire.AggConfig{
			Probes:       2,
			StatePath:    d.path("agg.state"),
			PersistEvery: 16,
			IdleTimeout:  60 * time.Second,
			Registry:     aggReg,
			FS:           c.tr.fs("epochwire.state", "dist.run", chaos.OS),
		})
		if err != nil {
			return err
		}
		defer agg.Stop()
		err = both(func(i int) (err error) {
			probes[i], err = d.probe(i, agg.Addr(), c.tr)
			return err
		})
		if err != nil {
			return err
		}
		select {
		case <-agg.Done():
		case <-time.After(30 * time.Second):
			return fmt.Errorf("aggregator did not drain 30s after both FINs were durable")
		}
		agg.Stop()
		d.conserveErr = agg.CheckConservation()
		return agg.WriteSnapshot(d.path("agg.roll"))
	})
	if err != nil {
		return err
	}
	for _, p := range probes {
		c.s["bytes"] += p.capture.bytes
		c.s["frames"] += p.capture.frames
		c.s["epochs"] += p.epochs
		c.s["finish_wait_s"] = max(c.s["finish_wait_s"], p.finishS)
		c.s["messages_shipped"] += counter(p.reg, "wire_sends_total")
		c.s["spool_retries"] += float64(p.reg.Gauge("wire_spool_write_retries", "").Load())
	}
	c.s["state_persists"] = counter(aggReg, "aggd_persists_total")
	d.duplicates = counter(aggReg, "aggd_duplicate_messages_total")
	c.s["duplicates"] = d.duplicates

	// The local base: the same two replays with no shipper, then the
	// file merge rollupctl would do.
	start := time.Now()
	err = both(func(i int) error {
		rd, f, err := replay(d.traces[i])
		if err != nil {
			return err
		}
		defer f.Close()
		part, _, err := d.w.run(captureJob{src: rd, cells: d.cells, from: d.windows[i][0], to: d.windows[i][1],
			shards: 1, reg: obs.NewRegistry()}, nil)
		if err != nil {
			return err
		}
		return rollup.WriteFile(d.path(distProbeIDs[i]+".roll"), part)
	})
	if err != nil {
		return err
	}
	if err := rollup.MergeFiles(d.path("local.roll"), d.path("north.roll"), d.path("south.roll")); err != nil {
		return err
	}
	c.s["local_base_s"] = time.Since(start).Seconds()

	if d.lastAgg, err = os.ReadFile(d.path("agg.roll")); err != nil {
		return err
	}
	if d.lastLocal, err = os.ReadFile(d.path("local.roll")); err != nil {
		return err
	}
	c.s["snapshot_bytes"] = float64(len(d.lastAgg))
	return nil
}

func (d *dist2probe) verify() (int, []string) {
	var failures []string
	if got, want := digest(d.o.corrupt(d.lastAgg)), digest(d.lastLocal); got != want {
		failures = append(failures, fmt.Sprintf("dist-2probe: aggregate snapshot %s differs from the local base's %s", got, want))
	}
	if d.conserveErr != nil {
		failures = append(failures, fmt.Sprintf("dist-2probe: conservation: %v", d.conserveErr))
	}
	if d.duplicates != 0 {
		failures = append(failures, fmt.Sprintf("dist-2probe: aggregator folded past %v duplicate messages on a fault-free run", d.duplicates))
	}
	return 3, failures
}

func (d *dist2probe) layers(untraced, traced recorder) (map[string]float64, error) {
	snapshot := untraced.median("snapshot_bytes")
	// The aggregate snapshot is written through the same FS seam as the
	// state file; what remains after it is state rewrites.
	stateBytes := max(traced.median("epochwire.state.write.bytes")-snapshot, 0)
	return map[string]float64{
		"capture.frames":                traced.median("capture.read.count"),
		"capture.bytes":                 traced.median("capture.read.bytes"),
		"capture.read_busy_s":           traced.median("capture.read.busy_s"),
		"probe.capture_MBps":            captureMBps(untraced),
		"rollup.observations":           traced.median("rollup.observe.count"),
		"rollup.observe_busy_s":         traced.median("rollup.observe.busy_s"),
		"rollup.snapshot_bytes":         snapshot,
		"epochwire.epochs":              untraced.median("epochs"),
		"epochwire.messages_shipped":    untraced.median("messages_shipped"),
		"epochwire.sealhook_busy_s":     traced.median("epochwire.sealhook.busy_s"),
		"epochwire.spool_bytes":         traced.median("epochwire.spool.write.bytes"),
		"epochwire.spool_write_s":       traced.median("epochwire.spool.write.busy_s"),
		"epochwire.spool_fsyncs":        traced.median("epochwire.spool.fsync.count"),
		"epochwire.spool_fsync_s":       traced.median("epochwire.spool.fsync.busy_s"),
		"epochwire.wire_bytes_tx":       traced.median("epochwire.wire.tx.bytes"),
		"epochwire.wire_write_s":        traced.median("epochwire.wire.tx.busy_s"),
		"epochwire.state_persists":      untraced.median("state_persists"),
		"epochwire.state_bytes_written": stateBytes,
		"epochwire.state_write_s":       traced.median("epochwire.state.write.busy_s"),
		"epochwire.state_fsync_s":       traced.median("epochwire.state.fsync.busy_s"),
		"epochwire.write_amplification": stateBytes / snapshot,
		"epochwire.finish_wait_s":       untraced.median("finish_wait_s"),
		"epochwire.duplicates":          untraced.median("duplicates"),
		"epochwire.spool_retries":       untraced.median("spool_retries"),
		"epochwire.local_base_s":        untraced.median("local_base_s"),
		"epochwire.dist_over_local":     untraced.median("wall_s") / untraced.median("local_base_s"),
	}, nil
}

func (d *dist2probe) cold() bool { return false }
func (d *dist2probe) close()     {}
