// Command probesim demonstrates the packet path end to end: it
// simulates the 3G/4G network of the paper's Fig. 1 (PDP Context / EPS
// Bearer signalling plus tunnelled user traffic) and taps the Gn/S5
// interfaces with the passive probe pipeline — streaming, like the
// paper's probes: frames flow from the simulator (or a recorded binary
// trace) straight into the sharded pipeline without ever materializing
// the capture. Each shard feeds a rollup builder that aggregates
// epoch-sealed (service, commune, bin) cells online; the merged partial
// becomes a core.Dataset and runs through the same analysis API the
// synthetic data flows through.
//
// With -snapshot the partial also persists to a snapshot file that
// cmd/analyze -snapshot analyzes directly — produce once, analyze many.
//
// With -aggr every epoch also ships, spooled to disk first, to an
// aggregator (cmd/aggd) as it seals. A restarted probe re-runs its
// source under a fresh incarnation, which replaces its stream at the
// aggregator: N networked probes stay byte-identical to one local run.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/epochwire"
	"repro/internal/measured"
	"repro/internal/report"
	"repro/internal/rollup"
	"repro/internal/services"
)

func main() {
	os.Exit(run(daemon.SignalContext("probesim"), os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `probesim: stream a simulated nationwide capture through the probe pipeline

Modes:
  (default)            simulate -sessions IP sessions and measure them live
  -trace file          replay a recorded binary trace (see tracegen -trace)

With -window A:B the simulated sessions start only inside bins [A, B)
of the study week (15-minute bins, 672 per week) and the probe's grid
covers that range plus spill slack: the per-day / per-slice collection
unit whose -snapshot outputs rollupctl merges into longer rollups.

With -aggr ADDR -id ID each epoch also ships to an aggregator (aggd) as
it seals, the networked twin of the same run without -aggr; the run,
SIGINT/SIGTERM-cut or not, exits 0 only once it is durable there.

Flag defaults are shown below; -seed and -shards are shared with
tracegen and analyze, and -quiet reduces output to the essentials for
CI use.

`

// run is the whole program, returning its exit code: cancelling ctx
// (the first SIGINT/SIGTERM) cuts the source so the run drains to a
// snapshot of what was measured and still returns 0 — with -aggr, only
// once that is durable at the aggregator.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := daemon.NewFlagSet("probesim", usage, stderr)
	c := daemon.NewCapture(fs)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the capture run to this file (inspect with go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile (after the capture run) to this file")
	var scfg epochwire.ShipperConfig
	fs.StringVar(&scfg.Addr, "aggr", "", "ship every epoch as it seals to the aggregator at this address; exit 0 only once the run is durable there")
	fs.StringVar(&scfg.ProbeID, "id", "", "with -aggr: probe identity announced in the handshake (required)")
	fs.StringVar(&scfg.SpoolPath, "spool", "", "with -aggr: on-disk spool file for unacknowledged epochs (default: probesim-<id>.spool in the temp dir)")
	fs.DurationVar(&scfg.Keepalive, "keepalive", 10*time.Second, "with -aggr: idle interval before a keepalive ping")
	fs.DurationVar(&scfg.AckTimeout, "ack-timeout", 30*time.Second, "with -aggr: bound on waiting for an ack or pong before reconnecting")
	fs.DurationVar(&scfg.BackoffMax, "backoff-max", 5*time.Second, "with -aggr: cap on the reconnect backoff")
	fs.DurationVar(&scfg.RetryFor, "retry-for", 0, "with -aggr: give up if the aggregator stays unreachable this long (0 = retry forever)")
	fs.Int64Var(&scfg.SpoolBudget, "spool-budget", 0, "with -aggr: spool disk budget in bytes; sealing blocks when the spool is full (0 = unlimited)")
	chaosSpec := fs.String("chaos", "", "with -aggr: inject seeded faults, e.g. 1234:reset=0.05,enospc=0.02,fuel=40 (see internal/chaos)")
	if err := daemon.Parse(fs, args); err != nil {
		return daemon.Exit(stderr, err)
	}
	if (scfg.Addr == "") != (scfg.ProbeID == "") {
		fmt.Fprintln(stderr, "probesim: -id is required with -aggr, and only applies with it")
		fs.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return daemon.Exit(stderr, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return daemon.Exit(stderr, err)
		}
		defer pprof.StopCPUProfile()
	}

	if err := c.Open(stdout, stderr, "probesim"); err != nil {
		return daemon.Exit(stderr, err)
	}
	defer c.Close()
	if c.Stream == nil {
		c.Say("Replaying %s over %d communes (%d cells, %d shards)...\n",
			c.Trace, len(c.Country.Communes), len(c.Cells.Cells), c.Shards)
		c.Say("note: the cell registry is rebuilt from -seed; it must match the recording seed\n")
	} else {
		c.Say("Streaming %d sessions (bins %d:%d of the week) over %d communes (%d cells) into %d probe shards...\n",
			c.Sessions, c.From, c.To, len(c.Country.Communes), len(c.Cells.Cells), c.Shards)
	}

	sh, sealHook, err := newShipper(scfg, *chaosSpec, c)
	if err != nil {
		return daemon.Exit(stderr, err)
	}
	rep, part, err := c.Run(ctx, sealHook)
	if err != nil {
		if sh != nil {
			sh.Abort()
		}
		return daemon.Exit(stderr, err)
	}
	if sh != nil {
		if err := sh.Finish(part); err != nil {
			return daemon.Exit(stderr, err)
		}
		fmt.Fprintf(stdout, "probe %q: %d epochs + fin durable at %s; DL %s, UL %s\n",
			scfg.ProbeID, sh.LastSeq()-1, scfg.Addr,
			report.Bytes(rep.TotalBytes[services.DL]), report.Bytes(rep.TotalBytes[services.UL]))
	}
	fmt.Fprintf(stdout, "%d control messages, %d user-plane packets, %d decode errors across %d shards; classification rate %s (paper: 88%%)\n",
		rep.ControlMessages, rep.UserPlanePackets, rep.DecodeErrors, c.Pipeline.Shards(), report.Pct(rep.ClassificationRate()))
	if c.Stream != nil {
		c.Say("median ULI error: %.2f km (paper: ≈3 km)\n", c.Stream.Stats().MedianULIError())
	}
	c.Say("measured volume: DL %s, UL %s\n\n",
		report.Bytes(rep.TotalBytes[services.DL]), report.Bytes(rep.TotalBytes[services.UL]))
	if c.Snapshot != "" {
		fmt.Fprintf(stdout, "wrote rollup snapshot (%d epochs, %d services, %d late frames) to %s\n",
			len(part.Epochs), len(part.Services), part.LateFrames, c.Snapshot)
		c.Say("analyze with: analyze -snapshot %s\n", c.Snapshot)
	}

	// The capture plane is done: stop the CPU profile and snapshot the
	// heap here so the profiles reflect the measurement path, not the
	// display ranking below. (The deferred stop then no-ops.)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		c.Say("wrote CPU profile to %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return daemon.Exit(stderr, err)
		}
		defer f.Close()
		runtime.GC() // settle accumulators so the profile shows retained state
		if err := pprof.WriteHeapProfile(f); err != nil {
			return daemon.Exit(stderr, err)
		}
		if err := f.Close(); err != nil {
			return daemon.Exit(stderr, err)
		}
		c.Say("wrote heap profile to %s\n", *memprofile)
	}

	// Quiet mode and interrupted runs end here: the ranking below
	// exists only for display, so CI runs skip its materialization
	// cost and a Ctrl-C'd run stops at its (already written) snapshot.
	if c.Quiet || ctx.Err() != nil {
		return 0
	}

	// Materialize the sealed partial and rank it through the
	// analysis API — next to the ground truth when it exists (live
	// simulation; a replayed trace carries no generator state).
	agg, err := part.Aggregate(c.Country)
	if err != nil {
		return daemon.Exit(stderr, err)
	}
	mds, err := measured.FromAggregate(agg, c.Catalog)
	if err != nil {
		return daemon.Exit(stderr, err)
	}
	an := core.New(mds)
	c.Say("measured dataset: %d services through the analysis API\n", len(mds.Services()))
	headers := []string{"service", "measured DL share"}
	var truthTotal float64
	if c.Stream != nil {
		headers = append(headers, "generated DL share")
		for _, v := range c.Stream.Stats().SvcBytesDL {
			truthTotal += v
		}
	}
	table := [][]string{}
	for _, r := range an.Top20(services.DL) {
		row := []string{r.Name, report.Pct(r.Share)}
		if c.Stream != nil {
			row = append(row, report.Pct(c.Stream.Stats().SvcBytesDL[r.Name]/truthTotal))
		}
		table = append(table, row)
	}
	fmt.Fprintln(stdout, report.Table(headers, table))
	return 0
}

// newShipper starts the -aggr shipper, if any, over the opened capture
// plane (its grid, shard count and registry) with -chaos faults on the
// wire and the spool, and returns it with its seal hook.
func newShipper(scfg epochwire.ShipperConfig, chaosSpec string, c *daemon.Capture) (*epochwire.Shipper, func(int, rollup.Epoch, func(uint32) string), error) {
	if scfg.Addr == "" {
		return nil, nil, nil
	}
	if scfg.SpoolPath == "" {
		scfg.SpoolPath = filepath.Join(os.TempDir(), "probesim-"+scfg.ProbeID+".spool")
	}
	log := c.Log.With("probe", scfg.ProbeID)
	scfg.Cfg, scfg.Shards, scfg.Logf, scfg.Registry = c.RollupCfg, c.Pipeline.Shards(), log.Infof, c.Reg
	if chaosSpec != "" {
		inj, err := chaos.Parse(chaosSpec)
		if err != nil {
			return nil, nil, err
		}
		log.Infof("chaos: %s", inj)
		d := &net.Dialer{Timeout: scfg.AckTimeout}
		scfg.Dial = inj.Dial("probe.wire", d.Dial)
		scfg.FS = inj.FS("probe.spool", chaos.OS)
	}
	sh, err := epochwire.NewShipper(scfg)
	if err != nil {
		return nil, nil, err
	}
	c.Say("shipping sealed epochs to %s as probe %q\n", scfg.Addr, scfg.ProbeID)
	log.With("incarnation", sh.Incarnation()).Debugf("spooling to %s", scfg.SpoolPath)
	return sh, sh.SealHook, nil
}
