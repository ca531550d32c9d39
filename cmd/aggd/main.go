// Command aggd is the merging aggregator of the distributed-collection
// plane: it accepts epoch streams from N probes (probesim -aggr), folds them
// with the exact Partial.Merge/grid-union algebra into per-probe
// partials, and writes the national-view snapshot when the run drains
// (every expected probe sent FIN) or on SIGINT/SIGTERM.
//
// With -state the aggregation survives restarts: every accepted
// handshake and message is appended to the state log and committed
// (one write, one fsync) every -persist-every messages and on every
// FIN; a restart replays the log through the code the network feeds,
// reconnecting probes resume from their durable sequence, and nothing
// is double-counted — the mid-run aggregator restart of the conformance
// suite rides on exactly this. The log grows with the run and is never
// compacted (about the size of what the probes sent).
// With -ctl a second listener serves the internal/ctl admin protocol
// (status / snapshot / query / window A:B / metrics) that cmd/rollupctl
// fetch speaks, and -metrics adds an HTTP listener with /metrics
// (Prometheus text), /debug/vars (JSON) and net/http/pprof.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/daemon"
	"repro/internal/epochwire"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(daemon.SignalContext("aggd"), os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `aggd: fold epoch streams from probes (probesim -aggr) into one snapshot

Listens on -listen for probe connections; with -probes N it exits 0
on its own once N distinct probes complete their runs, writing the
aggregate to -snapshot. SIGINT/SIGTERM also drains gracefully:
state persists, the snapshot (of whatever has arrived) is written,
exit 0.

`

// run is the whole daemon, returning its exit code: it drains when
// -probes runs complete or ctx is cancelled (the first SIGINT/SIGTERM),
// and returns 0 only if the aggregate it wrote is conserved.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := daemon.NewFlagSet("aggd", usage, stderr)
	listen := fs.String("listen", "127.0.0.1:9900", "address to accept probe connections on")
	ctlAddr := fs.String("ctl", "", "address for the admin socket (status/snapshot/query/window/metrics; used by rollupctl fetch)")
	var acfg epochwire.AggConfig
	fs.IntVar(&acfg.Probes, "probes", 0, "drain after this many distinct probes complete (0 = run until signalled)")
	fs.StringVar(&acfg.StatePath, "state", "", "log accepted messages to this file and replay it at start (enables restart without data loss)")
	snapshot := fs.String("snapshot", "", "write the folded aggregate snapshot here on drain/shutdown")
	fs.IntVar(&acfg.PersistEvery, "persist-every", 16, "commit the state log after this many applied epochs (FIN always commits)")
	fs.DurationVar(&acfg.IdleTimeout, "idle-timeout", 60*time.Second, "per-connection read deadline (probes ping well inside it)")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /debug/vars and pprof on this address")
	metricsDump := fs.String("metrics-dump", "", "write the final registry JSON to this file on drain (for CI assertions)")
	chaosSpec := fs.String("chaos", "", "inject seeded faults, e.g. 1234:reset=0.05,fsync=0.02,fuel=40 (see internal/chaos)")
	verbose := fs.Bool("v", false, "log debug detail")
	quiet := fs.Bool("quiet", false, "log only errors and the final summary")
	if err := daemon.Parse(fs, args); err != nil {
		return daemon.Exit(stderr, err)
	}

	log := obs.NewLogger(stderr, "aggd", obs.LevelFromFlags(*verbose, *quiet))
	reg := obs.NewRegistry()
	acfg.Logf = log.Infof
	acfg.Registry = reg
	if *chaosSpec != "" {
		inj, err := chaos.Parse(*chaosSpec)
		if err != nil {
			return daemon.Exit(stderr, err)
		}
		log.Infof("chaos: %s", inj)
		acfg.WrapConn = inj.WrapConn("aggd.wire")
		acfg.FS = inj.FS("aggd.state", chaos.OS)
	}
	agg, err := epochwire.NewAggregator(*listen, *ctlAddr, acfg)
	if err != nil {
		return daemon.Exit(stderr, err)
	}
	defer agg.Stop()
	closeMetrics, err := daemon.ServeMetrics(*metricsAddr, reg, log)
	if err != nil {
		return daemon.Exit(stderr, err)
	}
	defer closeMetrics()
	say := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(stdout, format, args...)
		}
	}
	listening := agg.Addr()
	if agg.CtlAddr() != "" {
		listening += " (ctl " + agg.CtlAddr() + ")"
	}
	say("aggd: listening on %s\n", listening)

	select {
	case <-agg.Done():
		say("aggd: all probes complete, draining\n")
	case <-ctx.Done():
	}
	agg.Stop()
	// The telemetry plane doubles as a shutdown oracle: applied bytes,
	// the fold and its snapshot encoding must agree before this process
	// may report success.
	if err := agg.CheckConservation(); err != nil {
		return daemon.Exit(stderr, err)
	}
	if *snapshot != "" {
		if err := agg.WriteSnapshot(*snapshot); err != nil {
			return daemon.Exit(stderr, err)
		}
		say("aggd: wrote aggregate snapshot to %s\n", *snapshot)
	}
	if *metricsDump != "" {
		f, err := os.Create(*metricsDump)
		if err != nil {
			return daemon.Exit(stderr, err)
		}
		defer f.Close()
		if err := reg.WriteJSON(f); err != nil {
			return daemon.Exit(stderr, err)
		}
		if err := f.Close(); err != nil {
			return daemon.Exit(stderr, err)
		}
	}
	js, _ := json.Marshal(agg.StatusNow())
	fmt.Fprintf(stdout, "aggd: %s\n", js)
	return 0
}
