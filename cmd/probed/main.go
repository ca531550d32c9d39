// Command probed is the distributed-collection probe daemon: probesim's
// capture plane as a networked process. It runs the sharded probe
// pipeline over a frame source (live gtpsim simulation or a recorded
// trace), and instead of only writing a snapshot at the end, ships
// every epoch to an aggregator (cmd/aggd) the moment its builder seals
// it — spooled to disk first, so a dead or restarted aggregator never
// stalls the pipeline or loses a sealed epoch.
//
// The run completes when the source drains (or SIGINT/SIGTERM stops it
// gracefully): the pipeline's remaining epochs seal and ship, a FIN
// message carries the run totals, and probed exits 0 only once the
// aggregator reports the whole stream durably applied. Restarting a
// crashed probed re-runs its deterministic source under a fresh
// incarnation, which tells the aggregator to replace that probe's
// stream wholesale — the recovery model that keeps N networked probes
// byte-identical to one local run.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
	"repro/internal/daemon"
	"repro/internal/epochwire"
	"repro/internal/report"
	"repro/internal/services"
)

func main() {
	os.Exit(run(daemon.SignalContext("probed"), os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `probed: networked probe daemon — stream sealed epochs to an aggregator

Runs the same capture plane as probesim (simulate -sessions, or replay
-trace) but ships each epoch to -aggr as it seals. Source flags
(-sessions, -seed, -shards, -window, -trace) match probesim exactly:
a probed run over -window A:B is the networked twin of the probesim
run with the same flags.

SIGINT/SIGTERM stops the source gracefully: open epochs seal, the run
totals ship as FIN, and probed exits 0 once everything is durable at
the aggregator.

`

// run is the whole daemon, returning its exit code. 0 certifies the run
// is durable at the aggregator — including a run cut short by
// cancelling ctx (the first SIGINT/SIGTERM), which seals, ships and
// FINs what was measured.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := daemon.NewFlagSet("probed", usage, stderr)
	c := daemon.NewCapture(fs)
	fs.Lookup("trace").Usage = "replay a binary trace file instead of simulating"
	fs.Lookup("snapshot").Usage = "also write the local partial to this snapshot file (for cross-checking the aggregate)"
	fs.Lookup("metrics").Usage = "serve /metrics, /debug/vars and pprof on this address"
	var scfg epochwire.ShipperConfig
	fs.StringVar(&scfg.Addr, "aggr", "", "aggregator address to ship epochs to (required)")
	fs.StringVar(&scfg.ProbeID, "id", "", "probe identity announced in the handshake (required)")
	fs.StringVar(&scfg.SpoolPath, "spool", "", "on-disk spool file for unacknowledged epochs (default: probed-<id>.spool in the temp dir)")
	fs.DurationVar(&scfg.Keepalive, "keepalive", 10*time.Second, "idle interval before a keepalive ping")
	fs.DurationVar(&scfg.AckTimeout, "ack-timeout", 30*time.Second, "bound on waiting for an ack or pong before reconnecting")
	fs.DurationVar(&scfg.BackoffMax, "backoff-max", 5*time.Second, "cap on the reconnect backoff")
	fs.DurationVar(&scfg.RetryFor, "retry-for", 0, "give up if the aggregator stays unreachable this long (0 = retry forever)")
	fs.Int64Var(&scfg.SpoolBudget, "spool-budget", 0, "spool disk budget in bytes; sealing blocks when the spool is full (0 = unlimited)")
	chaosSpec := fs.String("chaos", "", "inject seeded faults, e.g. 1234:reset=0.05,enospc=0.02,fuel=40 (see internal/chaos)")
	if err := daemon.Parse(fs, args); err != nil {
		return daemon.Exit(stderr, err)
	}
	if scfg.Addr == "" || scfg.ProbeID == "" {
		fmt.Fprintln(stderr, "probed: -aggr and -id are required")
		fs.Usage()
		return 2
	}
	if err := c.Open(stdout, stderr, "probed"); err != nil {
		return daemon.Exit(stderr, err)
	}
	defer c.Close()
	log := c.Log.With("probe", scfg.ProbeID)
	if c.Stream == nil {
		c.Say("replaying %s into %d shards, shipping to %s as probe %q\n", c.Trace, c.Shards, scfg.Addr, scfg.ProbeID)
	} else {
		c.Say("streaming %d sessions (bins %d:%d) into %d shards, shipping to %s as probe %q\n",
			c.Sessions, c.From, c.To, c.Shards, scfg.Addr, scfg.ProbeID)
	}

	if scfg.SpoolPath == "" {
		scfg.SpoolPath = filepath.Join(os.TempDir(), "probed-"+scfg.ProbeID+".spool")
	}
	scfg.Cfg = c.RollupCfg
	scfg.Shards = c.Pipeline.Shards()
	scfg.Logf = log.Infof
	scfg.Registry = c.Reg
	if *chaosSpec != "" {
		inj, err := chaos.Parse(*chaosSpec)
		if err != nil {
			return daemon.Exit(stderr, err)
		}
		log.Infof("chaos: %s", inj)
		d := &net.Dialer{Timeout: scfg.AckTimeout}
		scfg.Dial = inj.Dial("probe.wire", d.Dial)
		scfg.FS = inj.FS("probe.spool", chaos.OS)
	}
	sh, err := epochwire.NewShipper(scfg)
	if err != nil {
		return daemon.Exit(stderr, err)
	}
	log.With("incarnation", sh.Incarnation()).Debugf("spooling to %s", scfg.SpoolPath)

	rep, part, err := c.Run(ctx, sh.SealHook)
	if err != nil {
		sh.Abort()
		return daemon.Exit(stderr, err)
	}
	if c.Snapshot != "" {
		c.Say("wrote local snapshot (%d epochs) to %s\n", len(part.Epochs), c.Snapshot)
	}
	if err := sh.Finish(part); err != nil {
		return daemon.Exit(stderr, err)
	}
	fmt.Fprintf(stdout, "probed %q: %d epochs + fin durable at %s; DL %s, UL %s\n",
		scfg.ProbeID, sh.LastSeq()-1, scfg.Addr,
		report.Bytes(rep.TotalBytes[services.DL]), report.Bytes(rep.TotalBytes[services.UL]))
	return 0
}
