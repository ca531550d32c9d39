// Package daemon holds what the repo's binaries share, each decision
// written once: the process scaffolding of probesim, aggd, rollupctl,
// analyze and tracegen (two-stage signal handling as a context, the
// -metrics listener, the flag and exit-code contract of a main that
// returns) and the capture plane probesim runs, locally or shipping
// with -aggr (capture.go).
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
)

// SignalContext installs the daemons' graceful shutdown as a context:
// the first SIGINT/SIGTERM cancels it, so the daemon drains its normal
// end-of-run path (epochs seal, state persists, the snapshot of what
// was measured is written, exit 0); a second force-exits with status 1.
// The handler lives as long as the process — call it from main, once.
func SignalContext(component string) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	log := obs.NewLogger(os.Stderr, component, obs.LevelError)
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigCh
		log.Errorf("signal received, draining (again to force quit)")
		cancel()
		<-sigCh
		log.Errorf("forced quit")
		os.Exit(1)
	}()
	return ctx
}

// ServeMetrics is the -metrics flag: with an address it binds the obs
// HTTP listener (/metrics, /debug/vars, pprof) over reg and logs where.
// The returned func closes it (a no-op without an address).
func ServeMetrics(addr string, reg *obs.Registry, log *obs.Logger) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	srv, err := obs.Serve(addr, reg)
	if err != nil {
		return nil, err
	}
	log.Infof("metrics listening on http://%s/metrics", srv.Addr())
	return func() { srv.Close() }, nil
}

// NewFlagSet returns the flag set of a main that returns instead of
// exiting: errors come back through Parse, and -h prints usage (the
// binary's prose; "" keeps the flag package's header) plus defaults.
func NewFlagSet(name, usage string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	if usage != "" {
		fs.Usage = func() {
			fmt.Fprint(stderr, usage)
			fs.PrintDefaults()
		}
	}
	return fs
}

// ErrUsage is a command-line error that has already been reported on
// stderr, by the flag package or by the command itself.
var ErrUsage = errors.New("usage error")

// Parse parses args into fs. Its error is one Exit understands:
// flag.ErrHelp after -h, ErrUsage for anything else.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return ErrUsage
	}
	return err
}

// Exit maps how a command ended to the exit code flag.ExitOnError and
// os.Exit(1) used to give — 0 for success and -h, 2 for a usage error,
// otherwise 1 with err on stderr — by returning, so deferred closes run.
func Exit(stderr io.Writer, err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrUsage):
		return 2
	}
	fmt.Fprintln(stderr, err)
	return 1
}
