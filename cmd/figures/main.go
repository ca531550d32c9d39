// Command figures regenerates any table or figure of the paper's
// evaluation from the synthetic nationwide dataset.
//
// Usage:
//
//	figures -fig fig7            # one figure, laptop scale
//	figures -fig all -scale full # everything at 36,000-commune scale
//	figures -fig all -parallel   # everything, engine at NumCPU
//	figures -list                # available experiment ids
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/synth"
)

func main() {
	os.Exit(run(daemon.SignalContext("figures"), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program, returning its exit code: 0 on success and
// -h, 2 for a usage error, 1 when the dataset or an experiment fails
// (an unknown -fig id included). Cancelling ctx stops the engine.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := daemon.NewFlagSet("figures", "", stderr)
	fig := fs.String("fig", "all", "experiment id (fig2..fig11, probe, ablation-*) or 'all'")
	scale := fs.String("scale", "small", "dataset scale: small | full")
	seed := fs.Uint64("seed", 1, "generator seed")
	list := fs.Bool("list", false, "list experiment ids and exit")
	parallel := fs.Bool("parallel", false, "run experiments concurrently on all CPUs")
	if err := daemon.Parse(fs, args); err != nil {
		return daemon.Exit(stderr, err)
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-22s %s\n", r.ID, r.Title)
		}
		return 0
	}

	cfg := synth.SmallConfig()
	if *scale == "full" {
		cfg = synth.DefaultConfig()
	}
	cfg.Seed = *seed

	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return daemon.Exit(stderr, fmt.Errorf("generating dataset: %w", err))
	}

	var ids []string
	if *fig != "all" {
		ids = []string{*fig}
	}
	concurrency := 1
	if *parallel {
		concurrency = runtime.NumCPU()
	}
	results, err := experiments.NewEngine(env).Run(ctx, experiments.Options{Concurrency: concurrency, IDs: ids})
	if err != nil {
		return daemon.Exit(stderr, err)
	}
	for _, res := range results {
		fmt.Fprintln(stdout, res.String())
	}
	return 0
}
