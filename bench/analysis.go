package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/rollup"
)

// analysisGolden is the SHA-256 of the engine's JSON for the pinned
// inputs at reference size (engine output is concurrency-invariant by
// contract, so the hash holds on any machine).
//
//go:embed testdata/analysis-week.sha256
var analysisGolden string

// analysisWeek is the paper's actual product: NewEnvFromSnapshot over a
// week snapshot → Engine.Run (every registered runner, concurrency
// nproc) → EncodeJSON, as `analyze -snapshot week.roll -json` does. No
// capture or wire code runs. Users pay the cold cost on every run, so
// there is no warm-up and a rep is the whole sample (n = 1).
type analysisWeek struct {
	o        options
	snapshot string
	results  []experiments.Result
	json     []byte
}

func (a *analysisWeek) setup() error {
	a.snapshot = filepath.Join(a.o.dir, "week.roll")
	week, err := newWorld().weekPartial(a.o.size.storeSessions, pinnedSeed)
	if err != nil {
		return err
	}
	return rollup.WriteFile(a.snapshot, week)
}

func (a *analysisWeek) ids() []string {
	if a.o.size.analysisIDs != nil {
		return a.o.size.analysisIDs
	}
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	return ids
}

// rep is the same program traced and untraced: a tracer only adds the
// three coarse spans, so trace.overhead_ratio compares like with like.
func (a *analysisWeek) rep(c *repCtx) error {
	return c.measure(func() error {
		var env *experiments.Env
		err := c.timed("env_open_s", func() (err error) {
			env, err = experiments.NewEnvFromSnapshot(a.snapshot, pinnedSeed)
			return err
		})
		if err != nil {
			return err
		}
		err = c.timed("engine_run_s", func() (err error) {
			a.results, err = experiments.NewEngine(env).Run(context.Background(),
				experiments.Options{Concurrency: runtime.NumCPU(), IDs: a.o.size.analysisIDs})
			return err
		})
		if err != nil {
			return err
		}
		return c.timed("encode_s", func() (err error) {
			a.json, err = experiments.EncodeJSON(a.results)
			return err
		})
	})
}

func (a *analysisWeek) verify() (int, []string) {
	var failures []string
	if want := a.ids(); len(a.results) != len(want) {
		failures = append(failures, fmt.Sprintf("analysis-week: %d results, want %d", len(a.results), len(want)))
	} else {
		for i, r := range a.results {
			if r.ID != want[i] {
				failures = append(failures, fmt.Sprintf("analysis-week: result %d is %q, want %q", i, r.ID, want[i]))
			}
		}
	}
	// The JSON is a pure function of the results, and at reference size
	// of the pinned inputs too.
	js := a.o.corrupt(a.json)
	if again, err := experiments.EncodeJSON(a.results); err != nil || !bytes.Equal(js, again) {
		failures = append(failures, fmt.Sprintf("analysis-week: engine JSON does not re-encode to the same bytes (err %v)", err))
	}
	if a.o.size.name == "ref" {
		got, want := fmt.Sprintf("%x", sha256.Sum256(js)), strings.TrimSpace(analysisGolden)
		if got != want {
			failures = append(failures, fmt.Sprintf("analysis-week: engine JSON hashes to %s, golden is %s", got, want))
		}
	}
	return 2, failures
}

// layers attributes the engine's time to runners from outside, in an
// attribution pass after the reps: every runner executes alone through
// Engine.Run on a fresh Env, so none is credited with an intermediate
// another one memoized. fig5 is nearly all of a rep, so this pass costs
// about one more rep.
func (a *analysisWeek) layers(untraced, _ recorder) (map[string]float64, error) {
	m := map[string]float64{
		"experiments.env_open_s": untraced.median("env_open_s"),
		"experiments.encode_s":   untraced.median("encode_s"),
	}
	for _, id := range a.ids() {
		env, err := experiments.NewEnvFromSnapshot(a.snapshot, pinnedSeed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := experiments.NewEngine(env).Run(context.Background(), experiments.Options{Concurrency: 1, IDs: []string{id}}); err != nil {
			return nil, fmt.Errorf("runner %s: %w", id, err)
		}
		switch took := time.Since(start).Seconds(); id {
		case "fig5", "probe":
			m["experiments."+id+"_s"] = took
		default:
			m["experiments.rest_s"] += took
		}
	}
	return m, nil
}

func (a *analysisWeek) cold() bool { return true }
func (a *analysisWeek) close()     {}
