// Package experiments contains one runner per table/figure of the
// paper's evaluation, a registry to enumerate and look them up, and a
// concurrent engine executing them over one shared environment. Every
// runner returns a Result with the rendered text figure and the
// headline metrics, so cmd/analyze, the benchmark harness, the JSON
// export and EXPERIMENTS.md all consume the same code path.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/rollup"
	"repro/internal/synth"
)

// The synthetic generator must satisfy the analysis API; keeping the
// assertion here avoids a synth -> core dependency.
var _ core.Dataset = (*synth.Dataset)(nil)

// Env is the shared experiment environment: one dataset (any
// core.Dataset backend) and its memoizing analyzer. Runners executed
// over the same Env share every cached intermediate — per-user
// vectors, z-normalized series, rankings, peak calendars — so a batch
// run computes each exactly once.
type Env struct {
	DS core.Dataset
	An *core.Analyzer
	// Seed drives the stochastic analysis steps (the k-Shape
	// initialization of the Fig. 5 sweep). Equal seeds over equal
	// datasets give byte-identical results at any concurrency.
	Seed uint64
	// workers is how many goroutines a runner may fan its own work out
	// over (the Fig. 5 sweep does); the engine sets it from
	// Options.Concurrency, and a runner called directly runs serially.
	workers int
}

// NewEnv generates a synthetic dataset for the given configuration
// and wraps it in an environment.
func NewEnv(cfg synth.Config) (*Env, error) {
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return NewEnvFrom(ds, cfg.Seed), nil
}

// NewEnvFrom wraps any dataset backend — synthetic, probe-measured or
// materialized — in an environment.
func NewEnvFrom(ds core.Dataset, seed uint64) *Env {
	return &Env{DS: ds, An: core.New(ds), Seed: seed}
}

// NewEnvFromSnapshot opens a rollup snapshot (see cmd/probesim
// -snapshot) as the environment's dataset: the produce-once,
// analyze-many path — no simulator, no probe, no raw trace.
func NewEnvFromSnapshot(path string, seed uint64) (*Env, error) {
	ds, err := rollup.Open(path)
	if err != nil {
		return nil, err
	}
	return NewEnvFrom(ds, seed), nil
}

// NewEnvFromSnapshotWindow opens bins [from, to) of a rollup snapshot
// as the environment's dataset: the windowed-view path that runs the
// engine over one day, the weekend or the working week of a merged
// multi-day snapshot without re-collecting anything. The study week
// starts on a Saturday, so at the default 15-minute step the weekend
// is [0, 192) and the weekdays are [192, 672).
func NewEnvFromSnapshotWindow(path string, from, to int, seed uint64) (*Env, error) {
	ds, err := rollup.OpenWindow(path, from, to)
	if err != nil {
		return nil, err
	}
	return NewEnvFrom(ds, seed), nil
}

// Result is one experiment's outcome.
type Result struct {
	// ID is the figure identifier ("fig2" ... "fig11", "probe", ...).
	ID string `json:"id"`
	// Title describes the experiment.
	Title string `json:"title"`
	// Metrics holds the headline numbers, keyed by a stable name.
	Metrics map[string]float64 `json:"metrics"`
	// Text is the rendered figure.
	Text string `json:"text"`
}

// String renders the result with its metric block.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n\n", r.ID, r.Title)
	b.WriteString(r.Text)
	if len(r.Metrics) > 0 {
		b.WriteString("\nHeadline metrics:\n")
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-40s %.4f\n", k, r.Metrics[k])
		}
	}
	return b.String()
}

// MarshalJSON encodes the result with non-finite metric values mapped
// to null (JSON has no NaN/Inf), keeping the export machine-readable
// whatever a sparse measured dataset produced.
func (r Result) MarshalJSON() ([]byte, error) {
	metrics := make(map[string]any, len(r.Metrics))
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			metrics[k] = nil
		} else {
			metrics[k] = v
		}
	}
	return json.Marshal(struct {
		ID      string         `json:"id"`
		Title   string         `json:"title"`
		Metrics map[string]any `json:"metrics"`
		Text    string         `json:"text"`
	}{r.ID, r.Title, metrics, r.Text})
}

// EncodeJSON renders results as indented JSON with stable key order
// (maps marshal with sorted keys), the machine-readable companion of
// Result.String.
func EncodeJSON(results []Result) ([]byte, error) {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// Runner is a named experiment entry point. Run must be deterministic
// in (Env, ctx-independent inputs): the engine relies on it to give
// identical results at any concurrency.
type Runner struct {
	ID    string
	Title string
	Run   func(context.Context, *Env) (Result, error)
}

// --- registry --------------------------------------------------------

var (
	regMu    sync.RWMutex
	registry []Runner
	regIndex = map[string]int{}
)

// Register adds a runner to the registry. It rejects empty IDs, nil
// entry points and duplicate IDs; All returns runners in registration
// order.
func Register(r Runner) error {
	if r.ID == "" {
		return fmt.Errorf("experiments: Register with empty id")
	}
	if r.Run == nil {
		return fmt.Errorf("experiments: Register(%q) with nil Run", r.ID)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regIndex[r.ID]; dup {
		return fmt.Errorf("experiments: duplicate id %q", r.ID)
	}
	regIndex[r.ID] = len(registry)
	registry = append(registry, r)
	return nil
}

func mustRegister(r Runner) {
	if err := Register(r); err != nil {
		panic(err)
	}
}

// All lists every registered experiment, builtins first in paper
// order.
func All() []Runner {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]Runner(nil), registry...)
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if i, ok := regIndex[id]; ok {
		return registry[i], nil
	}
	ids := make([]string, 0, len(registry))
	for _, r := range registry {
		ids = append(ids, r.ID)
	}
	return Runner{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}

func init() {
	// Adapt the (*Env) method expressions (receiver-first) to the
	// canonical ctx-first Runner signature.
	reg := func(id, title string, fn func(*Env, context.Context) (Result, error)) {
		mustRegister(Runner{ID: id, Title: title,
			Run: func(ctx context.Context, e *Env) (Result, error) { return fn(e, ctx) }})
	}
	reg("fig2", "Service ranking and Zipf fit", (*Env).Fig2)
	reg("fig3", "Top-20 services by direction", (*Env).Fig3)
	reg("fig4", "Sample time series and smoothed z-score detection", (*Env).Fig4)
	reg("fig5", "Cluster quality indices vs k", (*Env).Fig5)
	reg("fig6", "Activity peak times of mobile services", (*Env).Fig6)
	reg("fig7", "Peak intensities per topical time", (*Env).Fig7)
	reg("fig8", "Twitter spatial concentration", (*Env).Fig8)
	reg("fig9", "Per-subscriber activity maps and coverage", (*Env).Fig9)
	reg("fig10", "Pairwise spatial correlation between services", (*Env).Fig10)
	reg("fig11", "Urbanization: volume ratios and temporal correlation", (*Env).Fig11)
	reg("probe", "Packet pipeline: DPI rate and ULI accuracy (Sec. 2-3)", (*Env).ProbeExperiment)
	reg("ablation-kmeans", "Ablation: k-Shape vs Euclidean k-means", (*Env).AblationKMeans)
	reg("ablation-peaks", "Ablation: smoothed z-score vs fixed threshold", (*Env).AblationPeakDetector)
	reg("ablation-granularity", "Ablation: commune vs RA/TA aggregation", (*Env).AblationGranularity)
}
