package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Options configures one engine run.
type Options struct {
	// Concurrency is the number of parallel workers; <= 0 uses
	// runtime.NumCPU(). It bounds the runners in flight and, within a
	// runner that fans out (the Fig. 5 sweep), its goroutines. Results
	// are independent of the value: equal environments and seeds give
	// byte-identical output at any concurrency.
	Concurrency int
	// IDs selects a subset of registered experiments, in the given
	// order; nil or empty runs every registered experiment.
	IDs []string
	// Seed overrides the environment's seed for the stochastic
	// analysis steps. A non-zero Seed always overrides; the zero value
	// alone keeps the environment's own seed (the historic contract),
	// so a caller who needs to force seed 0 must set HasSeed.
	Seed uint64
	// HasSeed marks Seed as an explicit override whatever its value —
	// the escape hatch from Seed's zero-means-unset sentinel.
	HasSeed bool
}

// Engine executes registered experiments over one shared environment.
// Runners execute in parallel, but the memoizing analyzer guarantees
// each expensive intermediate is computed once, whichever runner gets
// there first.
type Engine struct {
	env *Env
}

// NewEngine binds an engine to an environment.
func NewEngine(env *Env) *Engine { return &Engine{env: env} }

// Run executes the selected experiments and returns their results in
// selection order (registry order when Options.IDs is empty). The
// first runner error aborts outstanding work and is returned;
// cancelling ctx stops the run with ctx's error.
func (eng *Engine) Run(ctx context.Context, opts Options) ([]Result, error) {
	runners, err := eng.resolve(opts.IDs)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// The run's own view of the environment: the shared dataset and
	// analyzer under this run's seed and worker budget.
	env := *eng.env
	env.workers = workers
	if opts.HasSeed || opts.Seed != 0 {
		env.Seed = opts.Seed
	}
	if workers > len(runners) {
		workers = len(runners)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan int)
	results := make([]Result, len(runners))
	errs := make([]error, len(runners))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				res, err := runners[idx].Run(runCtx, &env)
				if err != nil {
					errs[idx] = fmt.Errorf("%s: %w", runners[idx].ID, err)
					cancel() // abort outstanding scheduling
					continue
				}
				results[idx] = res
			}
		}()
	}
feed:
	for i := range runners {
		select {
		case jobs <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A failing runner cancels runCtx, so ctx-aware runners may record
	// collateral context.Canceled errors; report the root cause, not
	// the first abort victim in index order.
	var collateral error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			if collateral == nil {
				collateral = err
			}
		default:
			return nil, err
		}
	}
	if collateral != nil {
		return nil, collateral
	}
	return results, nil
}

// resolve maps the requested IDs onto runners, defaulting to the full
// registry.
func (eng *Engine) resolve(ids []string) ([]Runner, error) {
	if len(ids) == 0 {
		return All(), nil
	}
	runners := make([]Runner, 0, len(ids))
	for _, id := range ids {
		r, err := ByID(id)
		if err != nil {
			return nil, err
		}
		runners = append(runners, r)
	}
	return runners, nil
}
