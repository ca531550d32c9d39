package probe

import (
	"sync"

	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/measured"
)

// refSink is the reference per-service accumulation the tests hold the
// probe's observation stream to: it folds every observation into one
// measured.Aggregate on the probe's grid, frame by frame. One refSink may
// serve every shard of a pipeline (pass its shared method to WithSinks):
// the lock serializes the shards, and integer-valued byte sums make the
// fold order irrelevant.
type refSink struct {
	mu  sync.Mutex
	agg *measured.Aggregate
}

func newRefSink(cfg Config, classifier *dpi.Classifier, country *geo.Country) *refSink {
	return &refSink{agg: measured.NewAggregate(classifier.Names(), country, cfg.Start, cfg.Step, cfg.Bins)}
}

func (s *refSink) Observe(o Observation) {
	bin := -1 // before the grid
	if !o.At.Before(s.agg.Start) {
		bin = int(o.At.Sub(s.agg.Start) / s.agg.Step)
	}
	s.mu.Lock()
	s.agg.Add(o.Dir, o.Svc, o.Commune, bin, o.Bytes)
	s.mu.Unlock()
}

func (s *refSink) shared(int) Sink { return s }
