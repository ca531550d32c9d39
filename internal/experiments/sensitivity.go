package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/report"
	"repro/internal/services"
	"repro/internal/synth"
)

// SeedSensitivity re-generates the dataset under several seeds and
// reports the spread of the headline metrics. A reproduction whose
// findings only hold for one lucky random stream would be worthless;
// this experiment documents that the calibrated structure — not the
// noise realization — carries the results.
//
// It is intentionally not part of All(): it multiplies the generation
// cost and is run explicitly (`analyze -ids` does not reach it; the
// sensitivity test and EXPERIMENTS.md call it directly).
func SeedSensitivity(base synth.Config, seeds []uint64) (Result, error) {
	res := Result{ID: "sensitivity", Title: "Seed sensitivity of headline metrics", Metrics: map[string]float64{}}
	if len(seeds) < 2 {
		return res, fmt.Errorf("experiments: sensitivity needs >= 2 seeds")
	}
	type sample struct {
		meanR2     float64
		slopeRural float64
		slopeTGV   float64
		distinct   float64
		outside    float64
	}
	var samples []sample
	for _, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		env, err := NewEnv(cfg)
		if err != nil {
			return res, fmt.Errorf("seed %d: %w", seed, err)
		}
		sc, err := env.An.SpatialCorrelationAnalysis(services.DL)
		if err != nil {
			return res, err
		}
		ur, err := env.An.UrbanizationAnalysis(services.DL)
		if err != nil {
			return res, err
		}
		cals, outside, err := env.An.PeakCalendars(services.DL)
		if err != nil {
			return res, err
		}
		var rural, tgv float64
		for s := range ur.Names {
			rural += ur.Slopes[s][geo.Rural]
			tgv += ur.Slopes[s][geo.RuralTGV]
		}
		n := float64(len(ur.Names))
		samples = append(samples, sample{
			meanR2:     sc.Mean,
			slopeRural: rural / n,
			slopeTGV:   tgv / n,
			distinct:   float64(core.DistinctCalendarCount(cals)),
			outside:    float64(outside),
		})
	}

	meanStd := func(get func(sample) float64) (mean, std float64) {
		for _, s := range samples {
			mean += get(s)
		}
		mean /= float64(len(samples))
		for _, s := range samples {
			d := get(s) - mean
			std += d * d
		}
		std = math.Sqrt(std / float64(len(samples)))
		return mean, std
	}

	var b strings.Builder
	rows := [][]string{}
	record := func(name string, get func(sample) float64) {
		mean, std := meanStd(get)
		rows = append(rows, []string{name, fmt.Sprintf("%.3f", mean), fmt.Sprintf("%.3f", std)})
		res.Metrics[name+"_mean"] = mean
		res.Metrics[name+"_std"] = std
	}
	record("mean_pairwise_r2", func(s sample) float64 { return s.meanR2 })
	record("slope_rural", func(s sample) float64 { return s.slopeRural })
	record("slope_tgv", func(s sample) float64 { return s.slopeTGV })
	record("distinct_calendars", func(s sample) float64 { return s.distinct })
	record("outside_peaks", func(s sample) float64 { return s.outside })

	fmt.Fprintf(&b, "%d seeds: %v\n", len(seeds), seeds)
	b.WriteString(report.Table([]string{"metric", "mean", "std"}, rows))
	res.Text = b.String()
	return res, nil
}
