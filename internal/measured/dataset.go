// Package measured materializes a core.Dataset from the measurement
// plane's output, closing the loop the paper's pipeline draws in Fig. 1:
// packets are tapped on the Gn/S5 interfaces, classified by DPI,
// geo-referenced by ULI tracking, rolled up per (service, direction,
// commune, time bin) — and the resulting Aggregate feeds the exact
// analysis code the synthetic generator feeds.
//
// The package also provides Materialize, which deep-copies any
// core.Dataset into the same concrete representation. That is the
// reference backend for cross-implementation tests (a materialized
// copy must be analysis-indistinguishable from its source) and the
// natural substrate for future external cartographies.
package measured

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// Dataset is a fully materialized study input implementing
// core.Dataset. Unlike the synthetic generator it holds no model —
// just the aggregates, wherever they came from.
type Dataset struct {
	catalog   []services.Service
	country   *geo.Country
	step      time.Duration
	national  [services.NumDirections][]*timeseries.Series
	group     [services.NumDirections][][geo.NumUrbanization]*timeseries.Series
	spatial   [services.NumDirections][][]float64
	tail      [services.NumDirections][]float64
	classSubs [geo.NumUrbanization]int
}

var _ core.Dataset = (*Dataset)(nil)

// FromAggregate builds a dataset from a classified-traffic aggregate on
// the aggregate's own grid. Only services of the catalogue that carried
// traffic (non-zero bytes in either direction) enter the dataset,
// preserving catalogue order.
func FromAggregate(a *Aggregate, catalog []services.Service) (*Dataset, error) {
	if a.Step <= 0 || a.Bins <= 0 {
		return nil, fmt.Errorf("measured: grid of %d bins at step %v is not a time binning", a.Bins, a.Step)
	}
	var kept []services.Service
	for _, svc := range catalog {
		if a.BytesOf(services.DL, svc.Name) > 0 || a.BytesOf(services.UL, svc.Name) > 0 {
			kept = append(kept, svc)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("measured: aggregate contains no classified traffic for any of the %d catalogue services", len(catalog))
	}
	country := a.Country
	d := &Dataset{catalog: kept, country: country, step: a.Step}
	for i := range country.Communes {
		d.classSubs[country.Communes[i].Urbanization] += country.Communes[i].Subscribers
	}
	for dir := services.Direction(0); dir < services.NumDirections; dir++ {
		d.national[dir] = make([]*timeseries.Series, len(kept))
		d.group[dir] = make([][geo.NumUrbanization]*timeseries.Series, len(kept))
		d.spatial[dir] = make([][]float64, len(kept))
		for s, svc := range kept {
			// A direction that carried nothing gets zeroed grids.
			d.spatial[dir][s] = make([]float64, len(country.Communes))
			copy(d.spatial[dir][s], a.CommuneBytesOf(dir, svc.Name))
			if meas := a.SeriesOf(dir, svc.Name); meas != nil {
				d.national[dir][s] = meas.Clone()
			} else {
				d.national[dir][s] = timeseries.New(a.Start, a.Step, a.Bins)
			}
			cls := a.ClassSeriesOf(dir, svc.Name)
			for u := range d.group[dir][s] {
				if cls != nil {
					d.group[dir][s][u] = cls[u].Clone()
				} else {
					d.group[dir][s][u] = timeseries.New(a.Start, a.Step, a.Bins)
				}
			}
		}
		// A probe sees no long tail beyond its DPI catalogue; the
		// rank-size population is the named services alone.
		d.tail[dir] = nil
	}
	return d, nil
}

// Materialize deep-copies any core.Dataset into the concrete
// representation. The copy shares the (immutable) geography but owns
// every series and vector, and is analysis-indistinguishable from its
// source.
func Materialize(src core.Dataset) *Dataset {
	catalog := append([]services.Service(nil), src.Services()...)
	n := len(catalog)
	d := &Dataset{catalog: catalog, country: src.Geography(), step: src.SampleStep()}
	for dir := services.Direction(0); dir < services.NumDirections; dir++ {
		d.national[dir] = make([]*timeseries.Series, n)
		d.group[dir] = make([][geo.NumUrbanization]*timeseries.Series, n)
		d.spatial[dir] = make([][]float64, n)
		for s := 0; s < n; s++ {
			d.national[dir][s] = src.NationalSeries(dir, s).Clone()
			d.spatial[dir][s] = append([]float64(nil), src.SpatialVolumes(dir, s)...)
			for u := 0; u < geo.NumUrbanization; u++ {
				d.group[dir][s][u] = src.GroupSeries(dir, s, geo.Urbanization(u)).Clone()
			}
		}
		all := src.AllVolumes(dir)
		d.tail[dir] = append([]float64(nil), all[n:]...)
	}
	for u := 0; u < geo.NumUrbanization; u++ {
		d.classSubs[u] = src.ClassSubscribers(geo.Urbanization(u))
	}
	return d
}

// --- core.Dataset implementation -------------------------------------

// Services returns the named service catalogue.
func (d *Dataset) Services() []services.Service { return d.catalog }

// Geography returns the spatial substrate the measurements map onto.
func (d *Dataset) Geography() *geo.Country { return d.country }

// SampleStep returns the time resolution of every series.
func (d *Dataset) SampleStep() time.Duration { return d.step }

// ServiceIndex returns the catalogue index of the named service.
func (d *Dataset) ServiceIndex(name string) (int, error) {
	for i := range d.catalog {
		if d.catalog[i].Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("measured: unknown service %q (dataset has %d services)", name, len(d.catalog))
}

// NationalSeries returns the nationwide series of one service.
func (d *Dataset) NationalSeries(dir services.Direction, svc int) *timeseries.Series {
	return d.national[dir][svc]
}

// NationalTotal returns the weekly national volume of the service.
func (d *Dataset) NationalTotal(dir services.Direction, svc int) float64 {
	return d.national[dir][svc].Total()
}

// AllVolumes returns the weekly volumes of the full service
// population: named catalogue first, then the tail.
func (d *Dataset) AllVolumes(dir services.Direction) []float64 {
	out := make([]float64, 0, len(d.catalog)+len(d.tail[dir]))
	for s := range d.catalog {
		out = append(out, d.NationalTotal(dir, s))
	}
	return append(out, d.tail[dir]...)
}

// TotalTraffic returns the nationwide weekly volume across all named
// and tail services.
func (d *Dataset) TotalTraffic(dir services.Direction) float64 {
	var t float64
	for _, v := range d.AllVolumes(dir) {
		t += v
	}
	return t
}

// SpatialVolumes returns the per-commune weekly volumes of one service.
func (d *Dataset) SpatialVolumes(dir services.Direction, svc int) []float64 {
	return d.spatial[dir][svc]
}

// PerUser returns the per-commune weekly volume per subscriber.
func (d *Dataset) PerUser(dir services.Direction, svc int) []float64 {
	spatial := d.spatial[dir][svc]
	out := make([]float64, len(spatial))
	for i, v := range spatial {
		subs := d.country.Communes[i].Subscribers
		if subs > 0 {
			out[i] = v / float64(subs)
		}
	}
	return out
}

// GroupSeries returns the series of one service aggregated over one
// urbanization class.
func (d *Dataset) GroupSeries(dir services.Direction, svc int, u geo.Urbanization) *timeseries.Series {
	return d.group[dir][svc][u]
}

// GroupPerUser returns the per-user series of one urbanization class.
func (d *Dataset) GroupPerUser(dir services.Direction, svc int, u geo.Urbanization) *timeseries.Series {
	s := d.group[dir][svc][u].Clone()
	if n := d.classSubs[u]; n > 0 {
		s.Scale(1 / float64(n))
	}
	return s
}

// ClassSubscribers returns the subscriber count of one urbanization
// class.
func (d *Dataset) ClassSubscribers(u geo.Urbanization) int { return d.classSubs[u] }
