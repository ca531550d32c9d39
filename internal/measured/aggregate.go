package measured

import (
	"time"

	"repro/internal/geo"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// Aggregate is the per-service shape of classified traffic the analysis
// reads: volume per (direction, service), per commune, per time bin of
// its own grid, and per (urbanization class, time bin). Every per-service
// field is a slice indexed by services.ID in the Names table; slots stay
// nil (or zero) for services that carried nothing, so equality between
// two aggregates over the same namespace and grid is plain
// reflect.DeepEqual. rollup.Partial.Aggregate builds one from sealed
// cells; FromAggregate maps it onto core.Dataset.
type Aggregate struct {
	// Names is the ID namespace every Svc* slice is indexed by.
	Names *services.Names
	// Country is the geography communes index into: dense per-commune
	// slices have len(Country.Communes) entries, and each commune's
	// urbanization class routes its bytes into SvcClassSeries.
	Country *geo.Country
	// Start, Step and Bins define the time grid of every series.
	Start time.Time
	Step  time.Duration
	Bins  int
	// SvcBytes accumulates volume per service, including traffic outside
	// the grid.
	SvcBytes [services.NumDirections][]float64
	// SvcCommuneBytes accumulates volume per service per commune; the
	// inner slice is nil until the service carries traffic in that
	// direction.
	SvcCommuneBytes [services.NumDirections][][]float64
	// SvcSeries holds the national time series per service.
	SvcSeries [services.NumDirections][]*timeseries.Series
	// SvcClassSeries holds the per-urbanization-class series per service.
	SvcClassSeries [services.NumDirections][]*[geo.NumUrbanization]*timeseries.Series
}

// NewAggregate returns an empty aggregate over the given ID namespace,
// geography and time grid: every ID-indexed slice is allocated, every
// slot empty.
func NewAggregate(names *services.Names, country *geo.Country, start time.Time, step time.Duration, bins int) *Aggregate {
	a := &Aggregate{Names: names, Country: country, Start: start, Step: step, Bins: bins}
	n := names.Len()
	for d := 0; d < services.NumDirections; d++ {
		a.SvcBytes[d] = make([]float64, n)
		a.SvcCommuneBytes[d] = make([][]float64, n)
		a.SvcSeries[d] = make([]*timeseries.Series, n)
		a.SvcClassSeries[d] = make([]*[geo.NumUrbanization]*timeseries.Series, n)
	}
	return a
}

// Add accounts bytes of service svc in direction dir to a commune and a
// time bin. A bin outside [0, Bins) is traffic outside the grid: it
// counts in SvcBytes and SvcCommuneBytes but in no series, although the
// service's series still come into existence.
func (a *Aggregate) Add(dir services.Direction, svc services.ID, commune, bin int, bytes float64) {
	a.SvcBytes[dir][svc] += bytes
	perCommune := a.SvcCommuneBytes[dir][svc]
	if perCommune == nil {
		perCommune = make([]float64, len(a.Country.Communes))
		a.SvcCommuneBytes[dir][svc] = perCommune
	}
	perCommune[commune] += bytes

	series := a.SvcSeries[dir][svc]
	if series == nil {
		series = timeseries.New(a.Start, a.Step, a.Bins)
		a.SvcSeries[dir][svc] = series
	}
	cls := a.SvcClassSeries[dir][svc]
	if cls == nil {
		cls = newClassSeries(a.Start, a.Step, a.Bins)
		a.SvcClassSeries[dir][svc] = cls
	}
	if bin < 0 || bin >= a.Bins {
		return
	}
	series.Values[bin] += bytes
	cls[a.Country.Communes[commune].Urbanization].Values[bin] += bytes
}

// newClassSeries allocates the per-urbanization-class series block of
// one (direction, service) slot in three allocations instead of
// 2×NumUrbanization+1: one Series array, one shared Values backing, one
// pointer array.
func newClassSeries(start time.Time, step time.Duration, bins int) *[geo.NumUrbanization]*timeseries.Series {
	block := make([]timeseries.Series, geo.NumUrbanization)
	values := make([]float64, geo.NumUrbanization*bins)
	cls := new([geo.NumUrbanization]*timeseries.Series)
	for u := range cls {
		block[u] = timeseries.Series{Start: start, Step: step, Values: values[u*bins : (u+1)*bins : (u+1)*bins]}
		cls[u] = &block[u]
	}
	return cls
}

// --- export-boundary accessors ---------------------------------------
//
// The analysis layer addresses services by name; these accessors do
// the one name→ID hop so no consumer re-implements the indexing.

// BytesOf returns the volume of the named service (0 when the name is
// outside the namespace or carried nothing).
func (a *Aggregate) BytesOf(dir services.Direction, name string) float64 {
	if id, ok := a.Names.Lookup(name); ok {
		return a.SvcBytes[dir][id]
	}
	return 0
}

// SeriesOf returns the national series of the named service, nil when
// unobserved.
func (a *Aggregate) SeriesOf(dir services.Direction, name string) *timeseries.Series {
	if id, ok := a.Names.Lookup(name); ok {
		return a.SvcSeries[dir][id]
	}
	return nil
}

// CommuneBytesOf returns the dense per-commune volumes of the named
// service, nil when unobserved. The slice is the live accumulator:
// callers must not mutate it.
func (a *Aggregate) CommuneBytesOf(dir services.Direction, name string) []float64 {
	if id, ok := a.Names.Lookup(name); ok {
		return a.SvcCommuneBytes[dir][id]
	}
	return nil
}

// ClassSeriesOf returns the per-urbanization-class series of the named
// service, nil when unobserved.
func (a *Aggregate) ClassSeriesOf(dir services.Direction, name string) *[geo.NumUrbanization]*timeseries.Series {
	if id, ok := a.Names.Lookup(name); ok {
		return a.SvcClassSeries[dir][id]
	}
	return nil
}
