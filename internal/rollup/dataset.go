package rollup

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/measured"
	"repro/internal/services"
)

// Aggregate rebuilds the per-service aggregate the partial's cells
// distill, over the given geography and on the partial's grid:
// per-service volumes, per-commune accounting, national and
// per-urbanization-class series. The rebuild is exact — every aggregate
// is a sum of integer-valued per-frame contributions, so regrouping them
// per cell instead of per frame produces bit-identical floats — which is
// what lets a snapshot stand in for the live capture without the
// analysis noticing.
func (p *Partial) Aggregate(country *geo.Country) (*measured.Aggregate, error) {
	if p.Cfg.Geo.NumCommunes != 0 && len(country.Communes) != p.Cfg.Geo.NumCommunes {
		return nil, fmt.Errorf("rollup: geography has %d communes, snapshot was built over %d",
			len(country.Communes), p.Cfg.Geo.NumCommunes)
	}
	// The ID namespace of the aggregate is the default DPI catalogue —
	// exactly the classifier namespace the live path runs under —
	// extended with any snapshot-only names so no cell is dropped.
	names := services.DefaultNames()
	var extra []string
	for _, name := range p.Services {
		if _, ok := names.Lookup(name); !ok {
			extra = append(extra, name)
		}
	}
	if extra != nil {
		// Guard the ID namespace before interning: NewNames panics past
		// it, and a merged snapshot's union table can legitimately be
		// bigger than any single capture's.
		if total := names.Len() + len(extra); total >= int(services.NoID) {
			return nil, fmt.Errorf("rollup: snapshot needs %d service IDs, the namespace holds %d",
				total, int(services.NoID)-1)
		}
		names = services.NewNames(append(append([]string(nil), names.All()...), extra...))
	}
	// Map each snapshot service index straight to its aggregate ID.
	toID := make([]services.ID, len(p.Services))
	for i, name := range p.Services {
		id, _ := names.Lookup(name)
		toID[i] = id
	}

	agg := measured.NewAggregate(names, country, p.Cfg.Start, p.Cfg.Step, p.Cfg.Bins)
	for _, ep := range p.Epochs {
		for _, c := range ep.Cells {
			if int(c.Commune) >= len(country.Communes) {
				return nil, fmt.Errorf("rollup: cell commune %d outside the %d-commune geography", c.Commune, len(country.Communes))
			}
			agg.Add(services.Direction(c.Dir), toID[c.Svc], int(c.Commune), ep.Bin, c.Bytes)
		}
	}
	return agg, nil
}

// Dataset materializes the partial into the analysis API: the
// geography is regenerated deterministically from the snapshot's geo
// config, the aggregate is rebuilt from the cells, and
// measured.FromAggregate maps it onto core.Dataset. The catalogue is the
// DPI catalogue; services the snapshot never saw are dropped.
func (p *Partial) Dataset() (core.Dataset, error) {
	agg, err := p.Aggregate(geo.Generate(p.Cfg.Geo))
	if err != nil {
		return nil, err
	}
	return measured.FromAggregate(agg, services.Catalog())
}

// Open loads a snapshot file and returns it as a core.Dataset, ready
// for the experiment engine: produce once with cmd/probesim -snapshot,
// analyze many with cmd/analyze -snapshot.
func Open(path string) (core.Dataset, error) {
	p, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	ds, err := p.Dataset()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ds, nil
}
