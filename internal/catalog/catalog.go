// Package catalog is the query engine over rollup stores: it opens a
// set of snapshot files — per-day, per-region, or any mix the grid
// algebra can union — as one logical store and answers analytical
// queries (a time window, a service subset, a commune set) by reading
// as little of the store as the v2 footer indexes allow.
//
// The planner prunes in three stages: whole files whose grids do not
// intersect the query window (or whose service tables lack every
// requested name), then epoch records whose index entries place them
// outside the window or deny every requested service and commune, and
// only then seek-decodes the surviving records. What it decodes folds
// through the same Merge/Window algebra every other surface uses, so a
// catalog query is defined — and tested — to equal the full-scan
// reference: merge every file, then ViewSpec.Apply. A v1 member has
// no footer; rollup.OpenIndexed indexes it at open from one sequential
// decode, without presence bitmaps, so its epochs prune by time and id
// range only.
//
// Memory is bounded by the decoded result, not the store: pruned
// epochs are never materialized. A Catalog is safe for concurrent
// queries — all file access goes through ReadAt and every query's
// state is its own.
package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/rollup"
	"repro/internal/services"
)

// file is one member snapshot: its open indexed reader and where its
// grid starts on the union grid.
type file struct {
	x     *rollup.IndexedSnapshot
	shift int // file bin b is union bin b+shift
}

// Catalog is an open rollup store.
type Catalog struct {
	files []*file
	cfg   rollup.Config // union grid of every member
	svcs  []string      // sorted union of every member's service table
}

// Stats describes what one query touched — the planner's accounting.
// EpochsDecoded versus EpochsTotal is the pruning ratio.
type Stats struct {
	Files         int `json:"files"`
	FilesPruned   int `json:"files_pruned"`
	EpochsTotal   int `json:"epochs_total"`
	EpochsDecoded int `json:"epochs_decoded"`
	CellsDecoded  int `json:"cells_decoded"`
}

// Open opens a store from the given paths. A directory contributes
// every *.roll file directly inside it (sorted); a plain path
// contributes itself. The member grids must union cleanly (same step
// and geography, starts on one lattice) — that union becomes the
// catalog's grid, and query windows are bins on it.
func Open(paths ...string) (*Catalog, error) {
	members, err := expand(paths)
	if err != nil {
		return nil, err
	}
	c := &Catalog{}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()
	for _, p := range members {
		x, err := rollup.OpenIndexed(p)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, &file{x: x})
	}
	// Deterministic member order: by grid start, then path. Queries
	// fold in this order, so equal stores answer byte-identically.
	sort.Slice(c.files, func(i, j int) bool {
		a, b := c.files[i].x.Header().Cfg, c.files[j].x.Header().Cfg
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return c.files[i].x.Path() < c.files[j].x.Path()
	})
	c.cfg = c.files[0].x.Header().Cfg
	for _, f := range c.files[1:] {
		if c.cfg, err = c.cfg.Union(f.x.Header().Cfg); err != nil {
			return nil, fmt.Errorf("catalog: %s does not fit the store grid: %w", f.x.Path(), err)
		}
	}
	seen := map[string]bool{}
	for _, f := range c.files {
		cfg := f.x.Header().Cfg
		f.shift = int(cfg.Start.Sub(c.cfg.Start) / c.cfg.Step)
		for _, name := range f.x.Header().Services {
			if !seen[name] {
				seen[name] = true
				c.svcs = append(c.svcs, name)
			}
		}
	}
	// Mirror Merge's namespace guard: a query folds member tables into
	// one, and rollup.Open remaps that union into services.ID.
	if len(c.svcs) >= int(services.NoID) {
		return nil, fmt.Errorf("catalog: union service table of %d names exceeds the %d-service ID namespace",
			len(c.svcs), int(services.NoID)-1)
	}
	slices.Sort(c.svcs)
	ok = true
	return c, nil
}

// expand resolves the path list to member files.
func expand(paths []string) ([]string, error) {
	var members []string
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			members = append(members, p)
			continue
		}
		found, err := filepath.Glob(filepath.Join(p, "*.roll"))
		if err != nil {
			return nil, err
		}
		if len(found) == 0 {
			return nil, fmt.Errorf("catalog: directory %s holds no *.roll snapshots", p)
		}
		slices.Sort(found)
		members = append(members, found...)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("catalog: no snapshot files given")
	}
	return members, nil
}

// Config returns the union grid every query window is expressed on.
func (c *Catalog) Config() rollup.Config { return c.cfg }

// Services returns the sorted union of every member's service table.
// Shared and read-only.
func (c *Catalog) Services() []string { return c.svcs }

// Paths returns the member files in fold order.
func (c *Catalog) Paths() []string {
	out := make([]string, len(c.files))
	for i, f := range c.files {
		out[i] = f.x.Path()
	}
	return out
}

// EpochCount returns the total epoch records across all members.
func (c *Catalog) EpochCount() int {
	n := 0
	for _, f := range c.files {
		n += f.x.EpochCount()
	}
	return n
}

// Close releases every member. No queries may be in flight.
func (c *Catalog) Close() error {
	var err error
	for _, f := range c.files {
		if cerr := f.x.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Query answers spec over the store: it prunes and seek-decodes as the
// package comment describes, folds the surviving epochs through
// Partial.Merge onto the union grid, and windows the fold to the
// requested range. The result is exactly ViewSpec.Apply of the merged
// store — same bytes when re-encoded — with Stats showing how little
// of the store produced it.
func (c *Catalog) Query(spec rollup.ViewSpec) (*rollup.Partial, Stats, error) {
	from, to := spec.From, spec.To
	if to <= 0 {
		to = c.cfg.Bins
	}
	st := Stats{Files: len(c.files)}
	if from < 0 || to > c.cfg.Bins || from >= to {
		return nil, st, fmt.Errorf("catalog: window [%d, %d) outside the store grid of %d bins", from, to, c.cfg.Bins)
	}
	acc := &rollup.Partial{Cfg: c.cfg}
	for _, f := range c.files {
		st.EpochsTotal += f.x.EpochCount()
		sub, err := f.collect(spec, from, to, &st)
		if err != nil {
			return nil, st, err
		}
		if sub == nil {
			st.FilesPruned++
			continue
		}
		if len(sub.Epochs) == 0 {
			continue
		}
		if err := acc.Merge(sub); err != nil {
			return nil, st, fmt.Errorf("catalog: folding %s: %w", f.x.Path(), err)
		}
	}
	out, err := acc.Window(from, to)
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// Dataset materializes a query as the experiment engine's input.
func (c *Catalog) Dataset(spec rollup.ViewSpec) (core.Dataset, Stats, error) {
	part, st, err := c.Query(spec)
	if err != nil {
		return nil, st, err
	}
	ds, err := part.Dataset()
	return ds, st, err
}

// collect returns the file's contribution to the query as a partial on
// the file's own grid (Merge re-bins it onto the union), or nil when
// the whole file prunes away without touching an epoch record.
func (f *file) collect(spec rollup.ViewSpec, from, to int, st *Stats) (*rollup.Partial, error) {
	hdr := f.x.Header()
	lo, hi := max(from-f.shift, 0), min(to-f.shift, hdr.Cfg.Bins)
	if lo >= hi {
		return nil, nil
	}
	var svcKeep []bool
	var svcIDs []uint32
	if len(spec.Services) > 0 {
		svcKeep = make([]bool, len(hdr.Services))
		for _, name := range spec.Services {
			if id, ok := slices.BinarySearch(hdr.Services, name); ok {
				svcKeep[id] = true
				svcIDs = append(svcIDs, uint32(id))
			}
		}
		if len(svcIDs) == 0 {
			return nil, nil
		}
	}
	var comKeep map[int32]bool
	if len(spec.Communes) > 0 {
		comKeep = make(map[int32]bool, len(spec.Communes))
		for _, id := range spec.Communes {
			comKeep[int32(id)] = true
		}
	}
	sub := &rollup.Partial{Cfg: hdr.Cfg, Services: hdr.Services}
	var buf []rollup.Cell
	for i, en := range f.x.Entries() {
		if en.Bin == rollup.OverflowBin || en.Bin < lo || en.Bin >= hi || en.Cells == 0 {
			continue
		}
		if svcIDs != nil && !anyService(&en, svcIDs) {
			continue
		}
		if comKeep != nil && !anyCommune(&en, spec.Communes) {
			continue
		}
		ep, err := f.x.DecodeEntry(i, buf)
		if err != nil {
			return nil, err
		}
		st.EpochsDecoded++
		st.CellsDecoded += len(ep.Cells)
		if cells := filterCells(ep.Cells, svcKeep, comKeep); len(cells) > 0 {
			sub.Epochs = append(sub.Epochs, rollup.Epoch{Bin: ep.Bin, Cells: cells})
		}
		buf = ep.Cells[:0]
	}
	return sub, nil
}

// anyService reports whether the entry may hold any of the wanted
// file-local service ids (false positives allowed, false negatives
// not — the index contract).
func anyService(en *rollup.IndexEntry, ids []uint32) bool {
	for _, id := range ids {
		if en.HasService(id) {
			return true
		}
	}
	return false
}

func anyCommune(en *rollup.IndexEntry, communes []int) bool {
	for _, id := range communes {
		if id >= 0 && en.HasCommune(uint32(id)) {
			return true
		}
	}
	return false
}

// filterCells copies the cells surviving the filters out of a decode
// buffer (the decoder reuses it between epochs). Selection is key-
// based, so filtering before or after merging across files sums the
// same cells — the commutation the catalog/full-scan equivalence
// rests on.
func filterCells(cells []rollup.Cell, svcKeep []bool, comKeep map[int32]bool) []rollup.Cell {
	var out []rollup.Cell
	for _, c := range cells {
		if svcKeep != nil && !svcKeep[c.Svc] {
			continue
		}
		if comKeep != nil && !comKeep[c.Commune] {
			continue
		}
		out = append(out, c)
	}
	return out
}
