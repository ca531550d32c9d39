// Package rollup turns the measurement plane into a store. Operators
// never keep raw frames — they keep per-(service, commune, time-bin)
// traffic aggregates, and the paper's whole analysis runs over exactly
// such rollups. This package builds them online: a Builder hangs off a
// probe shard as a probe.Sink and feeds epoch accumulators as frames
// flow, sealing completed time windows into immutable, compact
// partials; shard partials merge exactly (commutative, integer-exact
// float sums); a merged Partial persists to a versioned binary
// snapshot; and Open turns a snapshot back into a full core.Dataset,
// so the experiment engine runs straight off one compact file with no
// simulator, no probe and no raw trace in sight.
//
// Memory during ingest is O(epochs × active cells + services): the
// per-frame stream never materializes, and cells exist only for
// (direction, service, commune) triples that actually carried traffic
// in a bin.
package rollup

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/probe"
	"repro/internal/services"
)

// OverflowBin collects traffic observed outside the configured time
// binning (before Start or past the last bin). The probe counts such
// traffic in its volume totals but in no series; the overflow epoch
// preserves it so a snapshot loses nothing relative to the report.
const OverflowBin = -1

// DefaultLateness is the default sealing slack in bins: one hour at
// the 15-minute study resolution.
const DefaultLateness = 4

// Config fixes a rollup's binning and the geography it maps onto.
type Config struct {
	// Start, Step and Bins define the epoch grid, mirroring
	// probe.Config: epoch e covers [Start+e·Step, Start+(e+1)·Step).
	Start time.Time
	Step  time.Duration
	Bins  int
	// Geo is the configuration that regenerates the commune
	// tessellation at Open time; geo.Generate is deterministic in it.
	Geo geo.Config
	// Lateness is how many bins an observation may lag the builder's
	// watermark before its epoch seals. Zero means DefaultLateness;
	// negative disables sealing until Seal is called.
	Lateness int
}

// ConfigFrom derives a rollup config from the probe config driving the
// pipeline and the geography config of the country it measures.
func ConfigFrom(pc probe.Config, geoCfg geo.Config) Config {
	return Config{Start: pc.Start, Step: pc.Step, Bins: pc.Bins, Geo: geoCfg, Lateness: DefaultLateness}
}

func (c Config) lateness() int {
	if c.Lateness == 0 {
		return DefaultLateness
	}
	return c.Lateness
}

// binOf maps an observation timestamp onto the epoch grid with the
// same arithmetic as timeseries.Series.IndexOf: an instant exactly on
// a bin edge belongs to the bin it opens.
func (c Config) binOf(at time.Time) int {
	if at.Before(c.Start) {
		return OverflowBin
	}
	i := int(at.Sub(c.Start) / c.Step)
	if i >= c.Bins {
		return OverflowBin
	}
	return i
}

// sameGrid reports whether two configs describe identical rollup
// grids, the fast path of Merge.
func (c Config) sameGrid(o Config) bool {
	return c.Start.Equal(o.Start) && c.Step == o.Step && c.Bins == o.Bins && c.Geo == o.Geo
}

// Union returns the smallest config covering both grids: the earlier
// start, the later end, the shared step and geography. It errors when
// the grids are not aligned (different step or geography, or starts
// off-lattice) or the union would exceed MaxBins.
func (c Config) Union(o Config) (Config, error) {
	if c.Step != o.Step {
		return Config{}, fmt.Errorf("rollup: cannot union grids with steps %v and %v", c.Step, o.Step)
	}
	if c.Geo != o.Geo {
		return Config{}, fmt.Errorf("rollup: cannot union grids over different geographies (%+v vs %+v)", c.Geo, o.Geo)
	}
	if o.Start.Sub(c.Start)%c.Step != 0 {
		return Config{}, fmt.Errorf("rollup: grid starts %v and %v are not a whole number of %v steps apart",
			c.Start, o.Start, c.Step)
	}
	u := c
	if o.Start.Before(u.Start) {
		u.Start = o.Start
	}
	end, oEnd := c.Start.Add(time.Duration(c.Bins)*c.Step), o.Start.Add(time.Duration(o.Bins)*o.Step)
	if oEnd.After(end) {
		end = oEnd
	}
	u.Bins = int(end.Sub(u.Start) / u.Step)
	if u.Bins > MaxBins {
		return Config{}, fmt.Errorf("rollup: union grid of %d bins exceeds the limit of %d", u.Bins, MaxBins)
	}
	return u, nil
}

// binOffset returns how many bins c's grid starts after u's. Both
// configs must be aligned (a Union result and one of its inputs).
func (c Config) binOffset(u Config) int {
	return int(c.Start.Sub(u.Start) / c.Step)
}

// Cell is one accumulator: the bytes a (direction, service, commune)
// triple carried within one epoch. Svc indexes the Partial's service
// table. Cells in a sealed epoch are sorted by (Dir, Svc, Commune).
type Cell struct {
	Dir     uint8
	Svc     uint32
	Commune int32
	Bytes   float64
}

// cellCompare is the canonical (Dir, Svc, Commune) ordering as a
// three-way comparison — the single definition both the sorts
// (slices.SortFunc) and cellLess derive from.
func cellCompare(a, b Cell) int {
	if a.Dir != b.Dir {
		return int(a.Dir) - int(b.Dir)
	}
	if a.Svc != b.Svc {
		if a.Svc < b.Svc {
			return -1
		}
		return 1
	}
	if a.Commune != b.Commune {
		if a.Commune < b.Commune {
			return -1
		}
		return 1
	}
	return 0
}

func cellLess(a, b Cell) bool { return cellCompare(a, b) < 0 }

// Epoch is one sealed time window: an immutable, compact cell list.
type Epoch struct {
	// Bin is the epoch's index on the config grid, or OverflowBin.
	Bin int
	// Cells is sorted by (Dir, Svc, Commune) with unique keys.
	Cells []Cell
}

// Counters carries the probe's error and anomaly counters into the
// snapshot, so a report reconstructed from a rollup tells the same
// measurement story (classification rate, decode health) as the live
// one.
type Counters struct {
	DecodeErrors     int
	UnknownTEID      int
	UnknownCell      int
	ControlMessages  int
	UserPlanePackets int
}

// Partial is a mergeable rollup: the epoch-sealed aggregation of one
// probe shard, of a whole pipeline run, or of many runs merged. It is
// the unit the snapshot format persists.
type Partial struct {
	Cfg Config
	// Services is the interning table Cell.Svc indexes, sorted
	// (normalized partials keep it in lexicographic order, making the
	// encoding canonical: one capture, one byte sequence).
	Services []string
	// Epochs is sorted by bin, OverflowBin (if present) first.
	Epochs []Epoch
	// TotalBytes and ClassifiedBytes mirror the probe report's
	// per-direction totals: Total includes unattributed user-plane
	// traffic the cells cannot carry.
	TotalBytes      [services.NumDirections]float64
	ClassifiedBytes [services.NumDirections]float64
	Counters        Counters
	// LateFrames counts observations that arrived for an
	// already-sealed epoch and forced a reopen generation. Like
	// Cfg.Lateness it is ingest diagnostics, not data — the count
	// depends on shard count and frame arrival order while the cells
	// do not — so it is reported after a run but never persisted.
	LateFrames int
}

// Builder accumulates one shard's observations into epoch-sealed
// rollups. It implements probe.Sink; attach one per shard via
// probe.Pipeline.WithSinks. Not safe for concurrent use — by the sink
// contract a builder only ever sees its own shard's single-threaded
// event stream.
//
// The ingest path is steady-state allocation-free: each open epoch is
// an open-addressing cellTable keyed by the (direction, services.ID,
// commune) triple packed into one uint64 — no struct hashing, no
// string interning per event — tables recycle through a free list as
// epochs seal, and sealed cell lists carve out of a slab arena. The
// only per-event costs are one integer hash probe and an in-place +=.
type Builder struct {
	cfg Config
	// names and seen are indexed by services.ID: the builder records
	// each ID's interned name on first sight and compacts the table to
	// observed services at Seal time.
	names []string
	seen  []bool

	onSeal SealHook
	nameOf func(svc uint32) string

	open      map[int]*cellTable
	lastBin   int        // 1-entry lookup cache: consecutive
	lastTab   *cellTable // observations usually share a bin
	free      []*cellTable
	sealed    []Epoch // may hold several generations of one bin
	everSeal  map[int]bool
	arena     []Cell // slab the sealed cell lists carve from
	arenaUsed int
	watermark int
	late      int
	done      bool
	metrics   *Metrics
}

// NewBuilder returns an empty builder on the given grid.
func NewBuilder(cfg Config) *Builder {
	b := &Builder{
		cfg:       cfg,
		open:      map[int]*cellTable{},
		everSeal:  map[int]bool{},
		lastBin:   OverflowBin - 1,
		watermark: -1,
		metrics:   noMetrics,
	}
	b.nameOf = func(svc uint32) string { return b.names[svc] }
	return b
}

// SealHook observes epochs the moment they seal — the notification
// point streaming consumers (the epoch-wire shipper) hang off. The
// epoch's cells carry the builder's raw dense service IDs; nameOf
// resolves one to its interned name. Both the cell slice and nameOf
// are valid only for the duration of the call: Seal later remaps the
// sealed cells in place when it compacts the service table, so a hook
// that needs the epoch past its return must copy (SingleEpochPartial
// does). Hooks run on the builder's own goroutine — the shard worker
// during ingest, the Seal caller at the end — and see each generation
// of a reopened bin as its own event, exactly the granularity
// Partial.Merge folds back together.
type SealHook func(ep Epoch, nameOf func(svc uint32) string)

// OnSeal registers the builder's seal hook (nil detaches). It must be
// set before the first Observe call.
func (b *Builder) OnSeal(h SealHook) { b.onSeal = h }

// Observe implements probe.Sink: it folds one classified accounting
// event into the epoch accumulators and advances the sealing
// watermark. Events are keyed by the observation's dense service ID
// (Observation.Svc); the name rides along once, for the snapshot's
// service table. An observation for a bin that already sealed reopens
// a fresh generation (counted in LateFrames); generations of one bin
// merge exactly at Seal time, so out-of-order arrival never loses or
// double-counts a byte.
//
//repro:hotpath
func (b *Builder) Observe(o probe.Observation) {
	if b.done {
		panic("rollup: Observe after Seal")
	}
	bin := b.cfg.binOf(o.At)
	m := b.metrics
	m.Observations.Inc()
	m.ObservedBytes.Add(uint64(o.Bytes))
	if bin == OverflowBin {
		m.Overflow.Inc()
	}
	if int(o.Svc) >= len(b.seen) {
		grown := int(o.Svc) + 1
		if grown < 2*len(b.seen) {
			grown = 2 * len(b.seen)
		}
		names := make([]string, grown)
		seen := make([]bool, grown)
		copy(names, b.names)
		copy(seen, b.seen)
		b.names, b.seen = names, seen
	}
	if !b.seen[o.Svc] {
		b.seen[o.Svc] = true
		b.names[o.Svc] = o.Service
	}
	tab := b.lastTab
	if tab == nil || b.lastBin != bin {
		tab = b.open[bin]
		if tab == nil {
			tab = b.newTable()
			b.open[bin] = tab
			m.OpenEpochs.Add(1)
			if b.everSeal[bin] {
				b.late++
				m.LateReopens.Inc()
			}
		}
		b.lastBin, b.lastTab = bin, tab
	}
	tab.add(packCell(uint8(o.Dir), o.Svc, int32(o.Commune)), o.Bytes)

	if bin > b.watermark {
		b.watermark = bin
		m.Watermark.Max(int64(bin))
		if lat := b.cfg.lateness(); lat >= 0 {
			b.advance(b.watermark - lat)
		}
	}
}

func (b *Builder) newTable() *cellTable {
	if n := len(b.free); n > 0 {
		t := b.free[n-1]
		b.free = b.free[:n-1]
		return t
	}
	return &cellTable{}
}

// carve returns an empty n-capacity cell slice out of the slab arena
// (full slice expression, so a sealed epoch can never grow into its
// neighbour's cells).
func (b *Builder) carve(n int) []Cell {
	if n > len(b.arena)-b.arenaUsed {
		size := 4096
		if n > size {
			size = n
		}
		b.arena = make([]Cell, size)
		b.arenaUsed = 0
	}
	out := b.arena[b.arenaUsed : b.arenaUsed : b.arenaUsed+n]
	b.arenaUsed += n
	return out
}

// advance seals every open epoch strictly below the horizon bin (the
// overflow epoch never seals early: traffic outside the grid has no
// position in time order).
func (b *Builder) advance(horizon int) {
	for bin := range b.open {
		if bin != OverflowBin && bin < horizon {
			b.sealBin(bin)
		}
	}
}

// sealBin compacts one open epoch into an immutable sorted cell list
// and recycles its accumulator table.
func (b *Builder) sealBin(bin int) {
	tab := b.open[bin]
	if tab == nil {
		return
	}
	delete(b.open, bin)
	if b.lastBin == bin {
		b.lastTab = nil
	}
	b.metrics.OpenEpochs.Add(-1)
	if tab.n > 0 {
		cells := tab.appendCells(b.carve(tab.n))
		slices.SortFunc(cells, cellCompare)
		m := b.metrics
		m.SealedEpochs.Inc()
		m.SealedCells.Add(uint64(len(cells)))
		var bytes float64
		for i := range cells {
			bytes += cells[i].Bytes
		}
		m.SealedBytes.Add(uint64(bytes))
		if bin != OverflowBin && b.watermark >= bin {
			m.SealLag.Observe(int64(b.watermark - bin))
		}
		b.sealed = append(b.sealed, Epoch{Bin: bin, Cells: cells})
		b.everSeal[bin] = true
		if b.onSeal != nil {
			b.onSeal(Epoch{Bin: bin, Cells: cells}, b.nameOf)
		}
	}
	tab.reset()
	b.free = append(b.free, tab)
}

// SealedEpochs returns how many epoch generations have been sealed so
// far (diagnostic; several generations of one bin count separately
// until Seal folds them).
func (b *Builder) SealedEpochs() int { return len(b.sealed) }

// Seal flushes every open epoch, compacts the service table to the
// IDs actually observed, and returns the builder's normalized partial.
// The builder is spent afterwards: further Observe calls panic.
func (b *Builder) Seal() *Partial {
	if b.done {
		panic("rollup: Seal called twice")
	}
	b.done = true
	for bin := range b.open {
		b.sealBin(bin)
	}
	// Compact the sparse ID namespace to the observed services. The
	// remap is monotonic in ID, so sorted cell lists stay sorted.
	remap := make([]uint32, len(b.seen))
	var svcNames []string
	for id, ok := range b.seen {
		if ok {
			remap[id] = uint32(len(svcNames))
			svcNames = append(svcNames, b.names[id])
		}
	}
	for e := range b.sealed {
		cells := b.sealed[e].Cells
		for i := range cells {
			cells[i].Svc = remap[cells[i].Svc]
		}
	}
	p := &Partial{
		Cfg:        b.cfg,
		Services:   svcNames,
		Epochs:     foldGenerations(b.sealed),
		LateFrames: b.late,
	}
	p.normalize()
	return p
}

// foldGenerations merges same-bin epoch generations into one epoch per
// bin and sorts epochs by bin.
func foldGenerations(eps []Epoch) []Epoch {
	slices.SortStableFunc(eps, func(a, b Epoch) int { return a.Bin - b.Bin })
	out := eps[:0]
	for _, ep := range eps {
		if n := len(out); n > 0 && out[n-1].Bin == ep.Bin {
			out[n-1].Cells = mergeCells(out[n-1].Cells, ep.Cells)
			continue
		}
		out = append(out, ep)
	}
	return out
}

// mergeCells sums two sorted unique cell lists into a new sorted
// unique list. Sums are exact: every cell value is a sum of
// integer-valued packet lengths.
func mergeCells(a, b []Cell) []Cell {
	return mergeCellsInto(make([]Cell, 0, len(a)+len(b)), a, b)
}

// normalize rewrites the partial into its canonical form: service
// table sorted lexicographically, cells remapped and re-sorted, epochs
// ordered by bin. Two partials aggregating the same observations are
// identical after normalization whatever order shards or merges
// produced them in — which is what makes snapshot bytes reproducible
// across shard counts.
func (p *Partial) normalize() {
	remap := make([]uint32, len(p.Services))
	sorted := append([]string(nil), p.Services...)
	slices.Sort(sorted)
	idx := make(map[string]uint32, len(sorted))
	for i, name := range sorted {
		idx[name] = uint32(i)
	}
	identity := true
	for old, name := range p.Services {
		remap[old] = idx[name]
		if remap[old] != uint32(old) {
			identity = false
		}
	}
	p.Services = sorted
	slices.SortStableFunc(p.Epochs, func(a, b Epoch) int { return a.Bin - b.Bin })
	if identity {
		return
	}
	for e := range p.Epochs {
		cells := p.Epochs[e].Cells
		for i := range cells {
			cells[i].Svc = remap[cells[i].Svc]
		}
		slices.SortFunc(cells, cellCompare)
	}
}

// SingleEpochPartial wraps one sealed epoch as a normalized partial of
// its own: the smallest self-describing unit of the rollup algebra,
// and therefore the unit the epoch-wire protocol ships — the service
// table carries exactly the names the epoch references, so a receiver
// needs no shared interning state, and Partial.Merge folds any number
// of such fragments (generations of one bin, epochs of one run, runs
// of many probes) back into the aggregate exactly. The epoch's cells
// are copied, never aliased, so the result outlives the builder arena
// the hook handed out. nameOf resolves the epoch's raw service IDs
// (the SealHook contract).
func SingleEpochPartial(cfg Config, ep Epoch, nameOf func(svc uint32) string) *Partial {
	cells := make([]Cell, len(ep.Cells))
	copy(cells, ep.Cells)
	names := make([]string, 0, 8)
	idx := make(map[uint32]uint32, 8)
	for i := range cells {
		id, ok := idx[cells[i].Svc]
		if !ok {
			id = uint32(len(names))
			names = append(names, nameOf(cells[i].Svc))
			idx[cells[i].Svc] = id
		}
		cells[i].Svc = id
	}
	// Re-sort under the compacted IDs before normalizing: the scan-order
	// remap can reorder cells even when the name table happens to come
	// out already sorted, and normalize's identity fast path assumes
	// cells are sorted under the current IDs.
	slices.SortFunc(cells, cellCompare)
	p := &Partial{Cfg: cfg, Services: names, Epochs: []Epoch{{Bin: ep.Bin, Cells: cells}}}
	p.normalize()
	return p
}

// Merge folds o into p, mutating p; o is left untouched. Partials
// merge exactly and commutatively — cell sums are sums of
// integer-valued packet lengths, so accumulation order cannot change a
// bit — mirroring probe.Report.Merge across shards.
//
// Identical grids merge cell-wise, the shard-merge fast path. Grids
// that are merely aligned — same step and geography, starts a whole
// number of steps apart — widen onto their union grid first: a Monday
// snapshot appends to a Tuesday snapshot, two regional probes of one
// geography union into the national view, and overlapping ranges sum
// exactly where they overlap. Overflow epochs carry no position in
// time, so they fold into the union's overflow epoch. Anything else
// (different step, different geography, off-lattice starts) errors,
// as does merging a partial into itself — an aliased receiver would
// double-count every cell — or growing the service union past the
// services.ID namespace (the uint16 table rollup.Open remaps into).
// On error p is left unchanged.
func (p *Partial) Merge(o *Partial) error {
	if p == o {
		return fmt.Errorf("rollup: merging a partial into itself would double-count every cell")
	}
	shiftP, shiftO := 0, 0
	u := p.Cfg
	if !p.Cfg.sameGrid(o.Cfg) {
		var err error
		if u, err = p.Cfg.Union(o.Cfg); err != nil {
			return fmt.Errorf("rollup: merging mismatched grids (%v/%v/%d bins vs %v/%v/%d bins): %w",
				p.Cfg.Start, p.Cfg.Step, p.Cfg.Bins, o.Cfg.Start, o.Cfg.Step, o.Cfg.Bins, err)
		}
		shiftP, shiftO = p.Cfg.binOffset(u), o.Cfg.binOffset(u)
	}
	// Union the service tables and remap o's cells into it — but guard
	// the namespace first, before any mutation: rollup.Open remaps the
	// table into services.ID (uint16, NoID sentinel), so a union past
	// that limit would silently misattribute traffic downstream.
	remap := make([]uint32, len(o.Services))
	idx := make(map[string]uint32, len(p.Services))
	for i, name := range p.Services {
		idx[name] = uint32(i)
	}
	grown := len(p.Services)
	for _, name := range o.Services {
		if _, ok := idx[name]; !ok {
			grown++
		}
	}
	if grown >= int(services.NoID) {
		return fmt.Errorf("rollup: merged service table of %d names exceeds the %d-service ID namespace",
			grown, int(services.NoID)-1)
	}
	for i, name := range o.Services {
		id, ok := idx[name]
		if !ok {
			id = uint32(len(p.Services))
			p.Services = append(p.Services, name)
			idx[name] = id
		}
		remap[i] = id
	}
	p.Cfg = u
	// Re-bin both epoch streams onto the union grid: a non-overflow bin
	// shifts by its grid's offset (shiftBin), the overflow epoch stays
	// overflow. Shifts are non-negative, so both streams stay sorted.
	merged := make([]Epoch, 0, len(p.Epochs)+len(o.Epochs))
	i, j := 0, 0
	for i < len(p.Epochs) && j < len(o.Epochs) {
		a, b := p.Epochs[i], o.Epochs[j]
		abin, bbin := shiftBin(a.Bin, shiftP), shiftBin(b.Bin, shiftO)
		switch {
		case abin < bbin:
			merged = append(merged, Epoch{Bin: abin, Cells: a.Cells})
			i++
		case bbin < abin:
			merged = append(merged, Epoch{Bin: bbin, Cells: remapCells(b.Cells, remap)})
			j++
		default:
			merged = append(merged, Epoch{Bin: abin, Cells: mergeCells(a.Cells, remapCells(b.Cells, remap))})
			i, j = i+1, j+1
		}
	}
	for ; i < len(p.Epochs); i++ {
		merged = append(merged, Epoch{Bin: shiftBin(p.Epochs[i].Bin, shiftP), Cells: p.Epochs[i].Cells})
	}
	for ; j < len(o.Epochs); j++ {
		merged = append(merged, Epoch{Bin: shiftBin(o.Epochs[j].Bin, shiftO), Cells: remapCells(o.Epochs[j].Cells, remap)})
	}
	p.Epochs = merged
	p.absorbSums(o)
	p.normalize()
	return nil
}

// absorbSums adds o's totals, counters and late-frame diagnostics
// into p — the scalar half of a merge, shared with MergeFiles so the
// two folds cannot drift apart.
func (p *Partial) absorbSums(o *Partial) {
	for d := 0; d < services.NumDirections; d++ {
		p.TotalBytes[d] += o.TotalBytes[d]
		p.ClassifiedBytes[d] += o.ClassifiedBytes[d]
	}
	p.Counters.DecodeErrors += o.Counters.DecodeErrors
	p.Counters.UnknownTEID += o.Counters.UnknownTEID
	p.Counters.UnknownCell += o.Counters.UnknownCell
	p.Counters.ControlMessages += o.Counters.ControlMessages
	p.Counters.UserPlanePackets += o.Counters.UserPlanePackets
	p.LateFrames += o.LateFrames
}

// remapCells rewrites cell service ids through remap and restores the
// sort order the remap may have broken.
func remapCells(cells []Cell, remap []uint32) []Cell {
	out := append([]Cell(nil), cells...)
	for i := range out {
		out[i].Svc = remap[out[i].Svc]
	}
	slices.SortFunc(out, cellCompare)
	return out
}

// CellTotals sums every cell per direction — by construction exactly
// the classified bytes the contributing probes accounted.
func (p *Partial) CellTotals() [services.NumDirections]float64 {
	var t [services.NumDirections]float64
	for _, ep := range p.Epochs {
		for _, c := range ep.Cells {
			if int(c.Dir) < services.NumDirections {
				t[c.Dir] += c.Bytes
			}
		}
	}
	return t
}

// Collector wires a rollup into a probe pipeline run: it owns one
// Builder per shard and hands them out as sinks.
//
//	pl := probe.NewPipeline(cfg, cells, classifier, shards)
//	col := rollup.NewCollector(rcfg, pl.Shards())
//	rep, err := pl.WithSinks(col.Sink).Run(src)
//	part, err := col.Finish(rep)
type Collector struct {
	builders []*Builder
}

// NewCollector builds one builder per shard.
func NewCollector(cfg Config, shards int) *Collector {
	if shards <= 0 {
		shards = 1
	}
	c := &Collector{builders: make([]*Builder, shards)}
	for i := range c.builders {
		c.builders[i] = NewBuilder(cfg)
	}
	return c
}

// Sink returns shard i's builder as a probe.Sink; pass this method to
// probe.Pipeline.WithSinks.
func (c *Collector) Sink(shard int) probe.Sink { return c.builders[shard] }

// WithSealHook registers h on every shard builder, tagging each seal
// event with its shard index, and returns c. The per-event contract is
// Builder.SealHook's; events from different shards arrive on different
// goroutines, so h must be safe for concurrent use. Set it before the
// pipeline runs.
func (c *Collector) WithSealHook(h func(shard int, ep Epoch, nameOf func(svc uint32) string)) *Collector {
	for i, b := range c.builders {
		b.OnSeal(func(ep Epoch, nameOf func(svc uint32) string) { h(i, ep, nameOf) })
	}
	return c
}

// CheckTotals cross-checks the partial's two accountings of classified
// volume — the invariant every producer and `rollupctl verify` hold a
// snapshot to: the cells must sum to ClassifiedBytes. Both are sums of
// the same integer-valued frame contributions, so below 2^53 any
// difference is an accounting bug or corruption, not rounding; beyond
// it float addition order starts to matter and last-bits drift is
// tolerated.
func (p *Partial) CheckTotals() error {
	cellTotals := p.CellTotals()
	for d := range cellTotals {
		got, want := cellTotals[d], p.ClassifiedBytes[d]
		const exactLimit = float64(1 << 53)
		if got != want && (got < exactLimit && want < exactLimit || math.Abs(got-want) > 1e-9*math.Max(got, want)) {
			return fmt.Errorf("rollup: cells sum to %.0f classified %v bytes, the totals record %.0f", got, services.Direction(d), want)
		}
	}
	return nil
}

// Finish seals every shard builder, merges the shard partials exactly,
// and absorbs the pipeline's merged report: the per-direction totals
// and counters the sinks cannot see. It cross-checks the cell sums
// against the report's classified bytes — the two paths account the
// same integer-valued frame contributions, so any difference means an
// accounting bug, not rounding.
func (c *Collector) Finish(rep *probe.Report) (*Partial, error) {
	part := c.builders[0].Seal()
	for _, b := range c.builders[1:] {
		if err := part.Merge(b.Seal()); err != nil {
			return nil, err
		}
	}
	if rep != nil {
		for d := 0; d < services.NumDirections; d++ {
			part.TotalBytes[d] = rep.TotalBytes[d]
			part.ClassifiedBytes[d] = rep.ClassifiedBytes[d]
		}
		part.Counters = Counters{
			DecodeErrors:     rep.DecodeErrors,
			UnknownTEID:      rep.UnknownTEID,
			UnknownCell:      rep.UnknownCell,
			ControlMessages:  rep.ControlMessages,
			UserPlanePackets: rep.UserPlanePackets,
		}
		if err := part.CheckTotals(); err != nil {
			return nil, fmt.Errorf("%w — sink not attached to every shard?", err)
		}
	}
	return part, nil
}
