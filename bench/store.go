package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/epochwire"
	"repro/internal/obs"
	"repro/internal/rollup"
)

const weekDays = 7

// dayFiles writes the seven calendar-day windows of week as v2
// snapshots under dir (the NetMob23 layout: per-day files plus a merged
// week) and returns their paths.
func dayFiles(dir string, week *rollup.Partial, c *repCtx) ([]string, error) {
	paths := make([]string, weekDays)
	for d := range paths {
		var day *rollup.Partial
		err := c.timed("window_s", func() (err error) {
			day, err = week.DayWindow(d)
			return err
		})
		if err != nil {
			return nil, err
		}
		paths[d] = filepath.Join(dir, fmt.Sprintf("day-%d.roll", d))
		if err := c.timed("write_s", func() error { return rollup.WriteFile(paths[d], day) }); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

func fileSizes(paths ...string) (float64, error) {
	var total float64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += float64(fi.Size())
	}
	return total, nil
}

// --- store-build --------------------------------------------------------

// storeBuild is the write side of the snapshot codec: one in-memory
// week → 7× DayWindow + WriteFile (v2, fsynced) → MergeFiles 7→1 →
// ReadFile → Write (v1) → UpgradeFile. A decode-side win that costs
// encode, or the reverse, shows here against store-query.
type storeBuild struct {
	o    options
	week *rollup.Partial
	dir  string

	days             []string
	merged, upgraded []byte
	read             *rollup.Partial
}

func (b *storeBuild) setup() error {
	b.dir = filepath.Join(b.o.dir, "store-build")
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	var err error
	b.week, err = newWorld().weekPartial(b.o.size.storeSessions, b.o.seed)
	return err
}

func (b *storeBuild) rep(c *repCtx) error {
	merged := filepath.Join(b.dir, "week.roll")
	v1 := filepath.Join(b.dir, "week-v1.roll")
	upgraded := filepath.Join(b.dir, "week-upgraded.roll")
	err := c.measure(func() (err error) {
		if b.days, err = dayFiles(b.dir, b.week, c); err != nil {
			return err
		}
		if err := c.timed("merge_s", func() error { return rollup.MergeFiles(merged, b.days...) }); err != nil {
			return err
		}
		err = c.timed("read_s", func() (err error) {
			b.read, err = rollup.ReadFile(merged)
			return err
		})
		if err != nil {
			return err
		}
		err = c.timed("write_v1_s", func() error {
			f, err := os.Create(v1)
			if err != nil {
				return err
			}
			if err := rollup.Write(f, b.read); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
		if err != nil {
			return err
		}
		return c.timed("upgrade_s", func() error { return rollup.UpgradeFile(v1, upgraded) })
	})
	if err != nil {
		return err
	}
	if c.s["source_bytes"], err = fileSizes(b.days...); err != nil {
		return err
	}
	if b.merged, err = os.ReadFile(merged); err != nil {
		return err
	}
	if b.upgraded, err = os.ReadFile(upgraded); err != nil {
		return err
	}
	c.s["merged_bytes"] = float64(len(b.merged))
	return nil
}

func (b *storeBuild) verify() (int, []string) {
	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, "store-build: "+fmt.Sprintf(format, args...))
	}
	// MergeFiles must equal the in-memory Merge fold's encoding.
	fold, err := rollup.ReadFile(b.days[0])
	for _, p := range b.days[1:] {
		var day *rollup.Partial
		if err == nil {
			day, err = rollup.ReadFile(p)
		}
		if err == nil {
			err = fold.Merge(day)
		}
	}
	var enc bytes.Buffer
	if err == nil {
		err = rollup.WriteV2(&enc, fold)
	}
	if err != nil {
		fail("in-memory fold: %v", err)
	} else if got, want := digest(b.o.corrupt(b.merged)), digest(enc.Bytes()); got != want {
		fail("MergeFiles output %s differs from the in-memory fold's encoding %s", got, want)
	}
	// Every in-grid byte of the week must survive the split and merge.
	if inGrid, err := b.week.Window(0, b.week.Cfg.Bins); err != nil {
		fail("week window: %v", err)
	} else if got, want := b.read.CellTotals(), inGrid.CellTotals(); got != want {
		fail("cell totals %v after day split + merge, want %v", got, want)
	}
	if !bytes.Equal(b.upgraded, b.merged) {
		fail("v1 → v2 upgrade %s differs from the merged v2 file %s", digest(b.upgraded), digest(b.merged))
	}
	return 3, failures
}

func (b *storeBuild) layers(untraced, _ recorder) (map[string]float64, error) {
	return map[string]float64{
		"rollup.window_s":       untraced.median("window_s"),
		"rollup.write_MBps":     untraced.median("source_bytes") / 1e6 / untraced.median("write_s"),
		"rollup.read_MBps":      untraced.median("merged_bytes") / 1e6 / untraced.median("read_s"),
		"rollup.merge_s":        untraced.median("merge_s"),
		"rollup.merge_MBps":     untraced.median("source_bytes") / 1e6 / untraced.median("merge_s"),
		"rollup.upgrade_s":      untraced.median("upgrade_s"),
		"rollup.snapshot_bytes": untraced.median("merged_bytes"),
	}, nil
}

func (b *storeBuild) cold() bool { return false }
func (b *storeBuild) close()     {}

// --- store-query --------------------------------------------------------

// queryClasses bracket the planner: topn is maximally selective
// (3 services, 1 day — files and epochs prune), full is Lenormand's
// all-services per-commune diversity input (whole week, nothing can be
// pruned), commune filters 5% of communes over the whole week (cells
// prune, files do not).
var queryClasses = [...]string{"topn", "full", "commune"}

// storeQuery is the read side: seven v2 day files behind
// catalog.NewServer on loopback, one closed-loop client
// (epochwire.CtlClient — one connection per request, as rollupctl
// fetch does) issuing a seeded interleave of the three classes.
type storeQuery struct {
	o     options
	dir   string
	srv   *catalog.Server
	reg   *obs.Registry
	full  *rollup.Partial // the merged week, for full-scan equivalence
	specs map[string][]rollup.ViewSpec
	rng   *rand.Rand

	verified map[string]bool
	pending  []queryReply
}

type queryReply struct {
	spec rollup.ViewSpec
	body []byte
	err  error
}

func (q *storeQuery) setup() error {
	q.close()
	q.dir = filepath.Join(q.o.dir, "store-query")
	if err := os.RemoveAll(q.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(q.dir, 0o755); err != nil {
		return err
	}
	week, err := newWorld().weekPartial(q.o.size.storeSessions, q.o.seed)
	if err != nil {
		return err
	}
	days, err := dayFiles(q.dir, week, newRepCtx(nil))
	if err != nil {
		return err
	}
	// The reference is the store as the full-scan path sees it: every
	// member merged, read whole.
	merged := filepath.Join(q.o.dir, "store-query-merged.roll")
	if err := rollup.MergeFiles(merged, days...); err != nil {
		return err
	}
	if q.full, err = rollup.ReadFile(merged); err != nil {
		return err
	}

	q.rng = rand.New(rand.NewPCG(q.o.seed, 0x9e3779b97f4a7c15))
	bpd, err := q.full.Cfg.DayBins()
	if err != nil {
		return err
	}
	communes := q.full.Cfg.Geo.NumCommunes
	q.specs = map[string][]rollup.ViewSpec{"full": {{}}}
	for i := 0; i < q.o.size.querySpecs; i++ {
		day := q.rng.IntN(weekDays)
		topn := rollup.ViewSpec{From: day * bpd, To: (day + 1) * bpd}
		for _, s := range q.rng.Perm(len(q.full.Services))[:3] {
			topn.Services = append(topn.Services, q.full.Services[s])
		}
		q.specs["topn"] = append(q.specs["topn"], topn)
		q.specs["commune"] = append(q.specs["commune"],
			rollup.ViewSpec{Communes: q.rng.Perm(communes)[:max(communes/20, 1)]})
	}
	q.verified = map[string]bool{}

	q.reg = obs.NewRegistry()
	q.srv, err = catalog.NewServer("127.0.0.1:0", q.reg, q.dir)
	return err
}

// block draws the rep's interleave: queryBlock queries of each class in
// seeded order.
func (q *storeQuery) block() []string {
	var classes []string
	for _, class := range queryClasses {
		for i := 0; i < q.o.size.queryBlock; i++ {
			classes = append(classes, class)
		}
	}
	q.rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	return classes
}

func (q *storeQuery) rep(c *repCtx) error {
	dialer := &net.Dialer{Timeout: 30 * time.Second}
	client := &epochwire.CtlClient{Addr: q.srv.Addr(), Timeout: 30 * time.Second,
		Dial: c.tr.dial("catalog.ctl", "query.block", dialer.Dial)}
	classes := q.block()
	specs := make([]rollup.ViewSpec, len(classes))
	for i, class := range classes {
		specs[i] = q.specs[class][q.rng.IntN(len(q.specs[class]))]
	}
	before := q.plannerCounters()
	q.pending = q.pending[:0]
	err := c.measure(func() error {
		done := c.tr.begin("query.block", "")
		defer done()
		for i, spec := range specs {
			start := time.Now()
			body, err := client.Request("query|" + spec.String())
			c.ops[classes[i]] = append(c.ops[classes[i]], float64(time.Since(start))/1e6)
			q.pending = append(q.pending, queryReply{spec: spec, body: body, err: err})
		}
		return nil
	})
	for name, v := range q.plannerCounters() {
		c.s[name] = v - before[name]
	}
	c.s["queries"] = float64(len(specs))
	return err
}

func (q *storeQuery) plannerCounters() map[string]float64 {
	return map[string]float64{
		"files_pruned":   counter(q.reg, "catalog_query_files_pruned_total"),
		"epochs_decoded": counter(q.reg, "catalog_query_epochs_decoded_total"),
		"epochs_total":   counter(q.reg, "catalog_query_epochs_total"),
		"cells_decoded":  counter(q.reg, "catalog_query_cells_decoded_total"),
	}
}

// verify holds every reply to "no error", and the first reply to each
// distinct spec to full-scan equivalence: the served bytes must equal
// the v2 encoding of ViewSpec.Apply over the whole merged store.
func (q *storeQuery) verify() (int, []string) {
	var failures []string
	for _, r := range q.pending {
		key := r.spec.String()
		if r.err != nil {
			failures = append(failures, fmt.Sprintf("store-query: %s: %v", key, r.err))
			continue
		}
		if q.verified[key] {
			continue
		}
		q.verified[key] = true
		view, err := r.spec.Apply(q.full)
		var want bytes.Buffer
		if err == nil {
			err = rollup.WriteV2(&want, view)
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("store-query: full-scan reference for %s: %v", key, err))
		} else if !bytes.Equal(q.o.corrupt(r.body), want.Bytes()) {
			failures = append(failures, fmt.Sprintf("store-query: %s served %s, full scan gives %s", key, digest(r.body), digest(want.Bytes())))
		}
	}
	return len(q.pending), failures
}

func (q *storeQuery) layers(untraced, traced recorder) (map[string]float64, error) {
	// The library path: the same specs through Catalog.Query, no ctl.
	start := time.Now()
	cat, err := catalog.Open(q.dir)
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	openS := time.Since(start).Seconds()
	direct := map[string][]float64{}
	for round := 0; round < 8; round++ {
		for _, class := range queryClasses {
			for _, spec := range q.specs[class] {
				start := time.Now()
				if _, _, err := cat.Query(spec); err != nil {
					return nil, err
				}
				direct[class] = append(direct[class], float64(time.Since(start))/1e3)
			}
		}
	}
	m := map[string]float64{
		"catalog.open_s":         openS,
		"catalog.files_pruned":   untraced.median("files_pruned"),
		"catalog.epochs_decoded": untraced.median("epochs_decoded"),
		"catalog.epochs_total":   untraced.median("epochs_total"),
		"catalog.cells_decoded":  untraced.median("cells_decoded"),
		"catalog.reply_bytes":    traced.median("catalog.ctl.rx.bytes"),
		"catalog.queries_per_s":  untraced.median("queries") / untraced.median("wall_s"),
	}
	var overhead float64
	for _, class := range queryClasses {
		served := untraced.ops[class] // ms per served query
		m["catalog.query_"+class+"_ms_p50"] = median(served)
		m["catalog.query_"+class+"_ms_p95"] = percentile(served, 95)
		m["catalog.direct_us_p50."+class] = median(direct[class])
		overhead += (median(served) - median(direct[class])/1e3) / float64(len(queryClasses))
	}
	m["catalog.ctl_overhead_ms"] = overhead
	return m, nil
}

func (q *storeQuery) cold() bool { return false }

func (q *storeQuery) close() {
	if q.srv != nil {
		q.srv.Close()
		q.srv = nil
	}
}
