package catalog

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/probe"
	"repro/internal/rollup"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// storeConfig is the per-file grid template: 8 files tiling 8 "days"
// of 24 bins each, a handful of services and communes spread so
// selective queries have something to prune.
const (
	dayBins   = 24
	storeDays = 8
)

var storeServices = []string{
	"Facebook", "Facebook Video", "Google Services", "Instagram",
	"Netflix", "Twitter", "WhatsApp", "YouTube",
}

// storeNames interns observations in the default catalogue namespace,
// exactly what a live classifier would assign.
var storeNames = services.DefaultNames()

func dayConfig(day int) rollup.Config {
	return rollup.Config{
		Start:    timeseries.StudyStart.Add(time.Duration(day*dayBins) * 15 * time.Minute),
		Step:     15 * time.Minute,
		Bins:     dayBins,
		Geo:      geo.SmallConfig(),
		Lateness: -1,
	}
}

// dayPartial builds one day's pseudo-random partial. Each service is
// biased toward its own commune neighborhood so bitmap pruning has
// real structure to exploit.
func dayPartial(t testing.TB, day int) *rollup.Partial {
	t.Helper()
	rng := rand.New(rand.NewPCG(uint64(day)+1, 0xca7a))
	cfg := dayConfig(day)
	b := rollup.NewBuilder(cfg)
	for bin := 0; bin < cfg.Bins; bin++ {
		at := cfg.Start.Add(time.Duration(bin)*cfg.Step + time.Minute)
		for ev := 0; ev < 6; ev++ {
			svc := rng.IntN(len(storeServices))
			id, ok := storeNames.Lookup(storeServices[svc])
			if !ok {
				t.Fatalf("service %q is not in the default catalogue", storeServices[svc])
			}
			b.Observe(probe.Observation{
				At:      at,
				Dir:     services.Direction(rng.IntN(2)),
				Svc:     id,
				Service: storeServices[svc],
				Commune: svc*4 + rng.IntN(4),
				Bytes:   float64(1 + rng.IntN(1500)),
			})
		}
	}
	p := b.Seal()
	p.TotalBytes = p.CellTotals()
	p.ClassifiedBytes = p.TotalBytes
	return p
}

// buildStore writes the 8-day store into dir and returns the member
// paths plus the in-memory merge of everything (the full-scan
// reference input).
func buildStore(t testing.TB, dir string) ([]string, *rollup.Partial) {
	t.Helper()
	paths := make([]string, storeDays)
	var merged *rollup.Partial
	for day := 0; day < storeDays; day++ {
		p := dayPartial(t, day)
		paths[day] = filepath.Join(dir, fmt.Sprintf("day-%d.roll", day))
		if err := rollup.WriteFile(paths[day], p); err != nil {
			t.Fatal(err)
		}
		// Reference fold from the decoded files, exactly as Query folds.
		q, err := rollup.ReadFile(paths[day])
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = q
		} else if err := merged.Merge(q); err != nil {
			t.Fatal(err)
		}
	}
	return paths, merged
}

// TestQueryEquivalence is the acceptance gate: for a sweep of windows
// and filters, the index-pruned catalog query deep-equals the
// full-scan reference (merge everything, then ViewSpec.Apply), and a
// genuinely selective query decodes a small fraction of the store.
func TestQueryEquivalence(t *testing.T) {
	dir := t.TempDir()
	paths, merged := buildStore(t, dir)
	c, err := Open(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, want := c.Config().Bins, storeDays*dayBins; got != want {
		t.Fatalf("union grid has %d bins, want %d", got, want)
	}

	specs := []rollup.ViewSpec{
		{},                                   // everything
		{From: 0, To: dayBins},               // first day only
		{From: 3 * dayBins, To: 5 * dayBins}, // two mid-store days
		{From: 10, To: 14, Services: []string{"Netflix"}},
		{From: 0, To: storeDays * dayBins, Services: []string{"Facebook", "YouTube"}},
		{From: dayBins, To: 3 * dayBins, Communes: []int{0, 1, 2, 3}},
		{From: 0, To: 2 * dayBins, Services: []string{"WhatsApp"}, Communes: []int{24, 25}},
		{Services: []string{"no such service"}},
		{From: 6 * dayBins, To: 7 * dayBins, Communes: []int{999}},
	}
	for i, spec := range specs {
		got, st, err := c.Query(spec)
		if err != nil {
			t.Fatalf("spec %d (%s): %v", i, spec, err)
		}
		want, err := spec.Apply(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %d (%s): catalog query diverges from the full-scan reference\n got %+v\nwant %+v",
				i, spec, got, want)
		}
		// And re-encoded, the two are the same bytes.
		var a, b bytes.Buffer
		if err := rollup.WriteV2(&a, got); err != nil {
			t.Fatal(err)
		}
		if err := rollup.WriteV2(&b, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("spec %d: query snapshot bytes differ from the reference view", i)
		}
		if st.EpochsTotal != c.EpochCount() {
			t.Fatalf("spec %d: stats saw %d total epochs, store holds %d", i, st.EpochsTotal, c.EpochCount())
		}
	}

	// The pruning claim: a one-day window touches one file's epochs.
	_, st, err := c.Query(rollup.ViewSpec{From: 2 * dayBins, To: 3 * dayBins})
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesPruned != storeDays-1 {
		t.Fatalf("one-day window pruned %d files, want %d", st.FilesPruned, storeDays-1)
	}
	if st.EpochsDecoded > dayBins || st.EpochsDecoded*4 > st.EpochsTotal {
		t.Fatalf("one-day window decoded %d of %d epochs — the index pruned nothing", st.EpochsDecoded, st.EpochsTotal)
	}
	// Service bitmaps prune within files too: one service lives in a
	// 4-commune neighborhood, so commune-filtered decodes drop further.
	_, st2, err := c.Query(rollup.ViewSpec{Communes: []int{999}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.EpochsDecoded != 0 {
		t.Fatalf("absent commune decoded %d epochs, want 0", st2.EpochsDecoded)
	}
}

// TestOpenDirectory: a directory path contributes its *.roll members.
func TestOpenDirectory(t *testing.T) {
	dir := t.TempDir()
	paths, merged := buildStore(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Paths(); len(got) != len(paths) {
		t.Fatalf("directory open found %d members, want %d", len(got), len(paths))
	}
	got, _, err := c.Query(rollup.ViewSpec{From: 0, To: dayBins})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rollup.ViewSpec{From: 0, To: dayBins}.Apply(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("directory-opened catalog diverges from the reference")
	}
}

// TestV1Fallback: a store mixing v1 (no footer index) and v2 members
// answers exactly, and a narrow window prunes inside the v1 member by
// the index its open built.
func TestV1Fallback(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	var merged *rollup.Partial
	for day := 0; day < 3; day++ {
		p := dayPartial(t, day)
		path := filepath.Join(dir, fmt.Sprintf("day-%d.roll", day))
		if day == 1 { // middle member stays v1
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := rollup.Write(f, p); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		} else if err := rollup.WriteFile(path, p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		q, err := rollup.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = q
		} else if err := merged.Merge(q); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := rollup.ViewSpec{From: 0, To: 3 * dayBins, Services: []string{"Netflix"}}
	got, _, err := c.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Apply(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mixed v1/v2 store diverges from the reference")
	}
	v1, err := rollup.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	narrow := rollup.ViewSpec{From: dayBins + 2, To: dayBins + 5}
	got, st, err := c.Query(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if st.EpochsDecoded >= len(v1.Epochs) {
		t.Fatalf("window %s decoded %d epochs, the v1 member alone holds %d", narrow, st.EpochsDecoded, len(v1.Epochs))
	}
	if want, err = narrow.Apply(merged); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window %s over the mixed store diverges from the reference", narrow)
	}
}

// TestQueryConcurrent: many goroutines query one catalog at once; the
// race detector plus the per-query equivalence check cover it.
func TestQueryConcurrent(t *testing.T) {
	dir := t.TempDir()
	paths, merged := buildStore(t, dir)
	c, err := Open(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	specs := []rollup.ViewSpec{
		{From: 0, To: dayBins},
		{From: dayBins, To: 4 * dayBins, Services: []string{"YouTube"}},
		{Communes: []int{8, 9, 10}},
		{},
	}
	errs := make(chan error, 4*len(specs))
	for r := 0; r < 4; r++ {
		for _, spec := range specs {
			go func(spec rollup.ViewSpec) {
				got, _, err := c.Query(spec)
				if err != nil {
					errs <- err
					return
				}
				want, err := spec.Apply(merged)
				if err == nil && !reflect.DeepEqual(got, want) {
					err = fmt.Errorf("concurrent query %s diverged", spec)
				}
				errs <- err
			}(spec)
		}
	}
	for i := 0; i < 4*len(specs); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRejectsMismatchedGrids: members whose grids cannot union
// fail at Open, not at query time.
func TestOpenRejectsMismatchedGrids(t *testing.T) {
	dir := t.TempDir()
	p0 := dayPartial(t, 0)
	odd := dayPartial(t, 1)
	odd.Cfg.Step = 10 * time.Minute
	a, b := filepath.Join(dir, "a.roll"), filepath.Join(dir, "b.roll")
	if err := rollup.WriteFile(a, p0); err != nil {
		t.Fatal(err)
	}
	if err := rollup.WriteFile(b, odd); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(a, b); err == nil {
		t.Fatal("mismatched steps opened cleanly")
	}
}

// TestQueryWindowBounds: out-of-grid windows error like Window does.
func TestQueryWindowBounds(t *testing.T) {
	dir := t.TempDir()
	paths, _ := buildStore(t, dir)
	c, err := Open(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, spec := range []rollup.ViewSpec{
		{From: -1, To: 4},
		{From: 4, To: 4},
		{From: 0, To: storeDays*dayBins + 1},
	} {
		if _, _, err := c.Query(spec); err == nil {
			t.Fatalf("window [%d, %d) accepted", spec.From, spec.To)
		}
	}
}

// BenchmarkCatalogQuery pins the point of the index: a selective query
// (one day, one service) against a full-store scan over the same
// 8-file store.
func BenchmarkCatalogQuery(b *testing.B) {
	dir := b.TempDir()
	paths, _ := buildStore(b, dir)
	c, err := Open(paths...)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	selective := rollup.ViewSpec{From: 2 * dayBins, To: 3 * dayBins, Services: []string{"Netflix"}}
	full := rollup.ViewSpec{}
	b.Run("Selective", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Query(selective); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullScan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Query(full); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestV1GoldenThroughCatalog opens the pinned v1 golden snapshot (the
// seed-era format, no footer index) through the catalog: old stores
// must stay fully readable, prune by the index the open built, and
// equal the full-scan reference.
func TestV1GoldenThroughCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "rollup", "testdata", "snapshot_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.roll")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref, err := rollup.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []rollup.ViewSpec{
		{},
		{From: 0, To: 1},
		{Services: []string{"YouTube"}},
	} {
		got, st, err := c.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.To == 1 && st.EpochsDecoded >= st.EpochsTotal {
			t.Fatalf("window %s decoded %d of the v1 golden's %d epochs", spec.String(), st.EpochsDecoded, st.EpochsTotal)
		}
		want, err := spec.Apply(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("catalog query %q over the v1 golden diverges from the full scan", spec.String())
		}
	}
}
