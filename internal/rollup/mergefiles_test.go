package rollup

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/services"
)

// randomPartial builds a deterministic pseudo-random partial: a grid
// offset from the study epoch, a service subset, and cells spread over
// bins and communes. Values are integers, like real packet sums.
func randomPartial(seed uint64, startBin, bins int) *Partial {
	rng := rand.New(rand.NewPCG(seed, 0xa16b))
	cfg := tinyConfig()
	cfg.Start = cfg.Start.Add(time.Duration(startBin) * cfg.Step)
	cfg.Bins = bins
	svcs := []string{"Facebook", "YouTube", "Netflix", "iCloud", "WhatsApp", "Instagram"}
	b := NewBuilder(cfg)
	events := 40 + rng.IntN(120)
	for i := 0; i < events; i++ {
		bin := rng.IntN(bins + 1) // last value: overflow (past the grid)
		at := cfg.Start.Add(time.Duration(bin)*cfg.Step + time.Minute)
		b.Observe(obs(at, services.Direction(rng.IntN(2)), svcs[rng.IntN(len(svcs))],
			rng.IntN(30), float64(1+rng.IntN(1500))))
	}
	p := b.Seal()
	p.TotalBytes = p.CellTotals()
	p.ClassifiedBytes = p.TotalBytes
	p.Counters = Counters{UserPlanePackets: events}
	return p
}

// writeSnapshots persists partials to files in dir.
func writeSnapshots(t testing.TB, dir string, parts ...*Partial) []string {
	t.Helper()
	paths := make([]string, len(parts))
	for i, p := range parts {
		paths[i] = filepath.Join(dir, fmt.Sprintf("part-%d.roll", i))
		if err := WriteFile(paths[i], p); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestMergeFilesEquivalence pins the defining property of the
// streaming merger: its output bytes equal loading every source and
// folding them with Partial.Merge — across adjacent, gapped,
// overlapping and identical grids with distinct service subsets.
func TestMergeFilesEquivalence(t *testing.T) {
	cases := [][][2]int{ // {startBin, bins} per source
		{{0, 8}, {8, 8}},           // adjacent days
		{{0, 8}, {16, 8}},          // gap
		{{0, 8}, {4, 8}},           // overlap
		{{0, 8}, {0, 8}},           // identical grid (region/shard union)
		{{0, 8}, {8, 4}, {12, 16}}, // 3-way mixed
	}
	for ci, grids := range cases {
		parts := make([]*Partial, len(grids))
		for i, g := range grids {
			parts[i] = randomPartial(uint64(ci*10+i+1), g[0], g[1])
		}
		dir := t.TempDir()
		paths := writeSnapshots(t, dir, parts...)
		dst := filepath.Join(dir, "merged.roll")
		if err := MergeFiles(dst, paths...); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		// In-memory reference: decode fresh copies and Merge-fold.
		ref, err := ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths[1:] {
			next, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Merge(next); err != nil {
				t.Fatalf("case %d: %v", ci, err)
			}
		}
		var want bytes.Buffer
		if err := WriteV2(&want, ref); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("case %d: streaming merge bytes differ from in-memory Merge", ci)
		}
	}
}

// TestMergeFilesSingleSource: a 1-way merge is a verified canonical
// re-encode, byte-identical to its input.
func TestMergeFilesSingleSource(t *testing.T) {
	dir := t.TempDir()
	paths := writeSnapshots(t, dir, randomPartial(3, 0, 8))
	dst := filepath.Join(dir, "copy.roll")
	if err := MergeFiles(dst, paths[0]); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(dst)
	want, _ := os.ReadFile(paths[0])
	if !bytes.Equal(got, want) {
		t.Fatal("single-source merge is not the identity")
	}
}

// TestMergeFilesRejectsAliases pins the file-level self-merge guards:
// a repeated source double-counts, a destination aliasing a source
// truncates its own input.
func TestMergeFilesRejectsAliases(t *testing.T) {
	dir := t.TempDir()
	paths := writeSnapshots(t, dir, randomPartial(4, 0, 8), randomPartial(5, 8, 8))
	if err := MergeFiles(filepath.Join(dir, "out.roll"), paths[0], paths[0]); err == nil {
		t.Fatal("repeated source accepted")
	}
	if err := MergeFiles(paths[1], paths[0], paths[1]); err == nil {
		t.Fatal("destination aliasing a source accepted")
	}
	if err := MergeFiles(filepath.Join(dir, "out.roll")); err == nil {
		t.Fatal("zero sources accepted")
	}
	// The originals must have survived the rejected merges.
	for _, p := range paths {
		if _, err := ReadFile(p); err != nil {
			t.Fatalf("rejected merge corrupted %s: %v", p, err)
		}
	}
}

// TestMergeFilesServiceCap: the union service table guard fires at the
// file level too.
func TestMergeFilesServiceCap(t *testing.T) {
	mk := func(prefix string) *Partial {
		p := &Partial{Cfg: tinyConfig()}
		for i := 0; i < 40_000; i++ {
			p.Services = append(p.Services, fmt.Sprintf("%s-%06d", prefix, i))
		}
		p.Epochs = []Epoch{{Bin: 0, Cells: []Cell{{Svc: 0, Commune: 1, Bytes: 1}}}}
		p.TotalBytes = p.CellTotals()
		p.ClassifiedBytes = p.TotalBytes
		return p
	}
	dir := t.TempDir()
	paths := writeSnapshots(t, dir, mk("alpha"), mk("beta"))
	if err := MergeFiles(filepath.Join(dir, "out.roll"), paths...); err == nil {
		t.Fatal("union past the services.ID namespace accepted")
	}
}

// epochHeavyPartial builds a partial with many epochs of few cells —
// the shape that separates streaming (allocations independent of the
// epoch count) from materializing (allocations linear in it).
func epochHeavyPartial(epochs int) *Partial {
	cfg := tinyConfig()
	cfg.Bins = epochs
	cfg.Lateness = -1
	b := NewBuilder(cfg)
	for bin := 0; bin < epochs; bin++ {
		at := cfg.Start.Add(time.Duration(bin)*cfg.Step + time.Minute)
		for c := 0; c < 4; c++ {
			b.Observe(obs(at, services.DL, "Facebook", c, float64(1+bin)))
		}
	}
	p := b.Seal()
	p.TotalBytes = p.CellTotals()
	p.ClassifiedBytes = p.TotalBytes
	return p
}

// TestMergeFilesMemoryBound is the acceptance guard for the streaming
// claim: merging snapshots 16× longer must not allocate meaningfully
// more, because every per-epoch buffer is reused — the merger's live
// state is one epoch of cells per source, whatever the file length.
func TestMergeFilesMemoryBound(t *testing.T) {
	dir := t.TempDir()
	merge := func(epochs int) float64 {
		small := writeSnapshots(t, t.TempDir(), epochHeavyPartial(epochs), epochHeavyPartial(epochs))
		dst := filepath.Join(dir, fmt.Sprintf("out-%d.roll", epochs))
		return testing.AllocsPerRun(3, func() {
			if err := MergeFiles(dst, small...); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := merge(40)
	big := merge(640)
	// Identical code path, 16× the epochs: allow only constant-ish
	// slack (decoder/encoder setup, bin-list growth), not 16× growth.
	if big > base+160 {
		t.Fatalf("MergeFiles allocations scale with snapshot length: %d epochs -> %.0f allocs, %d epochs -> %.0f",
			40, base, 640, big)
	}
}

// writeV1 persists p in format v1 at path (no footer index).
func writeV1(t testing.TB, path string, p *Partial) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMergeFilesMixedVersions: v1 and v2 sources merge together, and
// the output equals the in-memory fold of their decoded partials.
func TestMergeFilesMixedVersions(t *testing.T) {
	dir := t.TempDir()
	parts := []*Partial{randomPartial(21, 0, 8), randomPartial(22, 4, 8), randomPartial(23, 12, 8)}
	paths := writeSnapshots(t, dir, parts[0], parts[2])
	paths = append(paths, filepath.Join(dir, "v1.roll"))
	writeV1(t, paths[2], parts[1])
	dst := filepath.Join(dir, "merged.roll")
	if err := MergeFiles(dst, paths...); err != nil {
		t.Fatal(err)
	}
	ref, err := ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths[1:] {
		next, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Merge(next); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if err := WriteV2(&want, ref); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(dst); !bytes.Equal(got, want.Bytes()) {
		t.Fatal("merge of v1 and v2 sources differs from the in-memory fold")
	}
}

// TestMergeFilesFailureLeavesNoOutput corrupts one epoch record of a
// source — the last mantissa byte of its last cell, so the record
// still decodes and only a checksum tells — and holds MergeFiles and
// UpgradeFile to it: an error, and no file at dst.
func TestMergeFilesFailureLeavesNoOutput(t *testing.T) {
	dir := t.TempDir()
	good := writeSnapshots(t, dir, randomPartial(31, 0, 8))[0]
	p := randomPartial(32, 8, 8)
	v2 := encodeV2(t, p)
	x, err := OpenIndexed(writeTemp(t, v2))
	if err != nil {
		t.Fatal(err)
	}
	mid := len(x.Entries()) / 2
	flip := x.Entries()[mid+1].Offset - 1
	x.Close()
	var v1 bytes.Buffer
	if err := Write(&v1, p); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"v1", v1.Bytes()}, {"v2", v2}} {
		bad := append([]byte(nil), tc.data...)
		bad[flip] ^= 1 // payloads match across versions: same record, same byte
		path := filepath.Join(dir, "bad-"+tc.name+".roll")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("%s: the corrupted source reads cleanly", tc.name)
		}
		dst := filepath.Join(dir, "out-"+tc.name+".roll")
		if err := MergeFiles(dst, good, path); err == nil {
			t.Errorf("%s: merge over a corrupted source succeeded", tc.name)
		}
		if _, err := os.Stat(dst); !os.IsNotExist(err) {
			t.Errorf("%s: failed merge left %s behind (stat: %v)", tc.name, dst, err)
		}
		if err := UpgradeFile(path, dst); err == nil {
			t.Errorf("%s: upgrade of a corrupted source succeeded", tc.name)
		}
		if _, err := os.Stat(dst); !os.IsNotExist(err) {
			t.Errorf("%s: failed upgrade left %s behind (stat: %v)", tc.name, dst, err)
		}
	}
}

// TestMergeFilesFailureKeepsPreviousOutput: dst already holds a valid
// snapshot, and a merge and an upgrade over a source whose middle
// record fails its CRC each error. dst must come out byte-identical,
// with no temp file left beside it.
func TestMergeFilesFailureKeepsPreviousOutput(t *testing.T) {
	dir := t.TempDir()
	paths := writeSnapshots(t, dir, randomPartial(41, 0, 8), randomPartial(42, 8, 8), randomPartial(43, 0, 16))
	good, bad, dst := paths[0], paths[1], paths[2]
	x, err := OpenIndexed(bad)
	if err != nil {
		t.Fatal(err)
	}
	flip := x.Entries()[len(x.Entries())/2+1].Offset - 1
	x.Close()
	data, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	data[flip] ^= 1
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"merge", func() error { return MergeFiles(dst, good, bad) }},
		{"upgrade", func() error { return UpgradeFile(bad, dst) }},
	} {
		name := tc.name
		if err := tc.run(); err == nil {
			t.Errorf("%s over a corrupted source succeeded", name)
		}
		if got, err := os.ReadFile(dst); err != nil || !bytes.Equal(got, prev) {
			t.Errorf("failed %s changed %s: %d bytes (err %v), was %d", name, dst, len(got), err, len(prev))
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
			t.Errorf("failed %s left %v behind", name, tmps)
		}
	}
}
