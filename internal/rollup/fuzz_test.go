package rollup

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/capture"
	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/probe"
	"repro/internal/services"
)

// probesimSnapshot produces real snapshot bytes the way cmd/probesim
// does: simulate, stream through the sharded pipeline with collectors
// attached, seal, encode.
func probesimSnapshot(tb testing.TB, sessions, shards int) []byte {
	tb.Helper()
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = sessions
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	pcfg := probe.ConfigFor(country)
	pl := probe.NewPipeline(pcfg, sim.Cells, dpi.NewClassifier(catalog), shards)
	col := NewCollector(ConfigFrom(pcfg, geo.SmallConfig()), pl.Shards())
	rep, err := pl.WithSinks(col.Sink).Run(sim.Stream())
	if err != nil {
		tb.Fatal(err)
	}
	part, err := col.Finish(rep)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, part); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotReader feeds arbitrary bytes to the snapshot decoder,
// seeded with a real probesim snapshot and the handcrafted golden in
// both versions. The decoder must never panic or over-allocate;
// whatever it does accept must re-encode and re-decode to the same
// partial (the format is canonical, so decode∘encode is the identity
// on valid snapshots), and must open as a file with OpenIndexed, one
// entry per epoch, each seek-decoding to the epoch the sequential read
// yields — the v1 index built at open and the v2 footer alike.
func FuzzSnapshotReader(f *testing.F) {
	f.Add(probesimSnapshot(f, 60, 2))
	var golden bytes.Buffer
	if err := Write(&golden, goldenPartial()); err != nil {
		f.Fatal(err)
	}
	full := golden.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])    // truncated
	f.Add([]byte{})              // empty
	f.Add([]byte("GTPROLL\x01")) // header only
	flip := append([]byte(nil), full...)
	flip[len(flip)/3] ^= 0x10 // bit-flipped
	f.Add(flip)
	var goldenV2 bytes.Buffer
	if err := WriteV2(&goldenV2, goldenPartial()); err != nil {
		f.Fatal(err)
	}
	f.Add(goldenV2.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only other acceptable outcome
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatalf("accepted partial does not re-encode: %v", err)
		}
		q, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatal("decode∘encode is not the identity on an accepted snapshot")
		}
		x, err := OpenIndexed(writeTemp(t, data))
		if err != nil {
			t.Fatalf("snapshot Read accepts does not open indexed: %v", err)
		}
		defer x.Close()
		if len(x.Entries()) != x.EpochCount() || x.EpochCount() != len(p.Epochs) {
			t.Fatalf("v%d index has %d entries, EpochCount %d, the sequential read %d epochs",
				x.Version(), len(x.Entries()), x.EpochCount(), len(p.Epochs))
		}
		for i := range x.Entries() {
			ep, err := x.DecodeEntry(i, nil)
			if err != nil {
				t.Fatalf("v%d entry %d: %v", x.Version(), i, err)
			}
			if !reflect.DeepEqual(ep, p.Epochs[i]) {
				t.Fatalf("v%d entry %d seek-decoded %+v, the sequential read %+v", x.Version(), i, ep, p.Epochs[i])
			}
		}
	})
}

// FuzzSnapshotMerge drives the merge algebra with pseudo-random
// partial pairs — disjoint and overlapping grids, distinct service
// subsets, overflow epochs — and checks the invariants every merge
// must keep: commutativity (after normalization the two orders are
// structurally identical), exact volume conservation, and the
// streaming file merger agreeing byte for byte with the in-memory
// fold.
func FuzzSnapshotMerge(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(0), uint8(8), uint8(8), uint8(8))
	f.Add(uint64(3), uint64(4), uint8(0), uint8(0), uint8(4), uint8(4))   // same grid
	f.Add(uint64(5), uint64(6), uint8(0), uint8(4), uint8(8), uint8(16))  // overlap
	f.Add(uint64(7), uint64(8), uint8(0), uint8(200), uint8(8), uint8(2)) // far gap
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, startA, startB, binsA, binsB uint8) {
		if binsA == 0 || binsB == 0 {
			return
		}
		mk := func() (*Partial, *Partial) {
			return randomPartial(seedA, int(startA), int(binsA)),
				randomPartial(seedB, int(startB), int(binsB))
		}
		a1, b1 := mk()
		wantTotals := a1.CellTotals()
		for d, v := range b1.CellTotals() {
			wantTotals[d] += v
		}
		if err := a1.Merge(b1); err != nil {
			t.Fatalf("merge of aligned grids errored: %v", err)
		}
		a2, b2 := mk()
		if err := b2.Merge(a2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a1, b2) {
			t.Fatalf("merge not commutative:\n a·b %+v\n b·a %+v", a1, b2)
		}
		if got := a1.CellTotals(); got != wantTotals {
			t.Fatalf("merge lost volume: %v, want %v", got, wantTotals)
		}
		// The streaming merger must produce the same bytes.
		a3, b3 := mk()
		dir := t.TempDir()
		paths := writeSnapshots(t, dir, a3, b3)
		dst := dir + "/m.roll"
		if err := MergeFiles(dst, paths...); err != nil {
			t.Fatal(err)
		}
		ra, err := ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ReadFile(paths[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := ra.Merge(rb); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := WriteV2(&want, ra); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatal("MergeFiles bytes differ from the in-memory merge")
		}
	})
}

// FuzzFooterIndex mutates a valid v2 snapshot — one byte XORed, a tail
// truncation, or both — and holds the seeking reader to its safety
// contract: it may reject the mutant, and whatever it does open must
// seek-decode every entry to either an error or the original epoch.
// An index corruption must degrade (error, or v1-style rejection),
// never mis-answer.
func FuzzFooterIndex(f *testing.F) {
	var golden bytes.Buffer
	if err := WriteV2(&golden, goldenPartial()); err != nil {
		f.Fatal(err)
	}
	full := golden.Bytes()
	n := len(full)
	f.Add(uint16(7), uint8(3), uint16(0))        // version byte
	f.Add(uint16(n-1), uint8(0x40), uint16(0))   // footer offset
	f.Add(uint16(n-13), uint8(0x01), uint16(0))  // footer crc
	f.Add(uint16(n/2), uint8(0x80), uint16(0))   // payload or footer body
	f.Add(uint16(0), uint8(0), uint16(1))        // lost trailer byte
	f.Add(uint16(0), uint8(0), uint16(12))       // whole trailer gone
	f.Add(uint16(n/3), uint8(0x10), uint16(n/4)) // flip + truncate
	orig, err := Read(bytes.NewReader(full))
	if err != nil {
		f.Fatal(err)
	}
	byBin := map[int][]Cell{}
	for _, ep := range orig.Epochs {
		byBin[ep.Bin] = ep.Cells
	}
	f.Fuzz(func(t *testing.T, pos uint16, val uint8, cut uint16) {
		mut := append([]byte(nil), full...)
		if int(pos) < len(mut) {
			mut[pos] ^= val
		}
		if int(cut) < len(mut) {
			mut = mut[:len(mut)-int(cut)]
		}
		if bytes.Equal(mut, full[:len(mut)]) && len(mut) < len(full) {
			// Pure truncation: must not open at all (covered above, but
			// the guard below would wrongly demand decodable entries).
			if x, err := OpenIndexed(writeTemp(t, mut)); err == nil {
				x.Close()
				t.Fatal("truncated v2 snapshot opened cleanly")
			}
			return
		}
		x, err := OpenIndexed(writeTemp(t, mut))
		if err != nil {
			return // rejected: acceptable
		}
		defer x.Close()
		for i := range x.Entries() {
			ep, err := x.DecodeEntry(i, nil)
			if err != nil {
				continue // degraded: acceptable
			}
			want, ok := byBin[ep.Bin]
			if !ok || !reflect.DeepEqual(ep.Cells, want) {
				t.Fatalf("mutant (pos %d val %#x cut %d) seek-decoded a wrong epoch %d", pos, val, cut, ep.Bin)
			}
		}
	})
}

// FuzzTraceVsSnapshotLimits cross-checks the shared limit helpers: any
// uvarint the snapshot reader accepts for a count must be within its
// declared cap.
func FuzzTraceVsSnapshotLimits(f *testing.F) {
	f.Add(uint64(0), uint64(100))
	f.Add(uint64(101), uint64(100))
	f.Fuzz(func(t *testing.T, v, max uint64) {
		var buf bytes.Buffer
		if err := capture.WriteUvarint(&buf, v); err != nil {
			t.Fatal(err)
		}
		got, err := capture.ReadUvarint(bytes.NewReader(buf.Bytes()), max, "fuzz value")
		if v > max {
			if err == nil {
				t.Fatalf("value %d over limit %d accepted", v, max)
			}
			return
		}
		if err != nil || got != v {
			t.Fatalf("round trip of %d under limit %d: got %d, err %v", v, max, got, err)
		}
	})
}
