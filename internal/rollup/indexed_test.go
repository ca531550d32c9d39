package rollup

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeTemp lands snapshot bytes in a scratch file for the seeking
// reader, which only opens paths.
func writeTemp(tb testing.TB, data []byte) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "x.roll")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

func encodeV2(tb testing.TB, p *Partial) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteV2(&buf, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotV2Golden pins the v2 on-disk format the way the v1
// golden pins v1: same payload encoding, plus the footer index.
func TestSnapshotV2Golden(t *testing.T) {
	got := hex.EncodeToString(encodeV2(t, goldenPartial()))
	path := filepath.Join("testdata", "snapshot_v2.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(want)) != got {
		t.Fatalf("snapshot bytes diverge from the v2 golden (format drift needs a version bump)\n got %s\nwant %s",
			got, strings.TrimSpace(string(want)))
	}
}

// TestSnapshotV2PayloadIdentity checks the compatibility core of the
// format: behind the version byte, a v2 file is its v1 encoding
// followed by the index — v1[8:] appears verbatim at v2[8:].
func TestSnapshotV2PayloadIdentity(t *testing.T) {
	p := goldenPartial()
	var v1 bytes.Buffer
	if err := Write(&v1, p); err != nil {
		t.Fatal(err)
	}
	v2 := encodeV2(t, p)
	if v2[7] != 2 || v1.Bytes()[7] != 1 {
		t.Fatalf("version bytes are %d and %d, want 2 and 1", v2[7], v1.Bytes()[7])
	}
	if !bytes.Equal(v1.Bytes()[8:], v2[8:v1.Len()]) {
		t.Fatal("v2 payload and checksum are not byte-identical to the v1 encoding")
	}
	got, err := Read(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	p.Cfg.Lateness = 0
	p.LateFrames = 0
	if !reflect.DeepEqual(got, p) {
		t.Fatal("v2 round trip mutated the partial")
	}
}

// TestUpgradeFile upgrades a v1 file and checks the contract: payload
// bytes survive verbatim, both files decode to the same partial, the
// output carries a usable index, and re-upgrading a v2 file reproduces
// it bit for bit.
func TestUpgradeFile(t *testing.T) {
	p := goldenPartial()
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "v1.roll"), filepath.Join(dir, "v2.roll")
	var v1 bytes.Buffer
	if err := Write(&v1, p); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := UpgradeFile(src, dst); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1.Bytes()[8:], v2[8:v1.Len()]) {
		t.Fatal("upgrade rewrote payload bytes")
	}
	if !bytes.Equal(v2, encodeV2(t, mustRead(t, v1.Bytes()))) {
		t.Fatal("upgrade differs from encoding the decoded partial as v2")
	}
	a, err := ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("upgraded snapshot decodes differently from its source")
	}
	x, err := OpenIndexed(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if x.Version() != SnapshotV2 || len(x.Entries()) != len(a.Epochs) {
		t.Fatalf("upgraded snapshot indexes %d entries, want %d", len(x.Entries()), len(a.Epochs))
	}

	// Idempotence: a v2 source re-indexes to the identical file.
	again := filepath.Join(dir, "again.roll")
	if err := UpgradeFile(dst, again); err != nil {
		t.Fatal(err)
	}
	v2b, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2, v2b) {
		t.Fatal("upgrading a v2 snapshot did not reproduce it")
	}

	// Self-aliasing would truncate the source; it must refuse.
	if err := UpgradeFile(dst, dst); err == nil {
		t.Fatal("upgrade onto itself did not refuse")
	}
}

func mustRead(t *testing.T, data []byte) *Partial {
	t.Helper()
	p, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOpenIndexedSeeks checks that DecodeEntry reproduces every epoch
// the sequential decoder yields, in any order, with a shared buffer.
func TestOpenIndexedSeeks(t *testing.T) {
	p := goldenPartial()
	want := mustRead(t, encodeV2(t, p))
	x, err := OpenIndexed(writeTemp(t, encodeV2(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	byBin := map[int][]Cell{}
	for _, ep := range want.Epochs {
		byBin[ep.Bin] = ep.Cells
	}
	var buf []Cell
	for i := len(x.Entries()) - 1; i >= 0; i-- { // reverse: order-free access
		ep, err := x.DecodeEntry(i, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ep.Cells, byBin[ep.Bin]) {
			t.Fatalf("seek-decoded epoch %d differs from the sequential decode", ep.Bin)
		}
		buf = ep.Cells[:0]
	}
}

// TestOpenIndexedV1Fallback opens a v1 file: it has no footer, so the
// open decodes it once and indexes it from that decode — one entry per
// epoch record — and every entry seek-decodes to the epoch the
// sequential read yields.
func TestOpenIndexedV1Fallback(t *testing.T) {
	p := goldenPartial()
	var v1 bytes.Buffer
	if err := Write(&v1, p); err != nil {
		t.Fatal(err)
	}
	want := mustRead(t, v1.Bytes())
	x, err := OpenIndexed(writeTemp(t, v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if x.Version() != SnapshotV1 || len(x.Entries()) != x.EpochCount() || x.EpochCount() != len(want.Epochs) {
		t.Fatalf("v1 snapshot opened as version %d with %d entries for %d epochs (%d declared)",
			x.Version(), len(x.Entries()), len(want.Epochs), x.EpochCount())
	}
	var buf []Cell
	for i := range x.Entries() {
		ep, err := x.DecodeEntry(i, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ep, want.Epochs[i]) {
			t.Fatalf("v1 entry %d seek-decoded %+v, the sequential read %+v", i, ep, want.Epochs[i])
		}
		buf = ep.Cells[:0]
	}
}

// TestSnapshotV2Truncation cuts a v2 snapshot at every byte boundary:
// both the sequential reader and the seeking opener must error on
// every prefix — a missing index may never pass as an empty one.
func TestSnapshotV2Truncation(t *testing.T) {
	full := encodeV2(t, goldenPartial())
	for n := 0; n < len(full); n++ {
		if _, err := Read(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("sequential read of %d/%d bytes decoded cleanly", n, len(full))
		}
		if x, err := OpenIndexed(writeTemp(t, full[:n])); err == nil {
			x.Close()
			t.Fatalf("indexed open of %d/%d bytes succeeded", n, len(full))
		}
	}
}

// TestSnapshotV2BitFlips flips each byte of a v2 snapshot once. The
// sequential reader must reject every mutant (payload CRC, footer CRC,
// or a structural guard). The seeking opener reads only the header and
// footer, so it may open a payload-corrupted file — but then every
// seek-decode must either error or reproduce the original epoch: the
// index never turns corruption into a wrong answer.
func TestSnapshotV2BitFlips(t *testing.T) {
	full := encodeV2(t, goldenPartial())
	orig := mustRead(t, full)
	byBin := map[int][]Cell{}
	for _, ep := range orig.Epochs {
		byBin[ep.Bin] = ep.Cells
	}
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d read cleanly", i)
		}
		x, err := OpenIndexed(writeTemp(t, mut))
		if err != nil {
			continue
		}
		for e := range x.Entries() {
			ep, err := x.DecodeEntry(e, nil)
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(ep.Cells, byBin[ep.Bin]) {
				t.Fatalf("bit flip at byte %d seek-decoded a wrong epoch %d", i, ep.Bin)
			}
		}
		x.Close()
	}
}

// TestOpenIndexedRejectsUncoveredBytes inserts junk between the header
// and the first epoch record of a v2 file and re-points a re-CRCed
// footer past it. Every offset still lands on a record whose CRC
// matches, but the junk is covered by no checksum: the sequential
// reader trips over it, and the seeking opener must refuse the file
// too rather than serve a store Read rejects.
func TestOpenIndexedRejectsUncoveredBytes(t *testing.T) {
	withEpochs := goldenPartial()
	noEpochs := goldenPartial()
	noEpochs.Epochs = nil
	for _, p := range []*Partial{withEpochs, noEpochs} {
		full := encodeV2(t, p)
		x, err := OpenIndexed(writeTemp(t, full))
		if err != nil {
			t.Fatal(err)
		}
		entries := append([]IndexEntry(nil), x.Entries()...)
		start, footerOff := x.payloadEnd, x.payloadEnd+4 // no epochs: the header ends the payload
		if len(entries) > 0 {
			start = entries[0].Offset
		}
		x.Close()
		const pad = 7
		for i := range entries {
			entries[i].Offset += pad
		}
		mut := append([]byte(nil), full[:start]...)
		mut = append(mut, bytes.Repeat([]byte{0xff}, pad)...)
		mut = append(mut, full[start:footerOff]...)
		foot := appendFooter(nil, binary.BigEndian.Uint32(full[footerOff+4:]), entries)
		mut = append(mut, foot...)
		mut = binary.BigEndian.AppendUint32(mut, crc32.ChecksumIEEE(foot))
		mut = binary.BigEndian.AppendUint64(mut, uint64(footerOff+pad))
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("%d epochs: sequential read accepted uncovered bytes", len(p.Epochs))
		}
		if x, err := OpenIndexed(writeTemp(t, mut)); err == nil {
			x.Close()
			t.Fatalf("%d epochs: indexed open accepted %d bytes no checksum covers", len(p.Epochs), pad)
		}
	}
}
