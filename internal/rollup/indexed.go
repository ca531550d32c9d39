package rollup

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// IndexedSnapshot is a random-access reader over one snapshot file of
// either version: it holds an index entry per epoch record and can
// decode any single record by offset, verifying that record's own CRC,
// without touching the rest of the payload. A v2 file's index is its
// footer: Open decodes the header sequentially, then seeks to the
// footer — verifying the footer CRC and the header CRC the footer
// carries. A v1 file has no footer, so Open decodes it once end to end
// (CRC-verified) and indexes it from what that decode noted: the same
// entries minus the presence bitmaps, which makes pruning over it
// range-only (HasService/HasCommune test the id span).
//
// All reads after Open go through ReadAt, so one IndexedSnapshot
// serves concurrent queries without coordination; the returned header
// and entries are shared and must be treated as read-only.
type IndexedSnapshot struct {
	f          *os.File
	path       string
	hdr        *Partial
	version    int
	entries    []IndexEntry
	payloadEnd int64
}

// OpenIndexed opens path for random-access reads.
func OpenIndexed(path string) (*IndexedSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	x, err := openIndexed(f, path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return x, nil
}

func openIndexed(f *os.File, path string) (*IndexedSnapshot, error) {
	d, err := NewDecoder(f)
	if err != nil {
		return nil, err
	}
	x := &IndexedSnapshot{f: f, path: path, hdr: d.Header(), version: d.Version()}
	if x.version == SnapshotV1 {
		d.notes = true
		var buf []Cell
		for {
			ep, ok, err := d.Next(buf)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			buf = ep.Cells
		}
		// cr counted the payload; finish verified its CRC and EOF behind it.
		x.entries, x.payloadEnd = d.Index(), snapshotMagicLen+d.cr.n
		return x, nil
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	// Smallest possible tail behind the epochs: payload CRC, footer
	// magic + header CRC + entry count, footer CRC, footer offset.
	if size < d.epochsStart+4+9+snapshotTrailerLen {
		return nil, fmt.Errorf("rollup: snapshot too short for a v2 index")
	}
	var tail [snapshotTrailerLen]byte
	if _, err := x.f.ReadAt(tail[:], size-snapshotTrailerLen); err != nil {
		return nil, fmt.Errorf("rollup: reading snapshot index trailer: %w", err)
	}
	footerOff := int64(binary.BigEndian.Uint64(tail[4:]))
	if footerOff < d.epochsStart+4 || footerOff > size-snapshotTrailerLen-9 {
		return nil, fmt.Errorf("rollup: snapshot index offset %d outside the file", footerOff)
	}
	foot := make([]byte, size-snapshotTrailerLen-footerOff)
	if _, err := x.f.ReadAt(foot, footerOff); err != nil {
		return nil, fmt.Errorf("rollup: reading snapshot index: %w", err)
	}
	if got := binary.BigEndian.Uint32(tail[:4]); got != crc32.ChecksumIEEE(foot) {
		return nil, fmt.Errorf("rollup: snapshot index checksum mismatch (stored %08x, computed %08x)", got, crc32.ChecksumIEEE(foot))
	}
	x.payloadEnd = footerOff - 4
	fc := &crcReader{br: bufio.NewReader(bytes.NewReader(foot))}
	headerCRC, entries, err := parseFooter(fc, x.hdr.Cfg.Bins, len(x.hdr.Services), d.EpochCount(), d.epochsStart, x.payloadEnd)
	if err != nil {
		return nil, err
	}
	if fc.n != int64(len(foot)) {
		return nil, fmt.Errorf("rollup: %d trailing bytes inside the snapshot index", int64(len(foot))-fc.n)
	}
	// The footer (itself CRC-verified) vouches for the header bytes the
	// sequential decode above consumed unverified.
	if headerCRC != d.headerCRC {
		return nil, fmt.Errorf("rollup: snapshot index header crc mismatch")
	}
	x.entries = entries
	return x, nil
}

// Header returns the snapshot's header partial (no epochs). Shared and
// read-only.
func (x *IndexedSnapshot) Header() *Partial { return x.hdr }

// Version returns the snapshot format version.
func (x *IndexedSnapshot) Version() int { return x.version }

// EpochCount returns the number of epoch records.
func (x *IndexedSnapshot) EpochCount() int { return len(x.entries) }

// Entries returns the index, one entry per epoch record in file order.
// Shared and read-only.
func (x *IndexedSnapshot) Entries() []IndexEntry { return x.entries }

// Path returns the file path the snapshot was opened from.
func (x *IndexedSnapshot) Path() string { return x.path }

// DecodeEntry seek-decodes epoch record i into buf (appending from
// buf[:0], like Decoder.Next). The record's bytes are verified against
// the entry's CRC, its bin and cell count against the entry's claims,
// its length against the index's offsets, and every decoded cell
// against the entry's presence maps — a v2 file whose index lies
// errors here, it never mis-answers a pruned query.
func (x *IndexedSnapshot) DecodeEntry(i int, buf []Cell) (Epoch, error) {
	en := &x.entries[i]
	end := x.payloadEnd
	if i+1 < len(x.entries) {
		end = x.entries[i+1].Offset
	}
	cr := &crcReader{br: bufio.NewReader(io.NewSectionReader(x.f, en.Offset, end-en.Offset))}
	rec, cells, err := decodeEpoch(cr, x.hdr.Cfg.Bins, len(x.hdr.Services), buf)
	if err != nil {
		return Epoch{}, fmt.Errorf("%s: epoch record at %d: %w", x.path, en.Offset, err)
	}
	if rec.Bin != en.Bin || rec.Cells != en.Cells || cr.n != end-en.Offset || cr.crc != en.CRC {
		return Epoch{}, fmt.Errorf("%s: epoch record at %d contradicts the snapshot index", x.path, en.Offset)
	}
	for _, c := range cells {
		if !en.HasService(c.Svc) || !en.HasCommune(uint32(c.Commune)) {
			return Epoch{}, fmt.Errorf("%s: epoch %d holds cells its index entry denies", x.path, rec.Bin)
		}
	}
	return Epoch{Bin: rec.Bin, Cells: cells}, nil
}

// Close releases the file handle. No reads may be in flight.
func (x *IndexedSnapshot) Close() error { return x.f.Close() }
