package rollup

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/capture"
)

// Snapshot v2 footer index. A v2 file carries the exact v1 payload and
// payload CRC, then a footer the sequential reader never needs but a
// seeking reader can use to decode only the epochs a query touches:
//
//	footer:
//	  magic      "GIDX"
//	  headerCRC  uint32 big-endian — the payload CRC as it stood at the
//	             end of the header (before the first epoch record), so a
//	             seeking reader that decodes only the header can still
//	             verify the bytes it consumed
//	  count      uvarint, must equal the header's declared epoch count
//	  entries    per epoch, in file order:
//	               bin+1     uvarint (0 = overflow)
//	               offDelta  uvarint (absolute record offset minus the
//	                         previous entry's; first is absolute)
//	               cells     uvarint
//	               crc       uint32 big-endian over the record's bytes
//	               if cells > 0:
//	                 svcMin  uvarint; svcSpan uvarint (max = min+span)
//	                 svcBits uvarint length (0 or span/8+1) + bytes
//	                 comMin  uvarint; comSpan uvarint
//	                 comBits uvarint length (0 or span/8+1) + bytes
//	footerCRC  uint32 big-endian over the footer bytes
//	footerOff  uint64 big-endian absolute offset of the footer magic
//
// The fixed-width trailer lets a reader seek to the footer without
// scanning; the footer CRC plus the per-entry record CRCs mean a
// corrupted index is detected, never silently trusted: a seek-decoded
// epoch is verified against its entry's CRC, and the sequential
// decoder cross-checks every entry against what it actually read.
//
// Presence bitmaps cover [min, max] with bit i meaning id min+i is
// present in the epoch. Wide spans fall back to range-only pruning
// rather than bloating the footer past maxIndexBitmapBytes per map.
const (
	// maxIndexBitmapBytes caps one presence bitmap. 8 KiB covers a
	// 64k-wide id span — the whole services.ID namespace — so in
	// practice only commune maps over sparse mega-grids degrade to
	// range-only pruning.
	maxIndexBitmapBytes = 1 << 13
	// indexArenaChunk is the allocation unit bitmap bytes are carved
	// from, keeping the encoder's per-epoch allocation count amortized
	// O(1) (the MergeFiles memory bound relies on it).
	indexArenaChunk = 1 << 16
	// minCellBytes is the smallest on-disk encoding of one cell: dir
	// byte + one-byte service varint + one-byte commune varint + float.
	minCellBytes = 11
)

var indexMagic = [4]byte{'G', 'I', 'D', 'X'}

// IndexEntry describes one epoch record of a snapshot: where it lives,
// what it covers, and the CRC that guards a seek-decode of it. A v2
// file's entries come from its footer, a v1 file's from the decode
// OpenIndexed runs at open.
type IndexEntry struct {
	Bin    int
	Offset int64 // absolute file offset of the epoch record
	Cells  int
	CRC    uint32 // CRC-32 (IEEE) of the record bytes

	// Id ranges and presence bitmaps, valid only when Cells > 0. A nil
	// bitmap means range-only pruning (the span was too wide to index,
	// or the entry indexes a v1 file).
	SvcMin, SvcMax uint32
	ComMin, ComMax uint32
	SvcBits        []byte
	ComBits        []byte
}

// HasService reports whether the entry's epoch may contain cells of
// service id — exact when the bitmap is present, a range test
// otherwise. False positives are possible (range-only), false
// negatives are not (for a footer that validates).
func (en *IndexEntry) HasService(id uint32) bool {
	return en.Cells > 0 && hasID(id, en.SvcMin, en.SvcMax, en.SvcBits)
}

// HasCommune is HasService for the commune axis.
func (en *IndexEntry) HasCommune(id uint32) bool {
	return en.Cells > 0 && hasID(id, en.ComMin, en.ComMax, en.ComBits)
}

func hasID(id, lo, hi uint32, bits []byte) bool {
	if id < lo || id > hi {
		return false
	}
	if bits == nil {
		return true
	}
	i := id - lo
	return bits[i>>3]&(1<<(i&7)) != 0
}

// indexEpoch appends the entry for one just-encoded epoch record.
func (e *Encoder) indexEpoch(ep Epoch, off int64, crc uint32) {
	en := IndexEntry{Bin: ep.Bin, Offset: off, Cells: len(ep.Cells), CRC: crc}
	if len(ep.Cells) > 0 {
		en.SvcMin, en.ComMin = math.MaxUint32, math.MaxUint32
		for _, c := range ep.Cells {
			en.SvcMin = min(en.SvcMin, c.Svc)
			en.SvcMax = max(en.SvcMax, c.Svc)
			en.ComMin = min(en.ComMin, uint32(c.Commune))
			en.ComMax = max(en.ComMax, uint32(c.Commune))
		}
		en.SvcBits = e.carveBits(en.SvcMax - en.SvcMin)
		en.ComBits = e.carveBits(en.ComMax - en.ComMin)
		for _, c := range ep.Cells {
			setBit(en.SvcBits, c.Svc-en.SvcMin)
			setBit(en.ComBits, uint32(c.Commune)-en.ComMin)
		}
	}
	e.index = append(e.index, en)
}

// carveBits returns a zeroed span/8+1-byte bitmap carved from the
// encoder's arena, or nil when the span is too wide to index.
func (e *Encoder) carveBits(span uint32) []byte {
	n := int(span/8) + 1
	if n > maxIndexBitmapBytes {
		return nil
	}
	return carveBytes(&e.bitsArena, n)
}

// carveBytes hands out n zeroed bytes from arena, refilling it in
// indexArenaChunk units — bitmap allocation stays amortized O(1) per
// epoch on both the encode and decode sides.
func carveBytes(arena *[]byte, n int) []byte {
	if n > len(*arena) {
		*arena = make([]byte, max(n, indexArenaChunk))
	}
	b := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return b
}

func setBit(bits []byte, i uint32) {
	if bits != nil {
		bits[i>>3] |= 1 << (i & 7)
	}
}

// appendFooter serializes the footer (magic through the last entry;
// the CRC and offset trailer are written by the caller).
func appendFooter(dst []byte, headerCRC uint32, entries []IndexEntry) []byte {
	dst = append(dst, indexMagic[:]...)
	dst = binary.BigEndian.AppendUint32(dst, headerCRC)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	prevOff := int64(0)
	for i := range entries {
		en := &entries[i]
		dst = binary.AppendUvarint(dst, uint64(en.Bin+1))
		dst = binary.AppendUvarint(dst, uint64(en.Offset-prevOff))
		prevOff = en.Offset
		dst = binary.AppendUvarint(dst, uint64(en.Cells))
		dst = binary.BigEndian.AppendUint32(dst, en.CRC)
		if en.Cells == 0 {
			continue
		}
		dst = appendBitmap(dst, en.SvcMin, en.SvcMax, en.SvcBits)
		dst = appendBitmap(dst, en.ComMin, en.ComMax, en.ComBits)
	}
	return dst
}

func appendBitmap(dst []byte, lo, hi uint32, bits []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(lo))
	dst = binary.AppendUvarint(dst, uint64(hi-lo))
	dst = binary.AppendUvarint(dst, uint64(len(bits)))
	return append(dst, bits...)
}

// parseFooter decodes and validates a v2 footer read through cr. The
// grid, service-table size and declared epoch count come from the
// (already decoded) header; the records must tile [epochsStart,
// payloadEnd) from its first byte. Every declared size is checked
// before allocation and every structural invariant — ascending bins,
// ascending in-bounds offsets, records long enough for their cell
// counts, bitmap shapes with their min/max bits set and no stray bits
// past the span — is enforced, so a reader that prunes by this index
// can trust a footer whose CRC matched.
func parseFooter(cr *crcReader, bins, nServices, nEpochs int, epochsStart, payloadEnd int64) (headerCRC uint32, entries []IndexEntry, err error) {
	var magic [4]byte
	if err := capture.ReadFull(cr, magic[:], "snapshot index magic"); err != nil {
		return 0, nil, err
	}
	if magic != indexMagic {
		return 0, nil, fmt.Errorf("rollup: bad snapshot index magic %x (want %x)", magic, indexMagic)
	}
	if err := capture.ReadFull(cr, cr.b8[:4], "snapshot index header crc"); err != nil {
		return 0, nil, err
	}
	headerCRC = binary.BigEndian.Uint32(cr.b8[:4])
	count, err := capture.ReadUvarint(cr, uint64(bins)+1, "snapshot index entry count")
	if err != nil {
		return 0, nil, err
	}
	if int(count) != nEpochs {
		return 0, nil, fmt.Errorf("rollup: snapshot index declares %d epochs, header declared %d", count, nEpochs)
	}
	// The records tile [epochsStart, payloadEnd) exactly — the first
	// starts where the header ends, each ends where the next starts
	// (DecodeEntry holds every record to its length), the last ends at
	// the payload CRC — so the header CRC and the record CRCs together
	// cover every payload byte a seeking reader trusts.
	if nEpochs == 0 && payloadEnd != epochsStart {
		return 0, nil, fmt.Errorf("rollup: %d payload bytes behind a snapshot of no epochs", payloadEnd-epochsStart)
	}
	entries = make([]IndexEntry, 0, min(nEpochs, cellPrealloc))
	prevBin := OverflowBin - 1
	prevOff := int64(0)
	// Bitmap bytes are carved from an arena: a make per map would put
	// two heap allocations on every entry of every decode, scaling the
	// MergeFiles allocation count with file length.
	var arena []byte
	for i := 0; i < nEpochs; i++ {
		var en IndexEntry
		binPlus1, err := capture.ReadUvarint(cr, uint64(bins), "snapshot index bin")
		if err != nil {
			return 0, nil, err
		}
		en.Bin = int(binPlus1) - 1
		if en.Bin <= prevBin {
			return 0, nil, fmt.Errorf("rollup: snapshot index bins not strictly ascending at %d", en.Bin)
		}
		prevBin = en.Bin
		delta, err := capture.ReadUvarint(cr, uint64(payloadEnd), "snapshot index offset")
		if err != nil {
			return 0, nil, err
		}
		en.Offset = prevOff + int64(delta)
		if (i == 0 && en.Offset != epochsStart) || en.Offset >= payloadEnd || (i > 0 && delta == 0) {
			return 0, nil, fmt.Errorf("rollup: snapshot index offset %d outside epochs [%d, %d)", en.Offset, epochsStart, payloadEnd)
		}
		prevOff = en.Offset
		cells, err := capture.ReadUvarint(cr, MaxEpochCells, "snapshot index cell count")
		if err != nil {
			return 0, nil, err
		}
		en.Cells = int(cells)
		if err := capture.ReadFull(cr, cr.b8[:4], "snapshot index entry crc"); err != nil {
			return 0, nil, err
		}
		en.CRC = binary.BigEndian.Uint32(cr.b8[:4])
		if en.Cells > 0 {
			if nServices == 0 {
				return 0, nil, fmt.Errorf("rollup: snapshot index has cells but no service table")
			}
			if en.SvcMin, en.SvcMax, en.SvcBits, err = readBitmap(cr, uint32(nServices-1), &svcLabels, &arena); err != nil {
				return 0, nil, err
			}
			if en.ComMin, en.ComMax, en.ComBits, err = readBitmap(cr, MaxCommunes, &comLabels, &arena); err != nil {
				return 0, nil, err
			}
		}
		entries = append(entries, en)
	}
	// Record-length sanity: an entry's slice of the file must be able
	// to hold its declared cells (2 varint bytes minimum framing plus
	// minCellBytes per cell), or a lying index could make a seek-decode
	// read past its record into a neighbor.
	for i := range entries {
		end := payloadEnd
		if i+1 < len(entries) {
			end = entries[i+1].Offset
		}
		if end-entries[i].Offset < 2+int64(entries[i].Cells)*minCellBytes {
			return 0, nil, fmt.Errorf("rollup: snapshot index entry %d too short for %d cells", i, entries[i].Cells)
		}
	}
	return headerCRC, entries, nil
}

// bitmapLabels are the per-axis limit-violation labels, pre-built:
// concatenating them per call would allocate on every entry of every
// decode.
type bitmapLabels struct{ name, min, span, bytes string }

var (
	svcLabels = bitmapLabels{"service", "snapshot index service min", "snapshot index service span", "snapshot index service bitmap"}
	comLabels = bitmapLabels{"commune", "snapshot index commune min", "snapshot index commune span", "snapshot index commune bitmap"}
)

// readBitmap decodes one min/span/bits triple, enforcing the bitmap
// shape invariants. bits are carved from the caller's arena.
func readBitmap(cr *crcReader, maxID uint32, lab *bitmapLabels, arena *[]byte) (lo, hi uint32, bits []byte, err error) {
	loU, err := capture.ReadUvarint(cr, uint64(maxID), lab.min)
	if err != nil {
		return 0, 0, nil, err
	}
	span, err := capture.ReadUvarint(cr, uint64(maxID)-loU, lab.span)
	if err != nil {
		return 0, 0, nil, err
	}
	lo, hi = uint32(loU), uint32(loU+span)
	nb, err := capture.ReadUvarint(cr, maxIndexBitmapBytes, lab.bytes)
	if err != nil {
		return 0, 0, nil, err
	}
	if nb == 0 {
		if span/8+1 <= maxIndexBitmapBytes {
			return 0, 0, nil, fmt.Errorf("rollup: snapshot index %s bitmap omitted for an indexable span", lab.name)
		}
		return lo, hi, nil, nil
	}
	if nb != span/8+1 {
		return 0, 0, nil, fmt.Errorf("rollup: snapshot index %s bitmap is %d bytes for a span of %d", lab.name, nb, span)
	}
	bits = carveBytes(arena, int(nb))
	if err := capture.ReadFull(cr, bits, lab.bytes); err != nil {
		return 0, 0, nil, err
	}
	if bits[0]&1 == 0 || bits[span>>3]&(1<<(span&7)) == 0 {
		return 0, 0, nil, fmt.Errorf("rollup: snapshot index %s bitmap min/max bits unset", lab.name)
	}
	if stray := bits[span>>3] &^ (1<<(span&7+1) - 1); span&7 != 7 && stray != 0 {
		return 0, 0, nil, fmt.Errorf("rollup: snapshot index %s bitmap has bits past its span", lab.name)
	}
	return lo, hi, bits, nil
}
