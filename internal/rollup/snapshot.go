package rollup

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/capture"
	"repro/internal/chaos"
	"repro/internal/geo"
	"repro/internal/services"
)

// Snapshot format. An 8-byte magic/version header, a payload, and a
// trailing CRC-32 (IEEE, big-endian) of the payload, so truncation and
// bit flips are detected, not silently analyzed. All multi-byte
// integers are unsigned varints unless noted; floats are big-endian
// IEEE-754 doubles.
//
//	magic     "GTPROLL" + version byte (1 or 2)
//	payload:
//	  start        int64 big-endian (ns since Unix epoch, UTC)
//	  step         uvarint (ns)
//	  bins         uvarint (≤ MaxBins)
//	  geo          NumCommunes, NumCities, Population uvarints;
//	               OperatorShare float64; Seed uint64 big-endian
//	  counters     DecodeErrors, UnknownTEID, UnknownCell,
//	               ControlMessages, UserPlanePackets uvarints
//	               (LateFrames is ingest diagnostics, shard-dependent,
//	               and deliberately not persisted)
//	  totals       TotalBytes[DL,UL], ClassifiedBytes[DL,UL] float64 ×4
//	  services     count uvarint (≤ MaxServices), then per service a
//	               uvarint length (≤ MaxServiceName) + UTF-8 bytes,
//	               strictly ascending lexicographically
//	  epochs       count uvarint (≤ bins+1), then per epoch:
//	                 bin+1   uvarint (0 = overflow), strictly ascending
//	                 cells   count uvarint (≤ MaxEpochCells), then per
//	                         cell dir byte, svc uvarint, commune uvarint,
//	                         bytes float64; strictly ascending by
//	                         (dir, svc, commune)
//	crc32     uint32 big-endian over the payload
//
// Version 2 appends a footer index after the payload CRC — per-epoch
// byte offsets, record CRCs and service/commune presence maps, with
// its own CRC and a fixed-width footer-offset trailer (layout in
// index.go) — so seeking readers (OpenIndexed, internal/catalog) can
// decode only the epochs a query touches. The payload encoding is
// byte-identical across versions: a v2 file is its v1 encoding plus
// the index, which is why UpgradeFile can promise an unchanged payload
// section. v1 is the blob encoding, and Write its only writer (pipes
// and epochwire blobs have no use for seek tables); v2 is what every
// file writer emits. A v1 file still opens with OpenIndexed, which
// indexes it from one sequential decode.
//
// The encoding is canonical: normalized partials have sorted service
// tables and cell lists, and the reader enforces the ordering, so one
// aggregate has exactly one byte representation — equal captures give
// byte-identical snapshots at any shard count.
//
// The codec is incremental: Encoder emits the header once and then one
// epoch at a time, Decoder yields one epoch at a time into a reusable
// cell buffer. Write/Read wrap them for whole-partial use; the
// streaming k-way merger (MergeFiles) uses them directly so its live
// memory stays bounded by one epoch of cells, never a whole snapshot.
var (
	snapshotMagic   = [8]byte{'G', 'T', 'P', 'R', 'O', 'L', 'L', 1}
	snapshotMagicV2 = [8]byte{'G', 'T', 'P', 'R', 'O', 'L', 'L', 2}
)

// Snapshot format versions. V1 is the sequential stream format (and
// the epochwire wire encoding); V2 adds the footer index.
const (
	SnapshotV1 = 1
	SnapshotV2 = 2

	// snapshotMagicLen is the byte length of the magic/version header;
	// payload offsets are relative to it.
	snapshotMagicLen = 8
	// snapshotTrailerLen is the v2 fixed-width tail: footer CRC plus
	// the 8-byte footer offset.
	snapshotTrailerLen = 12
)

// Decoder limits: declared sizes are checked against these before any
// allocation (the capture package's oversize guard discipline).
const (
	// MaxBins bounds the epoch grid (the study week at 1-second
	// resolution is ~600k bins; 1<<24 leaves headroom).
	MaxBins = 1 << 24
	// MaxServices bounds the service table.
	MaxServices = 1 << 16
	// MaxServiceName bounds one service name's byte length.
	MaxServiceName = 256
	// MaxEpochCells bounds the cells of one epoch.
	MaxEpochCells = 1 << 26
	// MaxCommunes bounds cell commune ids and the geography config.
	MaxCommunes = 1 << 24
	// cellPrealloc caps how much a declared cell count preallocates;
	// beyond it the decoder grows incrementally, so a lying header
	// cannot force a huge up-front allocation.
	cellPrealloc = 1 << 12
)

// crcWriter tees writes into a running CRC-32. seg is a second sum
// reset at each epoch-record boundary (the v2 index stores it per
// record); n counts payload bytes so the encoder knows each record's
// file offset without asking the underlying writer.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	seg uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	cw.seg = crc32.Update(cw.seg, crc32.IEEETable, p)
	cw.n += int64(len(p))
	return cw.w.Write(p)
}

// Encoder writes one snapshot incrementally: the header (config,
// counters, totals, service table, epoch count) at construction, then
// exactly the declared number of epochs via WriteEpoch, then the
// trailer — CRC for v1; CRC plus footer index for v2 — at Close. It is
// the streaming half the k-way merger writes through; Write/WriteV2
// wrap it for whole-partial encoding.
type Encoder struct {
	bw        *bufio.Writer
	cw        *crcWriter
	version   int
	bins      int
	remaining int
	prevBin   int
	closed    bool
	// scratch batches one epoch's records into a single reused buffer:
	// the per-field binio helpers cross an io.Writer boundary, which
	// makes their stack buffers escape — one heap allocation per field,
	// linear in file size. Appending locally and writing in chunks
	// keeps WriteEpoch allocation-free, the bound MergeFiles relies on.
	scratch []byte
	// v2 index accumulation: the running header CRC captured before the
	// first epoch, entries pre-sized to the declared epoch count, and
	// an arena the presence bitmaps are carved from (per-epoch heap
	// allocations would scale the MergeFiles allocation count with
	// output length).
	headerCRC uint32
	index     []IndexEntry
	bitsArena []byte
}

// NewEncoderV2 writes a version-2 header and accumulates the footer
// index as epochs stream through; Close appends it after the payload
// CRC.
func NewEncoderV2(w io.Writer, hdr *Partial, epochs int) (*Encoder, error) {
	return newEncoder(w, hdr, epochs, SnapshotV2)
}

// newEncoder validates hdr (its Epochs field is ignored) and writes
// the snapshot header declaring exactly epochs epoch records to come.
func newEncoder(w io.Writer, hdr *Partial, epochs, version int) (*Encoder, error) {
	if hdr.Cfg.Bins < 0 || hdr.Cfg.Bins > MaxBins {
		return nil, fmt.Errorf("rollup: cannot snapshot %d bins (limit %d)", hdr.Cfg.Bins, MaxBins)
	}
	if len(hdr.Services) > MaxServices {
		return nil, fmt.Errorf("rollup: cannot snapshot %d services (limit %d)", len(hdr.Services), MaxServices)
	}
	if epochs < 0 || epochs > hdr.Cfg.Bins+1 {
		return nil, fmt.Errorf("rollup: %d epochs do not fit a grid of %d bins", epochs, hdr.Cfg.Bins)
	}
	bw := bufio.NewWriter(w)
	magic := snapshotMagic
	if version == SnapshotV2 {
		magic = snapshotMagicV2
	}
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("rollup: writing snapshot header: %w", err)
	}
	cw := &crcWriter{w: bw}
	var i64 [8]byte
	binary.BigEndian.PutUint64(i64[:], uint64(hdr.Cfg.Start.UnixNano()))
	if _, err := cw.Write(i64[:]); err != nil {
		return nil, err
	}
	for _, v := range []uint64{uint64(hdr.Cfg.Step), uint64(hdr.Cfg.Bins),
		uint64(hdr.Cfg.Geo.NumCommunes), uint64(hdr.Cfg.Geo.NumCities), uint64(hdr.Cfg.Geo.Population)} {
		if err := capture.WriteUvarint(cw, v); err != nil {
			return nil, err
		}
	}
	if err := capture.WriteFloat64(cw, hdr.Cfg.Geo.OperatorShare); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint64(i64[:], hdr.Cfg.Geo.Seed)
	if _, err := cw.Write(i64[:]); err != nil {
		return nil, err
	}
	for _, v := range []int{hdr.Counters.DecodeErrors, hdr.Counters.UnknownTEID, hdr.Counters.UnknownCell,
		hdr.Counters.ControlMessages, hdr.Counters.UserPlanePackets} {
		if err := capture.WriteUvarint(cw, uint64(v)); err != nil {
			return nil, err
		}
	}
	for d := 0; d < services.NumDirections; d++ {
		if err := capture.WriteFloat64(cw, hdr.TotalBytes[d]); err != nil {
			return nil, err
		}
	}
	for d := 0; d < services.NumDirections; d++ {
		if err := capture.WriteFloat64(cw, hdr.ClassifiedBytes[d]); err != nil {
			return nil, err
		}
	}
	if err := capture.WriteUvarint(cw, uint64(len(hdr.Services))); err != nil {
		return nil, err
	}
	for _, name := range hdr.Services {
		if len(name) == 0 || len(name) > MaxServiceName {
			return nil, fmt.Errorf("rollup: service name %q not encodable (1..%d bytes)", name, MaxServiceName)
		}
		if err := capture.WriteString(cw, name); err != nil {
			return nil, err
		}
	}
	if err := capture.WriteUvarint(cw, uint64(epochs)); err != nil {
		return nil, err
	}
	e := &Encoder{bw: bw, cw: cw, version: version, bins: hdr.Cfg.Bins, remaining: epochs, prevBin: OverflowBin - 1}
	if version == SnapshotV2 {
		e.headerCRC = cw.crc
		e.index = make([]IndexEntry, 0, epochs)
	}
	return e, nil
}

// WriteEpoch appends one epoch record. Epochs must arrive in strictly
// ascending bin order (overflow first) with cells already sorted —
// exactly the invariants normalized partials and the decoder maintain.
func (e *Encoder) WriteEpoch(ep Epoch) error {
	if e.remaining <= 0 {
		return fmt.Errorf("rollup: more epochs written than the header declared")
	}
	if ep.Bin < OverflowBin || ep.Bin >= e.bins {
		return fmt.Errorf("rollup: epoch bin %d outside grid of %d bins", ep.Bin, e.bins)
	}
	if ep.Bin <= e.prevBin {
		return fmt.Errorf("rollup: epoch bin %d not strictly after %d", ep.Bin, e.prevBin)
	}
	e.prevBin = ep.Bin
	e.remaining--
	if len(ep.Cells) > MaxEpochCells {
		return fmt.Errorf("rollup: epoch %d has %d cells (limit %d)", ep.Bin, len(ep.Cells), MaxEpochCells)
	}
	off := snapshotMagicLen + e.cw.n
	e.cw.seg = 0
	e.scratch = binary.AppendUvarint(e.scratch[:0], uint64(ep.Bin+1))
	e.scratch = binary.AppendUvarint(e.scratch, uint64(len(ep.Cells)))
	for _, c := range ep.Cells {
		if c.Commune < 0 {
			return fmt.Errorf("rollup: epoch %d cell commune %d is negative", ep.Bin, c.Commune)
		}
		e.scratch = append(e.scratch, c.Dir)
		e.scratch = binary.AppendUvarint(e.scratch, uint64(c.Svc))
		e.scratch = binary.AppendUvarint(e.scratch, uint64(c.Commune))
		e.scratch = binary.BigEndian.AppendUint64(e.scratch, math.Float64bits(c.Bytes))
		if len(e.scratch) >= 32*1024 {
			if _, err := e.cw.Write(e.scratch); err != nil {
				return err
			}
			e.scratch = e.scratch[:0]
		}
	}
	if len(e.scratch) > 0 {
		if _, err := e.cw.Write(e.scratch); err != nil {
			return err
		}
	}
	if e.version == SnapshotV2 {
		e.indexEpoch(ep, off, e.cw.seg)
	}
	return nil
}

// Close writes the trailer and flushes: the payload CRC, and for v2
// the footer index, its CRC and the footer-offset tail. Every declared
// epoch must have been written.
func (e *Encoder) Close() error {
	if e.closed {
		return fmt.Errorf("rollup: encoder closed twice")
	}
	e.closed = true
	if e.remaining != 0 {
		return fmt.Errorf("rollup: %d declared epochs never written", e.remaining)
	}
	var b8 [8]byte
	binary.BigEndian.PutUint32(b8[:4], e.cw.crc)
	if _, err := e.bw.Write(b8[:4]); err != nil {
		return err
	}
	if e.version == SnapshotV2 {
		footerOff := snapshotMagicLen + e.cw.n + 4
		foot := appendFooter(e.scratch[:0], e.headerCRC, e.index)
		e.scratch = foot[:0]
		if _, err := e.bw.Write(foot); err != nil {
			return err
		}
		binary.BigEndian.PutUint32(b8[:4], crc32.ChecksumIEEE(foot))
		if _, err := e.bw.Write(b8[:4]); err != nil {
			return err
		}
		binary.BigEndian.PutUint64(b8[:], uint64(footerOff))
		if _, err := e.bw.Write(b8[:]); err != nil {
			return err
		}
	}
	if err := e.bw.Flush(); err != nil {
		return fmt.Errorf("rollup: flushing snapshot: %w", err)
	}
	return nil
}

// Write persists the partial to w in snapshot format v1 — the
// sequential wire encoding pipes and epochwire blobs use.
func Write(w io.Writer, p *Partial) error {
	return write(w, p, SnapshotV1)
}

// WriteV2 persists the partial to w in snapshot format v2, payload
// byte-identical to Write plus the footer index. This is the on-disk
// format; WriteFile and MergeFiles emit it.
func WriteV2(w io.Writer, p *Partial) error {
	return write(w, p, SnapshotV2)
}

func write(w io.Writer, p *Partial, version int) error {
	enc, err := newEncoder(w, p, len(p.Epochs), version)
	if err != nil {
		return err
	}
	for _, ep := range p.Epochs {
		if err := enc.WriteEpoch(ep); err != nil {
			return err
		}
	}
	return enc.Close()
}

// crcReader sums every byte actually consumed (bufio read-ahead must
// not contaminate the running CRC, so the tee sits above the buffer).
// seg and n mirror crcWriter's: a per-record sum reset at epoch
// boundaries and a consumed-byte counter, which is how the sequential
// decoder knows each record's offset and CRC — to cross-check a v2
// index against, or to build a v1 file's index from. b8 is the
// persistent fixed-width scratch: per-call stack buffers would escape
// through the io.Reader boundary and cost one allocation per float,
// linear in cell count.
type crcReader struct {
	br  *bufio.Reader
	crc uint32
	seg uint32
	n   int64
	b8  [8]byte
}

// readFloat64 reads one big-endian IEEE-754 value allocation-free.
func (cr *crcReader) readFloat64(what string) (float64, error) {
	if err := capture.ReadFull(cr, cr.b8[:], what); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(cr.b8[:])), nil
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.br.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	cr.seg = crc32.Update(cr.seg, crc32.IEEETable, p[:n])
	cr.n += int64(n)
	return n, err
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.br.ReadByte()
	if err == nil {
		// Through b8, not a literal: crcReader is called through the
		// io.ByteReader interface (binary.ReadUvarint), where a fresh
		// one-byte slice would escape — an allocation per varint byte.
		cr.b8[0] = b
		cr.crc = crc32.Update(cr.crc, crc32.IEEETable, cr.b8[:1])
		cr.seg = crc32.Update(cr.seg, crc32.IEEETable, cr.b8[:1])
		cr.n++
	}
	return b, err
}

// Decoder reads one snapshot incrementally: the header is decoded and
// validated at construction, then Next yields one epoch at a time —
// into a caller-reusable cell buffer — enforcing the same orderings
// and limits the whole-partial Read enforces, and verifying the CRC
// and clean EOF after the last epoch. For v2 streams it additionally
// parses the footer index and verifies every entry against the epochs
// it actually decoded, so a v2 file that reads cleanly sequentially is
// guaranteed to answer index-pruned queries identically. Live memory
// is the header plus one epoch of cells plus (v2) the index, which is
// what bounds the k-way merger.
//
// The decoder notes every record it reads (bin, offset, cell count,
// record CRC, id ranges) for a v2 stream, to hold the footer to; for a
// v1 stream only when OpenIndexed asks, since those notes are then the
// file's index. A v1 blob decoded whole keeps none.
type Decoder struct {
	br      *bufio.Reader
	cr      *crcReader
	hdr     *Partial
	version int
	nEpochs int
	read    int
	prevBin int
	fin     bool
	// Header CRC and first-epoch offset captured at construction, then
	// one note per decoded epoch when notes is set; a finished v2
	// decode replaces the notes by the footer entries they vouched for.
	headerCRC   uint32
	epochsStart int64
	notes       bool
	recs        []IndexEntry
}

// NewDecoder consumes and validates the snapshot header (through the
// epoch count) of either format version. Every declared size is
// bounds-checked before allocation; a truncated, bit-flipped or
// oversize-field stream errors, it never panics or over-allocates.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if err := capture.ReadFull(br, magic[:], "snapshot header"); err != nil {
		return nil, fmt.Errorf("rollup: %w", err)
	}
	if !bytes.Equal(magic[:7], snapshotMagic[:7]) {
		return nil, fmt.Errorf("rollup: bad snapshot magic %x (want %x)", magic, snapshotMagic)
	}
	version := int(magic[7])
	if version != SnapshotV1 && version != SnapshotV2 {
		return nil, fmt.Errorf("rollup: unsupported snapshot version %d", version)
	}
	cr := &crcReader{br: br}
	p := &Partial{}

	var i64 [8]byte
	if err := capture.ReadFull(cr, i64[:], "snapshot start time"); err != nil {
		return nil, err
	}
	p.Cfg.Start = time.Unix(0, int64(binary.BigEndian.Uint64(i64[:]))).UTC()
	step, err := capture.ReadUvarint(cr, uint64(math.MaxInt64), "snapshot step")
	if err != nil {
		return nil, err
	}
	if step == 0 {
		return nil, fmt.Errorf("rollup: snapshot declares zero step")
	}
	p.Cfg.Step = time.Duration(step)
	bins, err := capture.ReadUvarint(cr, MaxBins, "snapshot bin count")
	if err != nil {
		return nil, err
	}
	p.Cfg.Bins = int(bins)
	if err := readGeoConfig(cr, &p.Cfg.Geo); err != nil {
		return nil, err
	}
	counters := []*int{&p.Counters.DecodeErrors, &p.Counters.UnknownTEID, &p.Counters.UnknownCell,
		&p.Counters.ControlMessages, &p.Counters.UserPlanePackets}
	for _, c := range counters {
		v, err := capture.ReadUvarint(cr, uint64(math.MaxInt64), "snapshot counter")
		if err != nil {
			return nil, err
		}
		*c = int(v)
	}
	for d := 0; d < services.NumDirections; d++ {
		if p.TotalBytes[d], err = readVolume(cr, "snapshot total bytes"); err != nil {
			return nil, err
		}
	}
	for d := 0; d < services.NumDirections; d++ {
		if p.ClassifiedBytes[d], err = readVolume(cr, "snapshot classified bytes"); err != nil {
			return nil, err
		}
	}

	nSvc, err := capture.ReadUvarint(cr, MaxServices, "snapshot service count")
	if err != nil {
		return nil, err
	}
	p.Services = make([]string, 0, nSvc)
	for i := uint64(0); i < nSvc; i++ {
		name, err := capture.ReadStringLimited(cr, MaxServiceName, "snapshot service name")
		if err != nil {
			return nil, err
		}
		if len(name) == 0 {
			return nil, fmt.Errorf("rollup: empty service name in snapshot")
		}
		if len(p.Services) > 0 && name <= p.Services[len(p.Services)-1] {
			return nil, fmt.Errorf("rollup: service table not strictly ascending at %q", name)
		}
		p.Services = append(p.Services, name)
	}

	nEpochs, err := capture.ReadUvarint(cr, uint64(p.Cfg.Bins)+1, "snapshot epoch count")
	if err != nil {
		return nil, err
	}
	return &Decoder{br: br, cr: cr, hdr: p, version: version, nEpochs: int(nEpochs), prevBin: OverflowBin - 1,
		headerCRC: cr.crc, epochsStart: snapshotMagicLen + cr.n, notes: version == SnapshotV2}, nil
}

// Header returns the decoded header as a partial with no epochs: the
// config, service table, counters and totals. The decoder retains it;
// callers who keep it past the decoder's life should not mutate it
// while still calling Next.
func (d *Decoder) Header() *Partial { return d.hdr }

// EpochCount returns the number of epoch records the snapshot
// declares.
func (d *Decoder) EpochCount() int { return d.nEpochs }

// Version returns the snapshot format version (SnapshotV1 or
// SnapshotV2).
func (d *Decoder) Version() int { return d.version }

// Next decodes the next epoch into buf (appending from buf[:0]; pass
// the returned epoch's Cells back in to reuse the allocation, or nil
// to let Next allocate). After the last epoch it verifies the CRC
// trailer — and for v2 the footer index — and clean EOF, and returns
// ok == false.
func (d *Decoder) Next(buf []Cell) (ep Epoch, ok bool, err error) {
	if d.fin {
		return Epoch{}, false, nil
	}
	if d.read == d.nEpochs {
		d.fin = true
		return Epoch{}, false, d.finish()
	}
	d.read++
	off := snapshotMagicLen + d.cr.n
	d.cr.seg = 0
	rec, cells, err := decodeEpoch(d.cr, d.hdr.Cfg.Bins, len(d.hdr.Services), buf)
	if err != nil {
		return Epoch{}, false, err
	}
	if rec.Bin <= d.prevBin {
		return Epoch{}, false, fmt.Errorf("rollup: epoch bins not strictly ascending at %d", rec.Bin)
	}
	d.prevBin = rec.Bin
	if d.notes {
		if d.recs == nil {
			d.recs = make([]IndexEntry, 0, min(d.nEpochs, cellPrealloc))
		}
		rec.Offset, rec.CRC = off, d.cr.seg
		d.recs = append(d.recs, rec)
	}
	return Epoch{Bin: rec.Bin, Cells: cells}, true, nil
}

// decodeEpoch reads one epoch record — bin, cell count, cells into
// buf[:0] — enforcing cell ordering and field limits, and returns the
// record's bin, cell count and id ranges (zero for an empty epoch, as
// the footer encodes them) as an index entry without offset or CRC.
// It is shared by the sequential decoder and the seeking reader;
// bin-ordering across epochs is the caller's concern (the seeking
// reader has none).
func decodeEpoch(cr *crcReader, bins, numServices int, buf []Cell) (rec IndexEntry, cells []Cell, err error) {
	binPlus1, err := capture.ReadUvarint(cr, uint64(bins), "snapshot epoch bin")
	if err != nil {
		return rec, nil, err
	}
	rec.Bin = int(binPlus1) - 1
	nCells, err := capture.ReadUvarint(cr, MaxEpochCells, "snapshot cell count")
	if err != nil {
		return rec, nil, err
	}
	if buf == nil {
		buf = make([]Cell, 0, min(int(nCells), cellPrealloc))
	} else {
		buf = buf[:0]
	}
	var prev Cell
	for c := uint64(0); c < nCells; c++ {
		cell, err := readCell(cr, numServices)
		if err != nil {
			return rec, nil, err
		}
		svc, com := cell.Svc, uint32(cell.Commune)
		if c == 0 {
			rec.SvcMin, rec.SvcMax, rec.ComMin, rec.ComMax = svc, svc, com, com
		} else if !cellLess(prev, cell) {
			return rec, nil, fmt.Errorf("rollup: epoch %d cells not strictly ascending", rec.Bin)
		}
		prev = cell
		rec.SvcMin, rec.SvcMax = min(rec.SvcMin, svc), max(rec.SvcMax, svc)
		rec.ComMin, rec.ComMax = min(rec.ComMin, com), max(rec.ComMax, com)
		buf = append(buf, cell)
	}
	rec.Cells = len(buf)
	return rec, buf, nil
}

// finish checks the CRC trailer and that the stream ends cleanly. For
// v2 it then parses the footer index and holds it to account: entry
// count, bins, offsets, cell counts, record CRCs and id ranges must
// all match what was actually decoded, bitmaps must be structurally
// sound, the footer CRC and offset trailer must check out. A v2 file
// whose index lies does not read.
func (d *Decoder) finish() error {
	sum := d.cr.crc
	payloadEnd := snapshotMagicLen + d.cr.n
	var b8 [8]byte
	if err := capture.ReadFull(d.br, b8[:4], "snapshot checksum"); err != nil {
		return err
	}
	if got := binary.BigEndian.Uint32(b8[:4]); got != sum {
		return fmt.Errorf("rollup: snapshot checksum mismatch (stored %08x, computed %08x)", got, sum)
	}
	if d.version == SnapshotV2 {
		fc := &crcReader{br: d.br}
		headerCRC, entries, err := parseFooter(fc, d.hdr.Cfg.Bins, len(d.hdr.Services), d.nEpochs, d.epochsStart, payloadEnd)
		if err != nil {
			return err
		}
		if err := capture.ReadFull(d.br, b8[:4], "snapshot index checksum"); err != nil {
			return err
		}
		if got := binary.BigEndian.Uint32(b8[:4]); got != fc.crc {
			return fmt.Errorf("rollup: snapshot index checksum mismatch (stored %08x, computed %08x)", got, fc.crc)
		}
		if headerCRC != d.headerCRC {
			return fmt.Errorf("rollup: snapshot index header crc mismatch")
		}
		for i, en := range entries {
			r := d.recs[i]
			if en.Bin != r.Bin || en.Offset != r.Offset || en.Cells != r.Cells || en.CRC != r.CRC {
				return fmt.Errorf("rollup: snapshot index entry %d contradicts epoch record (bin %d at %d)", i, r.Bin, r.Offset)
			}
			if en.SvcMin != r.SvcMin || en.SvcMax != r.SvcMax || en.ComMin != r.ComMin || en.ComMax != r.ComMax {
				return fmt.Errorf("rollup: snapshot index entry %d id ranges contradict epoch %d", i, r.Bin)
			}
		}
		d.recs = entries
		if err := capture.ReadFull(d.br, b8[:], "snapshot index offset"); err != nil {
			return err
		}
		if got := int64(binary.BigEndian.Uint64(b8[:])); got != payloadEnd+4 {
			return fmt.Errorf("rollup: snapshot index offset %d does not point at the index (%d)", got, payloadEnd+4)
		}
	}
	// A snapshot is a whole-stream format: anything after the trailer
	// (a double Write, a concatenation, a botched transfer) is
	// corruption and must be flagged, not silently ignored.
	if _, err := d.br.ReadByte(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("rollup: trailing data after the snapshot checksum")
	}
	return nil
}

// Index returns the epoch index of a fully-read snapshot: for v2 the
// footer index, validated entry by entry against the decoded records;
// for a v1 stream opened by OpenIndexed, the records' own notes — id
// ranges without presence bitmaps, so pruning by them is range-only.
// Nil for a v1 stream read without notes. It is only populated — and
// only trustworthy — after Next has returned ok == false with no
// error, i.e. after finish verified the CRC and (v2) the footer.
func (d *Decoder) Index() []IndexEntry {
	if !d.fin {
		return nil
	}
	return d.recs
}

// Read decodes one snapshot whole. It is the materializing wrapper
// over Decoder: every ordering and limit is enforced, and the trailing
// CRC must match.
func Read(r io.Reader) (*Partial, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	p := d.Header()
	p.Epochs = make([]Epoch, 0, min(d.EpochCount(), cellPrealloc))
	for {
		ep, ok, err := d.Next(nil)
		if err != nil {
			return nil, err
		}
		if !ok {
			return p, nil
		}
		p.Epochs = append(p.Epochs, ep)
	}
}

// readGeoConfig decodes the geography regeneration parameters.
func readGeoConfig(cr *crcReader, g *geo.Config) error {
	nc, err := capture.ReadUvarint(cr, MaxCommunes, "snapshot commune count")
	if err != nil {
		return err
	}
	g.NumCommunes = int(nc)
	cities, err := capture.ReadUvarint(cr, 1<<16, "snapshot city count")
	if err != nil {
		return err
	}
	g.NumCities = int(cities)
	pop, err := capture.ReadUvarint(cr, 1<<40, "snapshot population")
	if err != nil {
		return err
	}
	g.Population = int(pop)
	share, err := cr.readFloat64("snapshot operator share")
	if err != nil {
		return err
	}
	if math.IsNaN(share) || share < 0 || share > 1 {
		return fmt.Errorf("rollup: snapshot operator share %v outside [0, 1]", share)
	}
	g.OperatorShare = share
	var i64 [8]byte
	if err := capture.ReadFull(cr, i64[:], "snapshot geo seed"); err != nil {
		return err
	}
	g.Seed = binary.BigEndian.Uint64(i64[:])
	return nil
}

// readVolume reads a float64 that must be a finite, non-negative byte
// volume — a cheap sanity gate in front of the CRC.
func readVolume(cr *crcReader, what string) (float64, error) {
	v, err := cr.readFloat64(what)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("rollup: %s %v is not a byte volume", what, v)
	}
	return v, nil
}

// readCell decodes one cell, validating every field against the
// snapshot's own tables.
func readCell(cr *crcReader, numServices int) (Cell, error) {
	var c Cell
	dir, err := cr.ReadByte()
	if err != nil {
		return c, fmt.Errorf("rollup: truncated cell direction: %w", err)
	}
	if int(dir) >= services.NumDirections {
		return c, fmt.Errorf("rollup: cell direction %d out of range", dir)
	}
	c.Dir = dir
	svc, err := capture.ReadUvarint(cr, uint64(numServices), "cell service id")
	if err != nil {
		return c, err
	}
	if int(svc) >= numServices {
		return c, fmt.Errorf("rollup: cell service id %d outside table of %d", svc, numServices)
	}
	c.Svc = uint32(svc)
	commune, err := capture.ReadUvarint(cr, MaxCommunes, "cell commune id")
	if err != nil {
		return c, err
	}
	c.Commune = int32(commune)
	c.Bytes, err = readVolume(cr, "cell bytes")
	return c, err
}

// WriteFile persists the partial to path (format v2) through
// chaos.WriteAtomic: path holds either its previous contents or the
// whole new snapshot, never a prefix.
func WriteFile(path string, p *Partial) error {
	return chaos.WriteAtomic(chaos.OS, path, func(w io.Writer) error { return WriteV2(w, p) })
}

// ReadFile loads a snapshot of either version from path.
func ReadFile(path string) (*Partial, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
