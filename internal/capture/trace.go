package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Binary trace format: an 8-byte magic header followed by one record
// per frame. Each record is a fixed 12-byte header — the observation
// timestamp as big-endian nanoseconds since the Unix epoch (int64) and
// the frame length (uint32) — followed by the raw frame bytes. The
// format is append-friendly and replayable with O(1) memory.
var traceMagic = [8]byte{'G', 'T', 'P', 'C', 'A', 'P', 0, 1}

// maxFrameLen bounds a record's declared length so a corrupt or
// adversarial trace cannot force an enormous allocation.
const maxFrameLen = 1 << 26 // 64 MiB

// recordHeaderLen is the fixed size of a record header: int64
// nanoseconds and uint32 length.
const recordHeaderLen = 12

// traceBlock is the unit both ends of the codec move bytes in: the
// Writer's buffer flushes a block at a time, and the Reader refills a
// block of this size with large reads and frames records in place
// inside it.
const traceBlock = 1 << 20 // 1 MiB

// Writer persists a frame stream in the binary trace format.
type Writer struct {
	w     *bufio.Writer
	count int
}

// NewWriter starts a trace on w by emitting the magic header. Callers
// must Flush when done.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, traceBlock)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, fmt.Errorf("capture: writing trace header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one frame record. The header is encoded straight into
// the block buffer, so a write allocates nothing.
//
//repro:hotpath
func (tw *Writer) Write(f Frame) error {
	if err := CheckLimit(uint64(len(f.Data)), maxFrameLen, "trace frame"); err != nil {
		return err
	}
	if tw.w.Available() < recordHeaderLen {
		if err := tw.w.Flush(); err != nil {
			return err
		}
	}
	hdr := binary.BigEndian.AppendUint64(tw.w.AvailableBuffer(), uint64(f.Time.UnixNano()))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(f.Data)))
	if _, err := tw.w.Write(hdr); err != nil {
		return err
	}
	if _, err := tw.w.Write(f.Data); err != nil {
		return err
	}
	tw.count++
	return nil
}

// Count returns the number of frames written so far.
func (tw *Writer) Count() int { return tw.count }

// Flush forces buffered records to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Copy streams src into tw frame by frame, returning the number of
// frames copied. Memory stays O(1) in frame count.
func Copy(tw *Writer, src Source) (int, error) {
	n := 0
	for {
		f, err := src.Next()
		if errors.Is(err, io.EOF) {
			return n, tw.Flush()
		}
		if err != nil {
			return n, err
		}
		if err := tw.Write(f); err != nil {
			return n, err
		}
		n++
	}
}

// Reader replays a binary trace as a Source. It reads the trace a
// block at a time into one reused block and frames each record in
// place: a frame's Data is a sub-slice of the block, valid only until
// the next call (the Source ownership contract), so replay allocates
// nothing per frame. A record longer than the block grows it, up to
// maxFrameLen.
type Reader struct {
	r     io.Reader
	block []byte
	off   int   // start of the unread bytes block[off:end]
	end   int   // end of the bytes read into block
	rerr  error // first error from r, reported once block runs dry
	err   error // sticky result once the stream has ended or broken
}

// NewReader validates the trace header of r and returns a Source over
// its records.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{r: r, block: make([]byte, traceBlock)}
	if err := tr.fill(len(traceMagic)); err != nil {
		return nil, fmt.Errorf("capture: reading trace header: %w", err)
	}
	if magic := [8]byte(tr.block[:len(traceMagic)]); magic != traceMagic {
		return nil, fmt.Errorf("capture: bad trace magic %x", magic)
	}
	tr.off = len(traceMagic)
	return tr, nil
}

// fill makes at least need unread bytes available in the block. It
// first moves the unread tail to the front of the block (growing the
// block when need exceeds it), then reads until need is met. Bytes
// handed out by earlier calls are overwritten. When r ends first, fill
// returns io.EOF if no unread bytes remain and io.ErrUnexpectedEOF
// otherwise; any other error of r is returned as is.
func (tr *Reader) fill(need int) error {
	if tr.end-tr.off >= need {
		return nil
	}
	if need > len(tr.block) {
		grown := make([]byte, need)
		tr.end = copy(grown, tr.block[tr.off:tr.end])
		tr.block = grown
	} else {
		tr.end = copy(tr.block, tr.block[tr.off:tr.end])
	}
	tr.off = 0
	for tr.end < need {
		if tr.rerr != nil {
			if errors.Is(tr.rerr, io.EOF) && tr.end > 0 {
				return io.ErrUnexpectedEOF
			}
			return tr.rerr
		}
		n, err := tr.r.Read(tr.block[tr.end:])
		tr.end += n
		tr.rerr = err
	}
	return nil
}

// Next implements Source. The returned Data aliases the reader's read
// block and is valid only until the next call (the Source ownership
// contract); consumers that retain frames must copy. A trace that ends
// mid-record returns a truncation error rather than io.EOF, and a read
// error of the underlying reader is returned wrapped; either repeats
// on every later call.
//
//repro:hotpath
func (tr *Reader) Next() (Frame, error) {
	if tr.err != nil {
		return Frame{}, tr.err
	}
	if err := tr.fill(recordHeaderLen); err != nil {
		return Frame{}, tr.fail("record header", err)
	}
	hdr := tr.block[tr.off : tr.off+recordHeaderLen]
	nanos := int64(binary.BigEndian.Uint64(hdr[:8]))
	length := binary.BigEndian.Uint32(hdr[8:])
	if err := CheckLimit(uint64(length), maxFrameLen, "trace record"); err != nil {
		tr.err = err
		return Frame{}, err
	}
	n := recordHeaderLen + int(length)
	if err := tr.fill(n); err != nil {
		return Frame{}, tr.fail("record body", err)
	}
	data := tr.block[tr.off+recordHeaderLen : tr.off+n : tr.off+n]
	tr.off += n
	return Frame{Time: time.Unix(0, nanos).UTC(), Data: data}, nil
}

// fail makes err the reader's sticky result: a clean io.EOF passes
// through, anything else names the field the trace broke in.
func (tr *Reader) fail(what string, err error) error {
	tr.err = io.EOF
	if !errors.Is(err, io.EOF) {
		tr.err = fmt.Errorf("capture: truncated trace %s: %w", what, err)
	}
	return tr.err
}
