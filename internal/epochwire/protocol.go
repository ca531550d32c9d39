// Package epochwire is the distributed-collection plane: a versioned,
// length-prefixed TCP protocol that ships sealed rollup epochs from
// probe daemons (cmd/probed) to a merging aggregator (cmd/aggd).
//
// The paper's measurement infrastructure is probes inside an operator
// network streaming aggregates to a central collection point — the
// production shape of what the in-process pipeline does in one loop.
// This package puts the existing pieces on a wire without inventing a
// second codec: every payload that crosses the connection is a rollup
// snapshot (the canonical v1 format of internal/rollup), so the
// aggregator folds incoming fragments with the exact Merge algebra and
// the end-to-end conformance bar — N networked probes byte-identical
// to one local run — falls out of invariants already pinned by the
// rollup tests.
//
// # Wire protocol v2
//
// A session opens with a handshake:
//
//	probe → agg   Hello: magic "EPWR", version byte, probe ID string,
//	              incarnation (8 bytes BE, random per process), grid
//	              config as a zero-epoch snapshot blob (uvarint length
//	              + bytes), CRC32-IEEE of all the above (4 bytes BE)
//	agg → probe   Welcome: magic "EPWR", version byte, status byte
//	              (0 = accepted: durable-cursor uvarint follows;
//	              1 = rejected: reason string follows, conn closes),
//	              CRC32-IEEE trailer as in Hello
//
// The aggregator rejects a version it does not speak and a grid that
// is not union-compatible with the grids it already aggregates (same
// step and geography, start a whole number of steps apart). The
// durable cursor is the highest message sequence number of this probe
// incarnation the aggregator has durably applied: the probe resumes
// from the next one, which is what makes reconnects — and aggregator
// restarts from a state file — exactly-once.
//
// After the handshake both directions speak length-prefixed messages,
// each closed by a CRC32-IEEE trailer over the type, length, and
// payload bytes — v2's defence against in-flight corruption. Without
// it a flipped bit in an ack could advance the probe's durable cursor
// past data the aggregator never saw, and the spool would prune the
// only remaining copy; with it, corruption anywhere in a frame is a
// connection error, and the retransmit path repairs the stream.
//
//	[type byte][uvarint payload length][payload][crc32 4 bytes BE]
//
//	'E' epoch   probe → agg; payload = seq uvarint, watermark uvarint,
//	            blob uvarint length + bytes. The blob is a one-epoch
//	            snapshot (rollup.SingleEpochPartial of one sealed
//	            generation); the watermark is the first bin the probe
//	            may still write to on its own grid.
//	'F' fin     probe → agg; same payload shape, zero-epoch snapshot
//	            carrying the run's totals and counters. Sent once,
//	            after every epoch of the run.
//	'A' ack     agg → probe; payload = seq uvarint (applied), durable
//	            uvarint (highest seq persisted to the state file — the
//	            probe may prune its spool through it).
//	'P' ping    probe → agg, empty payload; 'O' pong answers it with a
//	            durable uvarint, so an idle session still learns when a
//	            previously failed state persist finally lands.
//
// The probe sends synchronously: one epoch/fin, then its ack, with
// pings keeping an idle connection alive. Duplicate sequence numbers
// (a retransmit racing an ack) are acked but not re-applied; a gap is
// a protocol error. A probe that reconnects with a *new* incarnation
// resets its slice of aggregator state entirely and resends from
// sequence 1 — the recovery path for a probe process restart, which
// re-runs its deterministic source rather than resuming a pipeline
// that cannot be resumed.
package epochwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/capture"
	"repro/internal/rollup"
)

// Version is the protocol version this package speaks. The handshake
// carries it explicitly so mismatched peers fail with a reason, not a
// parse error mid-stream. v2 added the CRC32 frame and handshake
// trailers and the pong durable cursor.
const Version = 2

// helloMagic opens both halves of the handshake.
var helloMagic = [4]byte{'E', 'P', 'W', 'R'}

// Message types.
const (
	MsgEpoch = 'E'
	MsgFin   = 'F'
	MsgAck   = 'A'
	MsgPing  = 'P'
	MsgPong  = 'O'
)

// Decoder limits: every declared size is checked before allocation
// (the capture/rollup untrusted-input discipline — the aggregator
// reads from the network).
const (
	// MaxProbeID bounds the probe identity string.
	MaxProbeID = 128
	// MaxReason bounds a handshake rejection reason.
	MaxReason = 512
	// MaxConfigBlob bounds the handshake's zero-epoch snapshot.
	MaxConfigBlob = 1 << 16
	// MaxBlob bounds one epoch snapshot on the wire.
	MaxBlob = 1 << 28
	// MaxPayload bounds a whole message payload.
	MaxPayload = MaxBlob + 64
)

// Message is one post-handshake frame, either direction.
type Message struct {
	Type byte
	// Seq numbers epoch/fin messages from 1 within one probe
	// incarnation; acks echo it.
	Seq uint64
	// Watermark (epoch/fin) is the first bin on the probe's own grid
	// that may still receive data — everything below it is sealed on
	// every shard of the probe's pipeline.
	Watermark uint64
	// Durable (ack, pong) is the highest seq the aggregator has
	// persisted.
	Durable uint64
	// Blob (epoch/fin) is a rollup snapshot: one epoch, or zero epochs
	// plus totals for fin.
	Blob []byte
}

// WriteMessage frames and writes m as a single Write call.
func WriteMessage(w io.Writer, m *Message) error {
	var payload bytes.Buffer
	switch m.Type {
	case MsgEpoch, MsgFin:
		if err := capture.WriteUvarint(&payload, m.Seq); err != nil {
			return err
		}
		if err := capture.WriteUvarint(&payload, m.Watermark); err != nil {
			return err
		}
		if len(m.Blob) > MaxBlob {
			return fmt.Errorf("epochwire: %d-byte epoch blob exceeds the %d-byte limit", len(m.Blob), MaxBlob)
		}
		if err := capture.WriteUvarint(&payload, uint64(len(m.Blob))); err != nil {
			return err
		}
		payload.Write(m.Blob)
	case MsgAck:
		if err := capture.WriteUvarint(&payload, m.Seq); err != nil {
			return err
		}
		if err := capture.WriteUvarint(&payload, m.Durable); err != nil {
			return err
		}
	case MsgPong:
		if err := capture.WriteUvarint(&payload, m.Durable); err != nil {
			return err
		}
	case MsgPing:
		// Empty payload.
	default:
		return fmt.Errorf("epochwire: unknown message type %q", m.Type)
	}
	var frame bytes.Buffer
	frame.WriteByte(m.Type)
	if err := capture.WriteUvarint(&frame, uint64(payload.Len())); err != nil {
		return err
	}
	payload.WriteTo(&frame)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(frame.Bytes()))
	frame.Write(crc[:])
	_, err := w.Write(frame.Bytes())
	return err
}

// crcReader accumulates a CRC32-IEEE over everything read through it,
// so a decoder can parse a frame incrementally and still verify the
// trailer covers exactly the bytes it consumed.
type crcReader struct {
	r   *bufio.Reader
	sum uint32
}

//repro:hotpath
func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		// crc32.Update over one byte, spelled out: handing it a slice of
		// a local makes the local escape, an allocation per byte read.
		sum := ^c.sum
		c.sum = ^(crc32.IEEETable[byte(sum)^b] ^ sum>>8)
	}
	return b, err
}

//repro:hotpath
func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	return n, err
}

// readCRCTrailer reads the 4-byte trailer (bypassing cr) and checks it
// against what cr accumulated.
func readCRCTrailer(r *bufio.Reader, cr *crcReader, what string) error {
	crc, err := r.Peek(4)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // a frame without its trailer is cut short, not closed
		}
		return fmt.Errorf("epochwire: truncated %s crc: %w", what, err)
	}
	got := binary.BigEndian.Uint32(crc)
	r.Discard(4) // cannot fail: Peek just buffered them
	if got != cr.sum {
		return fmt.Errorf("epochwire: %s CRC mismatch (frame says %08x, content sums to %08x)", what, got, cr.sum)
	}
	return nil
}

// ReadMessage reads one framed message. Declared lengths are checked
// against the package limits before allocation; a stream that ends
// mid-message errors with io.ErrUnexpectedEOF, and a payload that does
// not parse to exactly its declared length is a framing error. The
// payload is read whole (through the CRC) and parsed from the slice;
// an epoch's Blob aliases it.
func ReadMessage(r *bufio.Reader) (*Message, error) {
	cr := &crcReader{r: r}
	typ, err := cr.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF // clean close between messages
		}
		return nil, fmt.Errorf("epochwire: reading message type: %w", err)
	}
	n, err := capture.ReadUvarint(cr, MaxPayload, "epochwire message length")
	if err != nil {
		return nil, err
	}
	switch typ {
	case MsgEpoch, MsgFin, MsgAck, MsgPong, MsgPing:
	default:
		// Before the payload: an unknown type buys no buffering.
		return nil, fmt.Errorf("epochwire: unknown message type 0x%02x", typ)
	}
	rest, err := readAll(cr, n, "epochwire message payload")
	if err != nil {
		return nil, err
	}
	m := &Message{Type: typ}
	switch typ {
	case MsgEpoch, MsgFin:
		if m.Seq, rest, err = cutUvarint(rest, ^uint64(0)>>1, "epochwire seq"); err != nil {
			return nil, err
		}
		if m.Watermark, rest, err = cutUvarint(rest, rollup.MaxBins+1, "epochwire watermark"); err != nil {
			return nil, err
		}
		var bl uint64
		if bl, rest, err = cutUvarint(rest, MaxBlob, "epochwire blob length"); err != nil {
			return nil, err
		}
		if uint64(len(rest)) < bl {
			return nil, fmt.Errorf("epochwire: truncated epoch blob (%d of %d bytes): %w", len(rest), bl, io.ErrUnexpectedEOF)
		}
		m.Blob, rest = rest[:bl], rest[bl:]
	case MsgAck:
		if m.Seq, rest, err = cutUvarint(rest, ^uint64(0)>>1, "epochwire ack seq"); err != nil {
			return nil, err
		}
		if m.Durable, rest, err = cutUvarint(rest, ^uint64(0)>>1, "epochwire ack durable"); err != nil {
			return nil, err
		}
	case MsgPong:
		if m.Durable, rest, err = cutUvarint(rest, ^uint64(0)>>1, "epochwire pong durable"); err != nil {
			return nil, err
		}
	case MsgPing:
		// Empty payload.
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("epochwire: message payload longer than its %q content", typ)
	}
	if err := readCRCTrailer(r, cr, "epochwire message"); err != nil {
		return nil, err
	}
	return m, nil
}

// cutUvarint parses one uvarint field off the front of a message
// payload, with capture.ReadUvarint's contract: values above max are
// rejected, and a payload that ends inside the field is truncation.
func cutUvarint(p []byte, max uint64, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n == 0 {
		return 0, nil, fmt.Errorf("epochwire: truncated %s: %w", what, io.ErrUnexpectedEOF)
	}
	if n < 0 {
		return 0, nil, fmt.Errorf("epochwire: %s overflows 64 bits", what)
	}
	return v, p[n:], capture.CheckLimit(v, max, what)
}

// readAllFirst is the most a declared length is trusted for before any
// of its bytes have arrived.
const readAllFirst = 4096

// readAll reads exactly n declared bytes without trusting n for the
// allocation: past the first readAllFirst bytes the buffer grows only
// as bytes actually arrive, so a lying length on a truncated stream
// cannot force a huge up-front alloc.
func readAll(r io.Reader, n uint64, what string) ([]byte, error) {
	buf := make([]byte, 0, min(n, readAllFirst))
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)] // amortized growth, earned by the bytes already read
		}
		m, err := io.ReadFull(r, buf[len(buf):min(uint64(cap(buf)), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF // the stream ended inside a message
			}
			return nil, fmt.Errorf("epochwire: truncated %s (%d of %d bytes): %w", what, len(buf), n, err)
		}
	}
	return buf, nil
}

// Hello is the probe's half of the handshake.
type Hello struct {
	ProbeID     string
	Incarnation uint64
	Cfg         rollup.Config
}

// WriteHello writes the handshake opener.
func WriteHello(w io.Writer, h *Hello) error {
	if len(h.ProbeID) == 0 || len(h.ProbeID) > MaxProbeID {
		return fmt.Errorf("epochwire: probe ID must be 1..%d bytes, got %d", MaxProbeID, len(h.ProbeID))
	}
	blob, err := EncodeConfig(h.Cfg)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Write(helloMagic[:])
	buf.WriteByte(Version)
	if err := capture.WriteString(&buf, h.ProbeID); err != nil {
		return err
	}
	var i64 [8]byte
	binary.BigEndian.PutUint64(i64[:], h.Incarnation)
	buf.Write(i64[:])
	if err := capture.WriteString(&buf, string(blob)); err != nil {
		return err
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	_, err = w.Write(buf.Bytes())
	return err
}

// VersionError reports a handshake from a peer speaking a different
// protocol version — the one error the reader surfaces before parsing
// anything version-dependent.
type VersionError struct{ Got byte }

func (e *VersionError) Error() string {
	return fmt.Sprintf("epochwire: peer speaks protocol version %d, this build speaks %d", e.Got, Version)
}

// ReadHello reads and validates the handshake opener. A version
// mismatch returns *VersionError so the server can reject with a
// reason instead of a parse failure. Note the version check precedes
// the CRC check by necessity — everything after the version byte is
// version-dependent — so a corrupted version byte is indistinguishable
// from a genuine mismatch; the shipper tolerates a bounded number of
// consecutive rejections before latching fatal for exactly this
// reason.
func ReadHello(r *bufio.Reader) (*Hello, error) {
	cr := &crcReader{r: r}
	var magic [4]byte
	if err := capture.ReadFull(cr, magic[:], "epochwire hello magic"); err != nil {
		return nil, err
	}
	if magic != helloMagic {
		return nil, fmt.Errorf("epochwire: bad hello magic %x (want %x)", magic, helloMagic)
	}
	ver, err := cr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("epochwire: truncated hello version: %w", err)
	}
	if ver != Version {
		return nil, &VersionError{Got: ver}
	}
	h := &Hello{}
	if h.ProbeID, err = capture.ReadStringLimited(cr, MaxProbeID, "epochwire probe ID"); err != nil {
		return nil, err
	}
	if len(h.ProbeID) == 0 {
		return nil, fmt.Errorf("epochwire: empty probe ID in hello")
	}
	var i64 [8]byte
	if err := capture.ReadFull(cr, i64[:], "epochwire incarnation"); err != nil {
		return nil, err
	}
	h.Incarnation = binary.BigEndian.Uint64(i64[:])
	blob, err := capture.ReadStringLimited(cr, MaxConfigBlob, "epochwire config blob")
	if err != nil {
		return nil, err
	}
	if err := readCRCTrailer(r, cr, "epochwire hello"); err != nil {
		return nil, err
	}
	if h.Cfg, err = DecodeConfig([]byte(blob)); err != nil {
		return nil, err
	}
	return h, nil
}

// Welcome is the aggregator's half of the handshake.
type Welcome struct {
	// Durable is the aggregator's durable cursor for this probe
	// incarnation: resend from Durable+1.
	Durable uint64
	// Reject, when non-empty, is the refusal reason; the connection
	// closes after it.
	Reject string
}

// WriteWelcome writes the handshake answer.
func WriteWelcome(w io.Writer, wl *Welcome) error {
	var buf bytes.Buffer
	buf.Write(helloMagic[:])
	buf.WriteByte(Version)
	if wl.Reject != "" {
		buf.WriteByte(1)
		reason := wl.Reject
		if len(reason) > MaxReason {
			reason = reason[:MaxReason]
		}
		if err := capture.WriteString(&buf, reason); err != nil {
			return err
		}
	} else {
		buf.WriteByte(0)
		if err := capture.WriteUvarint(&buf, wl.Durable); err != nil {
			return err
		}
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	_, err := w.Write(buf.Bytes())
	return err
}

// ReadWelcome reads the handshake answer. The CRC trailer matters
// most here: the cursor in an accepted Welcome is what the shipper
// prunes its spool against, so a corrupted Welcome must fail the read
// rather than deliver a wrong cursor.
func ReadWelcome(r *bufio.Reader) (*Welcome, error) {
	cr := &crcReader{r: r}
	var magic [4]byte
	if err := capture.ReadFull(cr, magic[:], "epochwire welcome magic"); err != nil {
		return nil, err
	}
	if magic != helloMagic {
		return nil, fmt.Errorf("epochwire: bad welcome magic %x (want %x)", magic, helloMagic)
	}
	ver, err := cr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("epochwire: truncated welcome version: %w", err)
	}
	if ver != Version {
		return nil, &VersionError{Got: ver}
	}
	status, err := cr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("epochwire: truncated welcome status: %w", err)
	}
	wl := &Welcome{}
	switch status {
	case 0:
		if wl.Durable, err = capture.ReadUvarint(cr, ^uint64(0)>>1, "epochwire welcome cursor"); err != nil {
			return nil, err
		}
	case 1:
		if wl.Reject, err = capture.ReadStringLimited(cr, MaxReason, "epochwire reject reason"); err != nil {
			return nil, err
		}
		if wl.Reject == "" {
			return nil, fmt.Errorf("epochwire: rejection with empty reason")
		}
	default:
		return nil, fmt.Errorf("epochwire: unknown welcome status %d", status)
	}
	if err := readCRCTrailer(r, cr, "epochwire welcome"); err != nil {
		return nil, err
	}
	return wl, nil
}

// EncodeConfig encodes a rollup grid config as a zero-epoch snapshot —
// the handshake reuses the snapshot codec (CRC and all) instead of
// inventing a second config encoding. Only the grid (start, step,
// bins, geography) crosses the wire; Lateness is probe-local sealing
// policy.
func EncodeConfig(cfg rollup.Config) ([]byte, error) {
	var buf bytes.Buffer
	enc, err := rollup.NewEncoder(&buf, &rollup.Partial{Cfg: cfg}, 0)
	if err != nil {
		return nil, err
	}
	if err := enc.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeConfig decodes a handshake config blob.
func DecodeConfig(blob []byte) (rollup.Config, error) {
	p, err := rollup.Read(bytes.NewReader(blob))
	if err != nil {
		return rollup.Config{}, fmt.Errorf("epochwire: config blob: %w", err)
	}
	if len(p.Epochs) != 0 {
		return rollup.Config{}, fmt.Errorf("epochwire: config blob carries %d epochs, want none", len(p.Epochs))
	}
	return p.Cfg, nil
}
