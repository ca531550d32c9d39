// Package epochwire is the distributed-collection plane: a versioned,
// length-prefixed TCP protocol that ships sealed rollup epochs from
// probes (cmd/probesim -aggr) to a merging aggregator (cmd/aggd).
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
//	probe → agg   Hello: magic "EPWR", version byte, probe ID string
//	              (1..128 bytes of [A-Za-z0-9._-]), incarnation (8
//	              bytes BE, random per process), grid config as a
//	              zero-epoch snapshot blob (uvarint length + bytes),
//	              CRC32-IEEE of all the above (4 bytes BE)
//	agg → probe   Welcome: magic "EPWR", version byte, status byte
//	              (0 = accepted: durable-cursor uvarint follows;
//	              1 = rejected: reason string follows, conn closes),
//	              CRC32-IEEE trailer as in Hello
//
// The aggregator rejects a version it does not speak, a probe ID with
// any other byte in it, and a grid that is not union-compatible with
// the grids it already aggregates (same step and geography, start a
// whole number of steps apart). The durable cursor is the highest
// message sequence number of this probe incarnation the aggregator has
// durably applied: the probe resumes from the next one, which is what
// makes reconnects — and aggregator restarts from a state file —
// exactly-once.
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
//	            uvarint (highest seq committed to the state log — the
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
	"strings"

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

// wireTypes is every message type a connection carries after the
// handshake.
const wireTypes = "EFAPO"

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

// appendFrame appends one [type][uvarint length][payload][crc32] frame
// to dst, the payload being head then body. It is the only frame
// encoder, for the wire's messages and the state log's records alike.
func appendFrame(dst []byte, typ byte, head, body []byte) []byte {
	start := len(dst)
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(head)+len(body)))
	return appendCRC(append(append(dst, head...), body...), start)
}

// appendMessage appends m's frame to dst. m is a message WriteMessage
// would accept (a known type, a blob within MaxBlob).
func appendMessage(dst []byte, m *Message) []byte {
	head := make([]byte, 0, 3*binary.MaxVarintLen64)
	var blob []byte
	switch m.Type {
	case MsgEpoch, MsgFin:
		head = binary.AppendUvarint(head, m.Seq)
		head = binary.AppendUvarint(head, m.Watermark)
		head = binary.AppendUvarint(head, uint64(len(m.Blob)))
		blob = m.Blob
	case MsgAck:
		head = binary.AppendUvarint(head, m.Seq)
		head = binary.AppendUvarint(head, m.Durable)
	case MsgPong:
		head = binary.AppendUvarint(head, m.Durable)
	}
	return appendFrame(dst, m.Type, head, blob)
}

// WriteMessage frames and writes m as a single Write call.
func WriteMessage(w io.Writer, m *Message) error {
	if strings.IndexByte(wireTypes, m.Type) < 0 {
		return fmt.Errorf("epochwire: unknown message type %q", m.Type)
	}
	if len(m.Blob) > MaxBlob {
		return fmt.Errorf("epochwire: %d-byte epoch blob exceeds the %d-byte limit", len(m.Blob), MaxBlob)
	}
	_, err := w.Write(appendMessage(nil, m))
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

// readFrame reads one frame and verifies its CRC — the only frame
// decoder, under the wire and under the state log alike. A type not in
// accept is refused before its payload is buffered, a declared length
// is checked against the package limits before allocation; a stream
// that ends between frames is io.EOF, inside one io.ErrUnexpectedEOF.
func readFrame(r *bufio.Reader, accept string) (byte, []byte, error) {
	cr := &crcReader{r: r}
	typ, err := cr.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF // clean close between messages
		}
		return 0, nil, fmt.Errorf("epochwire: reading message type: %w", err)
	}
	n, err := capture.ReadUvarint(cr, MaxPayload, "epochwire message length")
	if err != nil {
		return 0, nil, err
	}
	if strings.IndexByte(accept, typ) < 0 {
		return 0, nil, fmt.Errorf("epochwire: unknown message type 0x%02x", typ)
	}
	payload, err := readAll(cr, n, "epochwire message payload")
	if err != nil {
		return 0, nil, err
	}
	return typ, payload, readCRCTrailer(r, cr, "epochwire message")
}

// ReadMessage reads one framed message. A payload that does not parse
// to exactly its declared length is a framing error; an epoch's Blob
// aliases the payload.
func ReadMessage(r *bufio.Reader) (*Message, error) {
	typ, payload, err := readFrame(r, wireTypes)
	if err != nil {
		return nil, err
	}
	return parseMessage(typ, payload)
}

// parseMessage decodes a frame's payload as the message its type names.
func parseMessage(typ byte, rest []byte) (m *Message, err error) {
	m = &Message{Type: typ}
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
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("epochwire: message payload longer than its %q content", typ)
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

// errProbeID marks a probe ID outside what the plane accepts. IDs end
// up in metric labels, log lines and the state log, so they are 1 to
// MaxProbeID bytes of [A-Za-z0-9._-] and nothing else.
var errProbeID = errors.New("epochwire: invalid probe ID")

// checkProbeID is the one probe ID validator: the shipper runs it before
// dialing, both ends of the handshake run it on the hello.
func checkProbeID(id string) error {
	if len(id) == 0 || len(id) > MaxProbeID {
		return fmt.Errorf("%w: must be 1..%d bytes, got %d", errProbeID, MaxProbeID, len(id))
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return fmt.Errorf("%w %q: only letters, digits, '.', '_' and '-' are allowed", errProbeID, id)
		}
	}
	return nil
}

// appendString appends s in the tree's string encoding (capture's):
// uvarint length, then the bytes.
func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendCRC closes a frame or handshake half: the CRC32-IEEE of
// dst[from:], 4 bytes BE.
func appendCRC(dst []byte, from int) []byte {
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[from:]))
}

// appendHello appends the encoded handshake opener to dst.
func appendHello(dst []byte, h *Hello) ([]byte, error) {
	if err := checkProbeID(h.ProbeID); err != nil {
		return nil, err
	}
	blob, err := EncodeConfig(h.Cfg)
	if err != nil {
		return nil, err
	}
	from := len(dst)
	dst = append(append(dst, helloMagic[:]...), Version)
	dst = appendString(dst, h.ProbeID)
	dst = binary.BigEndian.AppendUint64(dst, h.Incarnation)
	return appendCRC(appendString(dst, string(blob)), from), nil
}

// WriteHello writes the handshake opener.
func WriteHello(w io.Writer, h *Hello) error {
	b, err := appendHello(nil, h)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// VersionError reports a handshake from a peer speaking a different
// protocol version — the one error the reader surfaces before parsing
// anything version-dependent.
type VersionError struct{ Got byte }

func (e *VersionError) Error() string {
	return fmt.Sprintf("epochwire: peer speaks protocol version %d, this build speaks %d", e.Got, Version)
}

// readHandshakeHead reads what opens both halves of the handshake: the
// magic, and a version byte this build speaks.
func readHandshakeHead(cr *crcReader, what string) error {
	var magic [4]byte
	if err := capture.ReadFull(cr, magic[:], "epochwire "+what+" magic"); err != nil {
		return err
	}
	if magic != helloMagic {
		return fmt.Errorf("epochwire: bad %s magic %x (want %x)", what, magic, helloMagic)
	}
	ver, err := cr.ReadByte()
	if err != nil {
		return fmt.Errorf("epochwire: truncated %s version: %w", what, err)
	}
	if ver != Version {
		return &VersionError{Got: ver}
	}
	return nil
}

// ReadHello reads and validates the handshake opener. A version
// mismatch returns *VersionError, and a probe ID that arrived intact
// (the CRC held) but is not one checkProbeID accepts an errProbeID, so
// the server can reject with a reason instead of a parse failure. Note
// the version check precedes
// the CRC check by necessity — everything after the version byte is
// version-dependent — so a corrupted version byte is indistinguishable
// from a genuine mismatch; the shipper tolerates a bounded number of
// consecutive rejections before latching fatal for exactly this
// reason.
func ReadHello(r *bufio.Reader) (*Hello, error) {
	cr := &crcReader{r: r}
	err := readHandshakeHead(cr, "hello")
	if err != nil {
		return nil, err
	}
	h := &Hello{}
	if h.ProbeID, err = capture.ReadStringLimited(cr, MaxProbeID, "epochwire probe ID"); err != nil {
		return nil, err
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
	if err := checkProbeID(h.ProbeID); err != nil {
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
	b := append(append([]byte(nil), helloMagic[:]...), Version)
	if wl.Reject != "" {
		b = appendString(append(b, 1), wl.Reject[:min(len(wl.Reject), MaxReason)])
	} else {
		b = binary.AppendUvarint(append(b, 0), wl.Durable)
	}
	_, err := w.Write(appendCRC(b, 0))
	return err
}

// ReadWelcome reads the handshake answer. The CRC trailer matters
// most here: the cursor in an accepted Welcome is what the shipper
// prunes its spool against, so a corrupted Welcome must fail the read
// rather than deliver a wrong cursor.
func ReadWelcome(r *bufio.Reader) (*Welcome, error) {
	cr := &crcReader{r: r}
	if err := readHandshakeHead(cr, "welcome"); err != nil {
		return nil, err
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
	if err := rollup.Write(&buf, &rollup.Partial{Cfg: cfg}); err != nil {
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
