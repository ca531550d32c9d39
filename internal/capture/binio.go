package capture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Shared binary-codec helpers for the persistence formats of the
// measurement plane (the trace format in this package and the rollup
// snapshot format in internal/rollup). They enforce the two guards
// every untrusted decoder here needs: declared sizes are checked
// against explicit limits before any allocation, and short reads
// surface as truncation errors rather than io.EOF mid-record.

// WriteUvarint appends v in unsigned varint encoding.
func WriteUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

// ReadUvarint reads an unsigned varint and rejects values above max,
// so a corrupt or adversarial stream cannot smuggle in an enormous
// count or length. what names the field in the error.
func ReadUvarint(r io.ByteReader, max uint64, what string) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return 0, fmt.Errorf("capture: truncated %s: %w", what, io.ErrUnexpectedEOF)
		}
		return 0, fmt.Errorf("capture: reading %s: %w", what, err)
	}
	return v, CheckLimit(v, max, what)
}

// CheckLimit errors when a declared size or count exceeds its limit.
func CheckLimit(v, max uint64, what string) error {
	if v > max {
		return fmt.Errorf("capture: %s of %d exceeds the limit of %d", what, v, max)
	}
	return nil
}

// WriteFloat64 appends the IEEE-754 bits of v, big-endian.
func WriteFloat64(w io.Writer, v float64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
	_, err := w.Write(buf[:])
	return err
}

// ReadFull fills p or reports the field as truncated. Unlike
// io.ReadFull it never returns a bare io.EOF: a record that ends
// mid-field is corruption, not a clean end of stream.
func ReadFull(r io.Reader, p []byte, what string) error {
	if _, err := io.ReadFull(r, p); err != nil {
		return fmt.Errorf("capture: truncated %s: %w", what, err)
	}
	return nil
}

type byteAndFullReader interface {
	io.ByteReader
	io.Reader
}

// ReadStringLimited reads a uvarint-prefixed string of at most maxLen
// bytes. The limit applies before the allocation.
func ReadStringLimited(r byteAndFullReader, maxLen uint64, what string) (string, error) {
	n, err := ReadUvarint(r, maxLen, what+" length")
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if err := ReadFull(r, buf, what); err != nil {
		return "", err
	}
	return string(buf), nil
}

// WriteString appends a uvarint length prefix and the string bytes.
func WriteString(w io.Writer, s string) error {
	if err := WriteUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}
