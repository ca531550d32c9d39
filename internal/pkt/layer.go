// Package pkt implements the binary packet layers observed by the
// paper's passive probes on the Gn and S5/S8 interfaces: IPv4, UDP and
// TCP for transport, GTPv1-U for the user plane (the tunnelled
// subscriber traffic the probes account), and GTPv1-C / GTPv2-C for
// the control plane (PDP Context and EPS Bearer signalling carrying
// the User Location Information used for geo-referencing).
//
// The API follows the gopacket idiom: every layer implements
// DecodeFromBytes/SerializeTo/LayerType/NextLayerType/LayerPayload,
// and Parser provides the DecodingLayerParser-style fast path that
// decodes a raw frame into a reusable stack of layers without
// allocation.
package pkt

import (
	"fmt"
	"slices"
)

// LayerType identifies a protocol layer.
type LayerType int

// The layer types understood by this package.
const (
	LayerTypeIPv4 LayerType = iota
	LayerTypeUDP
	LayerTypeTCP
	LayerTypeGTPv1U
	LayerTypeGTPv1C
	LayerTypeGTPv2C
	LayerTypePayload
	// LayerTypeNone terminates a decoding chain.
	LayerTypeNone
)

// String returns the conventional protocol name.
func (t LayerType) String() string {
	switch t {
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypeGTPv1U:
		return "GTPv1-U"
	case LayerTypeGTPv1C:
		return "GTPv1-C"
	case LayerTypeGTPv2C:
		return "GTPv2-C"
	case LayerTypePayload:
		return "Payload"
	case LayerTypeNone:
		return "None"
	default:
		return fmt.Sprintf("LayerType(%d)", int(t))
	}
}

// DecodingLayer is the contract every protocol layer implements.
type DecodingLayer interface {
	// DecodeFromBytes parses the layer from the given data, retaining
	// references into it (zero copy) where possible.
	DecodeFromBytes(data []byte) error
	// LayerType identifies the layer.
	LayerType() LayerType
	// NextLayerType reports the type of the payload layer, or
	// LayerTypeNone/LayerTypePayload when unknown.
	NextLayerType() LayerType
	// LayerPayload returns the bytes following this layer's header.
	LayerPayload() []byte
}

// SerializableLayer is implemented by layers that can also encode
// themselves.
type SerializableLayer interface {
	// SerializeTo appends the wire encoding of the layer (header +
	// given payload) to buf and returns the extended slice. Length and
	// checksum fields are fixed up from the payload.
	SerializeTo(buf []byte, payload []byte) []byte
}

// DecodeError reports a malformed packet.
type DecodeError struct {
	Layer  LayerType
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("pkt: %v decode: %s", e.Layer, e.Reason)
}

func errTooShort(t LayerType, need, have int) error {
	return &DecodeError{Layer: t, Reason: fmt.Sprintf("need %d bytes, have %d", need, have)}
}

// IP protocol numbers used by the stack.
const (
	IPProtoTCP = 6
	IPProtoUDP = 17
)

// Well-known GTP ports.
const (
	// PortGTPC carries GTP control traffic (both v1 and v2).
	PortGTPC = 2123
	// PortGTPU carries GTP user-plane tunnels.
	PortGTPU = 2152
)

func be16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func put16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func put32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// extend appends n zero bytes to buf and returns the extended slice
// and the appended bytes: where an AppendHeader writes its header in
// place. It allocates only when buf must grow.
func extend(buf []byte, n int) (ext, tail []byte) {
	ext = slices.Grow(buf, n)[:len(buf)+n]
	tail = ext[len(buf):]
	clear(tail)
	return ext, tail
}
