package pkt

// GTPv1U is the GPRS Tunnelling Protocol v1 user-plane header
// (3GPP TS 29.281). The probes inspect it on port 2152 of the Gn and
// S5/S8 interfaces to account subscriber traffic per tunnel (TEID).
type GTPv1U struct {
	// Flags byte: version (3 bits), PT, reserved, E, S, PN.
	MessageType uint8 // 0xFF = G-PDU (encapsulated user packet)
	Length      uint16
	TEID        uint32
	// Sequence is valid when HasSeq (S flag) is set.
	HasSeq   bool
	Sequence uint16

	payload []byte
}

// GTPv1-U message types used by the simulator.
const (
	GTPMsgEchoRequest  = 1
	GTPMsgEchoResponse = 2
	GTPMsgGPDU         = 0xFF
)

// LayerType implements DecodingLayer.
func (g *GTPv1U) LayerType() LayerType { return LayerTypeGTPv1U }

// LayerPayload implements DecodingLayer.
func (g *GTPv1U) LayerPayload() []byte { return g.payload }

// NextLayerType implements DecodingLayer: a G-PDU encapsulates the
// subscriber's IP packet.
func (g *GTPv1U) NextLayerType() LayerType {
	if g.MessageType == GTPMsgGPDU {
		return LayerTypeIPv4
	}
	return LayerTypePayload
}

// DecodeFromBytes implements DecodingLayer.
func (g *GTPv1U) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return errTooShort(LayerTypeGTPv1U, 8, len(data))
	}
	flags := data[0]
	if flags>>5 != 1 {
		return &DecodeError{LayerTypeGTPv1U, "version is not 1"}
	}
	if flags&0x10 == 0 {
		return &DecodeError{LayerTypeGTPv1U, "PT flag not set (GTP')"}
	}
	g.MessageType = data[1]
	g.Length = be16(data[2:])
	g.TEID = be32(data[4:])
	hdrLen := 8
	g.HasSeq = flags&0x02 != 0
	ext := flags&0x04 != 0
	pn := flags&0x01 != 0
	if g.HasSeq || ext || pn {
		// Optional fields occupy 4 bytes when any flag is set.
		if len(data) < 12 {
			return errTooShort(LayerTypeGTPv1U, 12, len(data))
		}
		g.Sequence = be16(data[8:])
		if ext && data[11] != 0 {
			return &DecodeError{LayerTypeGTPv1U, "extension headers unsupported"}
		}
		hdrLen = 12
	}
	end := 8 + int(g.Length)
	if end > len(data) {
		return &DecodeError{LayerTypeGTPv1U, "length beyond captured data"}
	}
	if hdrLen > end {
		return &DecodeError{LayerTypeGTPv1U, "optional header beyond message length"}
	}
	g.payload = data[hdrLen:end]
	return nil
}

// AppendHeader appends the header of a message whose payload will be
// payloadLen bytes.
func (g *GTPv1U) AppendHeader(buf []byte, payloadLen int) []byte {
	flags := byte(1<<5 | 0x10)
	optLen := 0
	if g.HasSeq {
		flags |= 0x02
		optLen = 4
	}
	buf, hdr := extend(buf, 8+optLen)
	hdr[0] = flags
	hdr[1] = g.MessageType
	put16(hdr[2:], uint16(optLen+payloadLen))
	put32(hdr[4:], g.TEID)
	if g.HasSeq {
		put16(hdr[8:], g.Sequence)
	}
	return buf
}

// SerializeTo implements SerializableLayer.
func (g *GTPv1U) SerializeTo(buf []byte, payload []byte) []byte {
	return append(g.AppendHeader(buf, len(payload)), payload...)
}
