package pkt

// UDP is the User Datagram Protocol header (RFC 768). Checksum
// verification requires the enclosing IPv4 addresses; DecodeFromBytes
// alone checks structure, and VerifyChecksum can be called with the IP
// layer when end-to-end validation is wanted.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16

	payload []byte
	raw     []byte
	csumIPs ipPair
	csum    bool // SetChecksumIPs was called
}

// LayerType implements DecodingLayer.
func (u *UDP) LayerType() LayerType { return LayerTypeUDP }

// LayerPayload implements DecodingLayer.
func (u *UDP) LayerPayload() []byte { return u.payload }

// NextLayerType implements DecodingLayer: GTP demultiplexing happens on
// the well-known destination (or source, for responses) port.
func (u *UDP) NextLayerType() LayerType {
	switch {
	case u.DstPort == PortGTPU || u.SrcPort == PortGTPU:
		return LayerTypeGTPv1U
	case u.DstPort == PortGTPC || u.SrcPort == PortGTPC:
		// GTPv1-C and GTPv2-C share the port; the version nibble in the
		// first payload byte disambiguates.
		if len(u.payload) > 0 && u.payload[0]>>5 == 2 {
			return LayerTypeGTPv2C
		}
		return LayerTypeGTPv1C
	default:
		return LayerTypePayload
	}
}

// DecodeFromBytes implements DecodingLayer.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return errTooShort(LayerTypeUDP, 8, len(data))
	}
	u.SrcPort = be16(data)
	u.DstPort = be16(data[2:])
	u.Length = be16(data[4:])
	u.Checksum = be16(data[6:])
	if int(u.Length) < 8 {
		return &DecodeError{LayerTypeUDP, "length below 8"}
	}
	if int(u.Length) > len(data) {
		return &DecodeError{LayerTypeUDP, "length beyond captured data"}
	}
	u.raw = data[:u.Length]
	u.payload = data[8:u.Length]
	return nil
}

// VerifyChecksum checks the UDP checksum against the pseudo header of
// the enclosing IP packet. A zero checksum means "not computed" and
// passes (RFC 768).
func (u *UDP) VerifyChecksum(ip *IPv4) bool {
	if u.Checksum == 0 {
		return true
	}
	return transportChecksum(ip.SrcIP, ip.DstIP, IPProtoUDP, len(u.raw), u.raw, 0) == 0
}

// AppendHeader appends the header of a datagram whose payload will be
// payloadLen bytes summing to payloadSum (see Sum). The checksum is
// computed when SetChecksumIPs was called; otherwise it is left zero
// (legal for UDP over IPv4) and payloadSum is not used.
func (u *UDP) AppendHeader(buf []byte, payloadLen int, payloadSum uint32) []byte {
	buf, hdr := extend(buf, 8)
	put16(hdr, u.SrcPort)
	put16(hdr[2:], u.DstPort)
	put16(hdr[4:], uint16(8+payloadLen))
	if u.csum {
		cs := transportChecksum(u.csumIPs[0], u.csumIPs[1], IPProtoUDP, 8+payloadLen, hdr, payloadSum)
		if cs == 0 {
			cs = 0xffff // RFC 768: transmitted as all ones
		}
		put16(hdr[6:], cs)
	}
	return buf
}

// SerializeTo implements SerializableLayer.
func (u *UDP) SerializeTo(buf []byte, payload []byte) []byte {
	return append(u.AppendHeader(buf, len(payload), Sum(payload)), payload...)
}

// ipPair is the (src, dst) address pair of a pseudo header.
type ipPair = [2][4]byte

// SetChecksumIPs arms checksum computation for AppendHeader and
// SerializeTo using the given IP endpoints.
func (u *UDP) SetChecksumIPs(src, dst [4]byte) { u.csumIPs, u.csum = ipPair{src, dst}, true }

// TCP is the Transmission Control Protocol header (RFC 9293), options
// preserved raw.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8 // header length in 32-bit words
	Flags            uint8 // CWR|ECE|URG|ACK|PSH|RST|SYN|FIN
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []byte

	payload []byte
	raw     []byte
	csumIPs ipPair
	csum    bool // SetChecksumIPs was called
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)

// LayerType implements DecodingLayer.
func (t *TCP) LayerType() LayerType { return LayerTypeTCP }

// LayerPayload implements DecodingLayer.
func (t *TCP) LayerPayload() []byte { return t.payload }

// NextLayerType implements DecodingLayer.
func (t *TCP) NextLayerType() LayerType { return LayerTypePayload }

// DecodeFromBytes implements DecodingLayer.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return errTooShort(LayerTypeTCP, 20, len(data))
	}
	t.SrcPort = be16(data)
	t.DstPort = be16(data[2:])
	t.Seq = be32(data[4:])
	t.Ack = be32(data[8:])
	t.DataOffset = data[12] >> 4
	hdrLen := int(t.DataOffset) * 4
	if hdrLen < 20 {
		return &DecodeError{LayerTypeTCP, "data offset below 5 words"}
	}
	if len(data) < hdrLen {
		return errTooShort(LayerTypeTCP, hdrLen, len(data))
	}
	t.Flags = data[13]
	t.Window = be16(data[14:])
	t.Checksum = be16(data[16:])
	t.Urgent = be16(data[18:])
	t.Options = data[20:hdrLen]
	t.raw = data
	t.payload = data[hdrLen:]
	return nil
}

// VerifyChecksum checks the TCP checksum against the enclosing IP
// pseudo header.
func (t *TCP) VerifyChecksum(ip *IPv4) bool {
	return transportChecksum(ip.SrcIP, ip.DstIP, IPProtoTCP, len(t.raw), t.raw, 0) == 0
}

// AppendHeader appends the header — Options zero-padded to a 32-bit
// boundary — of a segment whose payload will be payloadLen bytes
// summing to payloadSum (see Sum; the header length is even, so the
// sums compose). The checksum is computed when SetChecksumIPs was
// called; otherwise it is left zero and payloadSum is not used.
func (t *TCP) AppendHeader(buf []byte, payloadLen int, payloadSum uint32) []byte {
	hdrLen := 20 + padded4(len(t.Options))
	buf, hdr := extend(buf, hdrLen)
	put16(hdr, t.SrcPort)
	put16(hdr[2:], t.DstPort)
	put32(hdr[4:], t.Seq)
	put32(hdr[8:], t.Ack)
	hdr[12] = uint8(hdrLen/4) << 4
	hdr[13] = t.Flags
	put16(hdr[14:], t.Window)
	put16(hdr[18:], t.Urgent)
	copy(hdr[20:], t.Options)
	if t.csum {
		put16(hdr[16:], transportChecksum(t.csumIPs[0], t.csumIPs[1], IPProtoTCP, hdrLen+payloadLen, hdr, payloadSum))
	}
	return buf
}

// SerializeTo implements SerializableLayer.
func (t *TCP) SerializeTo(buf []byte, payload []byte) []byte {
	return append(t.AppendHeader(buf, len(payload), Sum(payload)), payload...)
}

// SetChecksumIPs arms checksum computation for AppendHeader and
// SerializeTo.
func (t *TCP) SetChecksumIPs(src, dst [4]byte) { t.csumIPs, t.csum = ipPair{src, dst}, true }
