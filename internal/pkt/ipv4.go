package pkt

// IPv4 is the Internet Protocol version 4 header (RFC 791). Options
// are preserved as raw bytes.
type IPv4 struct {
	Version  uint8
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	Length   uint16 // total length including header
	ID       uint16
	Flags    uint8  // 3 bits
	FragOff  uint16 // 13 bits
	TTL      uint8
	Protocol uint8
	Checksum uint16
	SrcIP    [4]byte
	DstIP    [4]byte
	Options  []byte

	payload []byte
}

// LayerType implements DecodingLayer.
func (ip *IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// LayerPayload implements DecodingLayer.
func (ip *IPv4) LayerPayload() []byte { return ip.payload }

// NextLayerType implements DecodingLayer.
func (ip *IPv4) NextLayerType() LayerType {
	switch ip.Protocol {
	case IPProtoTCP:
		return LayerTypeTCP
	case IPProtoUDP:
		return LayerTypeUDP
	default:
		return LayerTypePayload
	}
}

// DecodeFromBytes implements DecodingLayer. It validates the header
// length, total length and checksum.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return errTooShort(LayerTypeIPv4, 20, len(data))
	}
	ip.Version = data[0] >> 4
	if ip.Version != 4 {
		return &DecodeError{LayerTypeIPv4, "version is not 4"}
	}
	ip.IHL = data[0] & 0x0f
	hdrLen := int(ip.IHL) * 4
	if hdrLen < 20 {
		return &DecodeError{LayerTypeIPv4, "header length below 20 bytes"}
	}
	if len(data) < hdrLen {
		return errTooShort(LayerTypeIPv4, hdrLen, len(data))
	}
	ip.TOS = data[1]
	ip.Length = be16(data[2:])
	if int(ip.Length) < hdrLen {
		return &DecodeError{LayerTypeIPv4, "total length below header length"}
	}
	if int(ip.Length) > len(data) {
		return &DecodeError{LayerTypeIPv4, "total length beyond captured data"}
	}
	ip.ID = be16(data[4:])
	ip.Flags = data[6] >> 5
	ip.FragOff = be16(data[6:]) & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = be16(data[10:])
	copy(ip.SrcIP[:], data[12:16])
	copy(ip.DstIP[:], data[16:20])
	ip.Options = data[20:hdrLen]
	if Checksum(data[:hdrLen]) != 0 {
		return &DecodeError{LayerTypeIPv4, "header checksum mismatch"}
	}
	ip.payload = data[hdrLen:ip.Length]
	return nil
}

// AppendHeader appends the header of a packet whose payload will be
// payloadLen bytes, with Length and Checksum computed and Options
// zero-padded to a 32-bit boundary. The header is written in place in
// buf, so encoding never allocates — growth is the caller's append.
func (ip *IPv4) AppendHeader(buf []byte, payloadLen int) []byte {
	hdrLen := 20 + padded4(len(ip.Options))
	buf, hdr := extend(buf, hdrLen)
	hdr[0] = 4<<4 | uint8(hdrLen/4)
	hdr[1] = ip.TOS
	put16(hdr[2:], uint16(hdrLen+payloadLen))
	put16(hdr[4:], ip.ID)
	put16(hdr[6:], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	hdr[8] = ip.TTL
	hdr[9] = ip.Protocol
	copy(hdr[12:16], ip.SrcIP[:])
	copy(hdr[16:20], ip.DstIP[:])
	copy(hdr[20:], ip.Options)
	put16(hdr[10:], Checksum(hdr))
	return buf
}

// SerializeTo implements SerializableLayer.
func (ip *IPv4) SerializeTo(buf []byte, payload []byte) []byte {
	return append(ip.AppendHeader(buf, len(payload)), payload...)
}

// padded4 rounds an options length up to a multiple of 4.
func padded4(n int) int { return (n + 3) &^ 3 }

// Sum returns the unfolded ones'-complement sum of data taken as
// big-endian 16-bit words, an odd last byte padded with zero (RFC
// 1071). Sums add: the sum of a buffer is the sum of its parts,
// provided every part but the last has even length — which is what
// lets a TCP or UDP AppendHeader take its payload's sum instead of its
// payload. Exact for inputs up to 128 KiB.
func Sum(data []byte) uint32 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	return sum
}

// fold reduces an unfolded sum to the 16-bit checksum field value: the
// ones' complement of the ones'-complement sum.
func fold(sum uint32) uint16 {
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// Checksum computes the RFC 1071 Internet checksum of data. A buffer
// containing a correct checksum field sums to zero.
func Checksum(data []byte) uint16 { return fold(Sum(data)) }

// transportChecksum is the checksum field of a TCP or UDP segment of
// length bytes between src and dst: the pseudo header, plus the
// segment's leading bytes head (even length, checksum field zero or,
// to verify, as received), plus restSum, the Sum of the bytes after
// head. A received segment passed whole as head yields 0 when intact.
func transportChecksum(src, dst [4]byte, proto uint8, length int, head []byte, restSum uint32) uint16 {
	return fold(Sum(src[:]) + Sum(dst[:]) + uint32(proto) + uint32(length) + Sum(head) + restSum)
}
