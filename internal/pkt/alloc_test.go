package pkt

import "testing"

// buildGPDU assembles a clean GTP-U G-PDU frame carrying a TCP segment
// — the hot-path shape the probe decodes millions of times per run.
func buildGPDU(payload int) []byte {
	ue := [4]byte{10, 0, 0, 1}
	server := [4]byte{203, 1, 0, 1}
	tcp := &TCP{SrcPort: 443, DstPort: 50000, Flags: TCPAck}
	tcp.SetChecksumIPs(server, ue)
	inner := (&IPv4{TTL: 60, Protocol: IPProtoTCP, SrcIP: server, DstIP: ue}).SerializeTo(nil, tcp.SerializeTo(nil, make([]byte, payload)))
	tun := (&GTPv1U{MessageType: GTPMsgGPDU, TEID: 7}).SerializeTo(nil, inner)
	seg := (&UDP{SrcPort: 31000, DstPort: PortGTPU}).SerializeTo(nil, tun)
	return (&IPv4{TTL: 64, Protocol: IPProtoUDP, SrcIP: [4]byte{172, 16, 0, 2}, DstIP: [4]byte{172, 16, 0, 1}}).SerializeTo(nil, seg)
}

// TestDecodeZeroAllocs pins the parser's zero-allocation contract: in
// steady state (decoded-slice capacity established), Decode of a clean
// user-plane frame performs no heap allocation per frame. A regression
// here silently re-introduces per-frame garbage across every probe
// shard, so the budget is exactly zero.
func TestDecodeZeroAllocs(t *testing.T) {
	frame := buildGPDU(1340)
	var p Parser
	var decoded []LayerType
	var err error
	// Warm-up: grows the decoded slice to its steady-state capacity.
	if decoded, err = p.Decode(frame, decoded); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		decoded, err = p.Decode(frame, decoded)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Parser.Decode allocates %.1f objects per clean frame, want 0", allocs)
	}
}

// TestSerializeAppendOnlyAllocs pins the serializers' discipline: with
// a caller-provided buffer of sufficient capacity, building a full
// G-PDU frame allocates nothing (headers are written in place).
func TestSerializeAppendOnlyAllocs(t *testing.T) {
	ue := [4]byte{10, 0, 0, 1}
	server := [4]byte{203, 1, 0, 1}
	payload := make([]byte, 1340)
	bufTCP := make([]byte, 0, 2048)
	bufIP := make([]byte, 0, 2048)
	bufGTP := make([]byte, 0, 2048)
	bufSeg := make([]byte, 0, 2048)
	bufOut := make([]byte, 0, 2048)
	allocs := testing.AllocsPerRun(200, func() {
		tcp := &TCP{SrcPort: 443, DstPort: 50000, Flags: TCPAck}
		tcp.SetChecksumIPs(server, ue)
		bufTCP = tcp.SerializeTo(bufTCP[:0], payload)
		inner := &IPv4{TTL: 60, Protocol: IPProtoTCP, SrcIP: server, DstIP: ue}
		bufIP = inner.SerializeTo(bufIP[:0], bufTCP)
		gtpu := &GTPv1U{MessageType: GTPMsgGPDU, TEID: 7}
		bufGTP = gtpu.SerializeTo(bufGTP[:0], bufIP)
		udp := &UDP{SrcPort: 31000, DstPort: PortGTPU}
		bufSeg = udp.SerializeTo(bufSeg[:0], bufGTP)
		ip := &IPv4{TTL: 64, Protocol: IPProtoUDP, SrcIP: [4]byte{172, 16, 0, 2}, DstIP: [4]byte{172, 16, 0, 1}}
		bufOut = ip.SerializeTo(bufOut[:0], bufSeg)
	})
	if allocs != 0 {
		t.Errorf("frame serialization allocates %.1f objects, want 0", allocs)
	}
}
