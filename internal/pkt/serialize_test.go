package pkt

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// refChecksum is the reference the partial-sum encoders are held to:
// materialize the pseudo header, append the whole segment, and sum
// every byte of it in one pass — no composition of sums anywhere.
func refChecksum(src, dst [4]byte, proto uint8, seg []byte) uint16 {
	b := append(append([]byte{}, src[:]...), dst[:]...)
	b = append(b, 0, proto, byte(len(seg)>>8), byte(len(seg)))
	b = append(b, seg...)
	if len(b)%2 == 1 {
		b = append(b, 0)
	}
	var sum uint32
	for i := 0; i < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
		sum = sum>>16 + sum&0xffff
	}
	return ^uint16(sum)
}

// refTCP and refUDP encode a segment the pre-AppendHeader way: header
// and payload first, then one checksum pass over the assembled bytes.
func refTCP(t *TCP, src, dst [4]byte, payload []byte) []byte {
	opts := append([]byte{}, t.Options...)
	for len(opts)%4 != 0 {
		opts = append(opts, 0)
	}
	seg := []byte{
		byte(t.SrcPort >> 8), byte(t.SrcPort), byte(t.DstPort >> 8), byte(t.DstPort),
		byte(t.Seq >> 24), byte(t.Seq >> 16), byte(t.Seq >> 8), byte(t.Seq),
		byte(t.Ack >> 24), byte(t.Ack >> 16), byte(t.Ack >> 8), byte(t.Ack),
		byte((20+len(opts))/4) << 4, t.Flags, byte(t.Window >> 8), byte(t.Window),
		0, 0, byte(t.Urgent >> 8), byte(t.Urgent),
	}
	seg = append(append(seg, opts...), payload...)
	put16(seg[16:], refChecksum(src, dst, IPProtoTCP, seg))
	return seg
}

func refUDP(u *UDP, src, dst [4]byte, payload []byte) []byte {
	n := 8 + len(payload)
	seg := []byte{byte(u.SrcPort >> 8), byte(u.SrcPort), byte(u.DstPort >> 8), byte(u.DstPort), byte(n >> 8), byte(n), 0, 0}
	seg = append(seg, payload...)
	cs := refChecksum(src, dst, IPProtoUDP, seg)
	if cs == 0 {
		cs = 0xffff
	}
	put16(seg[6:], cs)
	return seg
}

// checkAppendHeader holds both transports to the reference for one
// (header fields, options, payload) input, through AppendHeader with a
// stated sum and through SerializeTo, and has the decoder re-verify.
func checkAppendHeader(t *testing.T, srcPort, dstPort uint16, seq uint32, opts, payload []byte) {
	t.Helper()
	opts = opts[:min(len(opts), 40)] // the data-offset nibble's bound
	ip := &IPv4{SrcIP: ueIP, DstIP: serverIP}

	tc := &TCP{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ^seq, Flags: TCPAck | TCPPsh, Window: 4096, Urgent: 7, Options: opts}
	tc.SetChecksumIPs(ueIP, serverIP)
	want := refTCP(tc, ueIP, serverIP, payload)
	prefix := []byte{0xaa} // an odd arena offset must not matter
	got := append(tc.AppendHeader(prefix, len(payload), Sum(payload)), payload...)
	if !bytes.Equal(got[1:], want) {
		t.Fatalf("TCP AppendHeader (opts %d, payload %d):\n got %x\nwant %x", len(opts), len(payload), got[1:], want)
	}
	if got := tc.SerializeTo(nil, payload); !bytes.Equal(got, want) {
		t.Fatalf("TCP SerializeTo (opts %d, payload %d):\n got %x\nwant %x", len(opts), len(payload), got, want)
	}
	var dec TCP
	if err := dec.DecodeFromBytes(want); err != nil || !dec.VerifyChecksum(ip) {
		t.Fatalf("TCP segment does not verify (err %v): %x", err, want)
	}

	u := &UDP{SrcPort: srcPort, DstPort: dstPort}
	u.SetChecksumIPs(ueIP, serverIP)
	want = refUDP(u, ueIP, serverIP, payload)
	got = append(u.AppendHeader(prefix, len(payload), Sum(payload)), payload...)
	if !bytes.Equal(got[1:], want) {
		t.Fatalf("UDP AppendHeader (payload %d):\n got %x\nwant %x", len(payload), got[1:], want)
	}
	if got := u.SerializeTo(nil, payload); !bytes.Equal(got, want) {
		t.Fatalf("UDP SerializeTo (payload %d):\n got %x\nwant %x", len(payload), got, want)
	}
	var decU UDP
	if err := decU.DecodeFromBytes(want); err != nil || !decU.VerifyChecksum(ip) {
		t.Fatalf("UDP datagram does not verify (err %v): %x", err, want)
	}
}

// zeroSumUDPPayload returns a 2-byte payload that makes the datagram's
// ones'-complement sum come out as zero, so the transmitted checksum
// must be 0xffff (RFC 768): the payload word is the checksum of the
// same datagram carrying 00 00.
func zeroSumUDPPayload(srcPort, dstPort uint16) []byte {
	seg := []byte{byte(srcPort >> 8), byte(srcPort), byte(dstPort >> 8), byte(dstPort), 0, 10, 0, 0, 0, 0}
	cs := refChecksum(ueIP, serverIP, IPProtoUDP, seg)
	return []byte{byte(cs >> 8), byte(cs)}
}

// TestAppendHeaderMatchesWholeSegmentSum is the partial-sum contract:
// a header encoded from (payload length, payload sum) equals the bytes
// of an encoder that sums the assembled segment, for empty, odd and
// even payloads and every TCP options length the data offset allows.
func TestAppendHeaderMatchesWholeSegmentSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 0x706b74))
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	for optLen := 0; optLen <= 40; optLen++ {
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1339, 1340, rng.IntN(1500)} {
			checkAppendHeader(t, uint16(rng.Uint32()), uint16(rng.Uint32()), rng.Uint32(), random(optLen), random(n))
		}
	}
	// All-ones payloads drive the unfolded sum as high as it goes.
	checkAppendHeader(t, 0xffff, 0xffff, 0xffffffff, bytes.Repeat([]byte{0xff}, 40), bytes.Repeat([]byte{0xff}, 65000))

	payload := zeroSumUDPPayload(53, 40000)
	checkAppendHeader(t, 53, 40000, 0, nil, payload)
	u := &UDP{SrcPort: 53, DstPort: 40000}
	u.SetChecksumIPs(ueIP, serverIP)
	if hdr := u.AppendHeader(nil, len(payload), Sum(payload)); be16(hdr[6:]) != 0xffff {
		t.Errorf("zero-sum datagram carries checksum %#04x, want 0xffff", be16(hdr[6:]))
	}
}

// FuzzAppendHeader lets the fuzzer look for an input on which the
// composed sum and the whole-segment sum disagree.
func FuzzAppendHeader(f *testing.F) {
	f.Add(uint16(443), uint16(50000), uint32(1), []byte{}, []byte{})
	f.Add(uint16(443), uint16(50000), uint32(1<<31), []byte{1, 3, 3}, []byte("odd"))
	f.Add(uint16(0), uint16(0), uint32(0), bytes.Repeat([]byte{0xff}, 40), bytes.Repeat([]byte{0xff}, 1340))
	f.Add(uint16(53), uint16(40000), uint32(0), []byte{2, 4, 5, 0xb4, 1, 1}, zeroSumUDPPayload(53, 40000))
	f.Fuzz(func(t *testing.T, srcPort, dstPort uint16, seq uint32, opts, payload []byte) {
		if len(payload) > 65000 {
			return
		}
		checkAppendHeader(t, srcPort, dstPort, seq, opts, payload)
	})
}
