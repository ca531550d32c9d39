package epochwire

import (
	"bufio"
	"bytes"
	"testing"
)

// TestReadAckAllocs bounds what the reply path costs per message: the
// shipper reads one ack for everything it sends, and an ack is ten
// bytes. Three allocations — the CRC reader, the payload, the Message —
// and in particular no per-message bufio.Reader.
func TestReadAckAllocs(t *testing.T) {
	var frame bytes.Buffer
	if err := WriteMessage(&frame, &Message{Type: MsgAck, Seq: 1 << 20, Durable: 1<<20 - 16}); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(frame.Bytes())
	br := bufio.NewReader(src)
	allocs := testing.AllocsPerRun(200, func() {
		src.Reset(frame.Bytes())
		br.Reset(src)
		m, err := ReadMessage(br)
		if err != nil || m.Seq != 1<<20 {
			t.Fatalf("ReadMessage = %+v, %v", m, err)
		}
	})
	if allocs > 3 {
		t.Errorf("reading an ack costs %.0f allocations, want at most 3", allocs)
	}
}
