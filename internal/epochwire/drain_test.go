package epochwire

import (
	"net"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// slowWriteConn delays every write: it widens the gap between "the fin
// is durable" and "the fin's ack is on the wire" from microseconds to
// something a test can stand in.
type slowWriteConn struct{ net.Conn }

func (c slowWriteConn) Write(p []byte) (int, error) {
	time.Sleep(50 * time.Millisecond)
	return c.Conn.Write(p)
}

// TestDrainFollowsTheFinAck: a daemon that stops on Done (aggd) closes
// every probe connection, so Done may close only after the reply that
// certifies the last fin durable has been written — otherwise the last
// probe of a run loses its ack to the shutdown it caused, reconnects to
// a listener that is gone, and never learns its run is durable.
func TestDrainFollowsTheFinAck(t *testing.T) {
	leakcheck.Check(t)
	a, err := NewAggregator("127.0.0.1:0", "", AggConfig{
		Probes:   1,
		WrapConn: func(c net.Conn) net.Conn { return slowWriteConn{c} },
	})
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		<-a.Done()
		a.Stop()
	}()
	t.Cleanup(func() {
		a.Stop()
		<-stopped
	})
	cfg := testConfig()
	p := dialProbe(t, a.Addr(), "last", 1, cfg)
	p.send(&Message{Type: MsgEpoch, Seq: 1, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 100)})
	if ack := p.send(&Message{Type: MsgFin, Seq: 2, Watermark: uint64(cfg.Bins), Blob: finBlob(t, cfg)}); ack.Durable != 2 {
		t.Fatalf("fin ack reports durable %d, want 2", ack.Durable)
	}
	select {
	case <-a.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("aggregator never drained after its one probe's durable fin")
	}
}
