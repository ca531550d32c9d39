package epochwire

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/ctl"
	"repro/internal/leakcheck"
)

// TestCtlClientAgainstAggregator drives the same client through the
// aggregator's real ctl listener: status JSON in memory via Request,
// the snapshot body via Stream, and a daemon-side error line surfacing
// as a client error.
func TestCtlClientAgainstAggregator(t *testing.T) {
	leakcheck.Check(t)
	a, err := NewAggregator("127.0.0.1:0", "127.0.0.1:0", AggConfig{Probes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	cfg := testConfig()
	p := dialProbe(t, a.Addr(), "ctl-probe", 1, cfg)
	p.send(&Message{Type: MsgEpoch, Seq: 1, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 100)})
	client := &ctl.Client{Addr: a.CtlAddr(), Timeout: 5 * time.Second}

	body, err := client.Request("status")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"probes"`)) {
		t.Errorf("status reply does not look like status JSON: %.120s", body)
	}

	var snap strings.Builder
	n, err := client.Stream("snapshot", &snap)
	if err != nil {
		t.Fatal(err)
	}
	if int64(snap.Len()) != n {
		t.Errorf("Stream declared %d bytes, delivered %d", n, snap.Len())
	}

	if _, err := client.Request("no-such-command"); err == nil {
		t.Error("an unknown ctl command returned nil error")
	}
}
