package epochwire

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rollup"
	"repro/internal/services"
)

// TestWireMetricsEndToEnd runs a full shipper→aggregator session with
// registries on both ends and checks the conservation chain the
// telemetry plane promises: cell bytes counted by the shipper's seal
// hook equal the aggregator's applied-bytes gauges equal the fold's
// cell totals, and the spool gauges drain to zero once the fin is
// durable.
func TestWireMetricsEndToEnd(t *testing.T) {
	cfg := testConfig()
	aggReg := obs.NewRegistry()
	a, err := NewAggregator("127.0.0.1:0", "", AggConfig{
		Probes: 1, PersistEvery: 2,
		Logf:     t.Logf,
		Registry: aggReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)

	shipReg := obs.NewRegistry()
	sh, err := NewShipper(ShipperConfig{
		Addr:       a.Addr(),
		ProbeID:    "solo",
		SpoolPath:  filepath.Join(t.TempDir(), "solo.spool"),
		Cfg:        cfg,
		Shards:     1,
		BackoffMax: 50 * time.Millisecond,
		Logf:       t.Logf,
		Registry:   shipReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Incarnation() == 0 {
		t.Error("incarnation not drawn")
	}

	names := []string{"Facebook", "YouTube"}
	nameOf := func(svc uint32) string { return names[svc] }
	part := &rollup.Partial{Cfg: cfg}
	var want uint64
	for bin := 0; bin < 4; bin++ {
		ep := rollup.Epoch{Bin: bin, Cells: []rollup.Cell{
			{Dir: 0, Svc: uint32(bin % 2), Commune: 3, Bytes: float64(100 + bin)},
		}}
		sh.SealHook(0, ep, nameOf)
		want += uint64(100 + bin)
		if err := part.Merge(rollup.SingleEpochPartial(cfg, ep, nameOf)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Finish(part); err != nil {
		t.Fatal(err)
	}

	sm := sh.metrics
	if got := sm.Spooled.Load(); got != 5 {
		t.Errorf("spooled = %d, want 5 (4 epochs + fin)", got)
	}
	// Group commit: at least one fsync stood behind those sends, and
	// never more than one per message.
	if got := sm.SpoolSyncs.Load(); got < 1 || got > sm.Spooled.Load() {
		t.Errorf("spool syncs = %d, want 1 <= syncs <= spooled (%d)", got, sm.Spooled.Load())
	}
	if got := sm.Sends.Load(); got < 5 {
		t.Errorf("sends = %d, want >= 5", got)
	}
	if got := sm.Acks.Load(); got < 5 {
		t.Errorf("acks = %d, want >= 5", got)
	}
	if got := sm.Dials.Load(); got < 1 {
		t.Errorf("dials = %d, want >= 1", got)
	}
	if got := sm.Sessions.Load(); got < 1 {
		t.Errorf("sessions = %d, want >= 1", got)
	}
	if got := sm.ShippedBytes[services.DL].Load(); got != want {
		t.Errorf("shipped dl bytes = %d, want %d", got, want)
	}
	if got := sm.SpoolDepth.Load(); got != 0 {
		t.Errorf("spool depth after durable fin = %d, want 0", got)
	}
	if got := sm.Unacked.Load(); got != 0 {
		t.Errorf("unacked after durable fin = %d, want 0", got)
	}
	if got := sm.DurableSeq.Load(); got != 5 {
		t.Errorf("durable seq = %d, want 5", got)
	}

	am := a.metrics
	if got := am.Conns.Load(); got < 1 {
		t.Errorf("agg conns = %d, want >= 1", got)
	}
	if got := am.EpochsApplied.Load(); got != 4 {
		t.Errorf("epochs applied = %d, want 4", got)
	}
	if got := am.FinsApplied.Load(); got != 1 {
		t.Errorf("fins applied = %d, want 1", got)
	}
	if got := am.AppliedBytes[services.DL].Load(); got != int64(want) {
		t.Errorf("applied dl bytes gauge = %d, want %d", got, want)
	}
	if err := a.CheckConservation(); err != nil {
		t.Errorf("conservation check: %v", err)
	}

	st := a.StatusNow()
	if len(st.Probes) != 1 {
		t.Fatalf("status holds %d probes, want 1", len(st.Probes))
	}
	ps := st.Probes[0]
	if ps.AgeSeconds < 0 {
		t.Errorf("cursor age = %v, want >= 0 after applies", ps.AgeSeconds)
	}
	if ps.Lag != 0 {
		t.Errorf("solo probe lag = %d, want 0", ps.Lag)
	}
}

// TestAggMetricsDuplicateAndReset pins the counters around the two
// recovery paths: a retransmitted sequence bumps the duplicate counter
// without re-folding, and a new incarnation bumps the reset counter
// while the applied-bytes gauges drop the discarded stream — so the
// gauges keep matching the fold and conservation still holds.
func TestAggMetricsDuplicateAndReset(t *testing.T) {
	cfg := testConfig()
	reg := obs.NewRegistry()
	a, err := NewAggregator("127.0.0.1:0", "", AggConfig{PersistEvery: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)

	p := dialProbe(t, a.Addr(), "north", 7, cfg)
	e1 := &Message{Type: MsgEpoch, Seq: 1, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 100)}
	p.send(e1)
	p.send(e1) // retransmit
	if got := a.metrics.Duplicates.Load(); got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
	if got := a.metrics.AppliedBytes[services.DL].Load(); got != 100 {
		t.Errorf("applied dl bytes = %d, want 100 (duplicate re-folded?)", got)
	}
	p.conn.Close()

	p2 := dialProbe(t, a.Addr(), "north", 8, cfg) // new incarnation
	if got := a.metrics.IncarnationResets.Load(); got != 1 {
		t.Errorf("incarnation resets = %d, want 1", got)
	}
	if got := a.metrics.AppliedBytes[services.DL].Load(); got != 0 {
		t.Errorf("applied dl bytes after reset = %d, want 0 (discarded stream still counted?)", got)
	}
	p2.send(&Message{Type: MsgEpoch, Seq: 1, Watermark: 1, Blob: epochBlob(t, cfg, 0, "Facebook", 3, 70)})
	if got := a.metrics.AppliedBytes[services.DL].Load(); got != 70 {
		t.Errorf("applied dl bytes after replay = %d, want 70", got)
	}
	if err := a.CheckConservation(); err != nil {
		t.Errorf("conservation check after reset: %v", err)
	}
	if got := foldTotal(t, a); got != 70 {
		t.Errorf("folded %v bytes, want 70", got)
	}
}
