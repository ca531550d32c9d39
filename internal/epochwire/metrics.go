package epochwire

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/services"
)

// dirLabel renders a direction as a metric label value ("dl"/"ul").
func dirLabel(d services.Direction) string {
	switch d {
	case services.DL:
		return "dl"
	case services.UL:
		return "ul"
	}
	return strconv.Itoa(int(d))
}

// ShipperMetrics is the probe-side wire telemetry: what got spooled,
// what the aggregator has acknowledged as durable, and how healthy
// the session is. All fields are nil-safe obs primitives; the zero
// value is inert.
type ShipperMetrics struct {
	SpoolDepth    *obs.Gauge   // wire_spool_depth: entries the spool retains
	SpoolBytes    *obs.Gauge   // wire_spool_bytes: spool file size on disk
	SpoolRetries  *obs.Gauge   // wire_spool_write_retries: failed-and-retried spool writes
	Unacked       *obs.Gauge   // wire_unacked_messages: spooled but not yet durable
	DurableSeq    *obs.Gauge   // wire_durable_seq: aggregator's durable cursor
	Spooled       *obs.Counter // wire_messages_spooled_total: epochs + fin appended
	SpoolSyncs    *obs.Counter // wire_spool_syncs_total: group-commit fsyncs that succeeded
	Sends         *obs.Counter // wire_sends_total: epoch/fin messages written to the wire
	Acks          *obs.Counter // wire_acks_total: acks received
	Pings         *obs.Counter // wire_pings_total: keepalive pings sent
	Dials         *obs.Counter // wire_dials_total: connection attempts
	Sessions      *obs.Counter // wire_sessions_total: accepted handshakes
	SessionErrors *obs.Counter // wire_session_errors_total: sessions ended by an error
	// ShippedBytes is wire_shipped_cell_bytes_total{dir=...}: cell
	// bytes across sealed generations handed to the spool — the probe
	// side of the conservation invariant (must equal the aggregator's
	// applied bytes once the fin is durable).
	ShippedBytes [services.NumDirections]*obs.Counter
}

// NewShipperMetrics registers the shipper metric family in reg.
func NewShipperMetrics(reg *obs.Registry) *ShipperMetrics {
	m := &ShipperMetrics{
		SpoolDepth:    reg.Gauge("wire_spool_depth", "Entries the on-disk spool retains (not yet durable at the aggregator)."),
		SpoolBytes:    reg.Gauge("wire_spool_bytes", "Spool file size on disk."),
		SpoolRetries:  reg.Gauge("wire_spool_write_retries", "Spool write/sync attempts that failed and were retried."),
		Unacked:       reg.Gauge("wire_unacked_messages", "Messages spooled but not yet durable at the aggregator."),
		DurableSeq:    reg.Gauge("wire_durable_seq", "The aggregator's durable cursor as last acknowledged."),
		Spooled:       reg.Counter("wire_messages_spooled_total", "Epoch and fin messages appended to the spool."),
		SpoolSyncs:    reg.Counter("wire_spool_syncs_total", "Spool fsyncs that succeeded; each covers every message spooled before it (spooled/syncs is the group-commit ratio)."),
		Sends:         reg.Counter("wire_sends_total", "Epoch and fin messages written to the wire (includes retransmits)."),
		Acks:          reg.Counter("wire_acks_total", "Acknowledgements received."),
		Pings:         reg.Counter("wire_pings_total", "Keepalive pings sent."),
		Dials:         reg.Counter("wire_dials_total", "Aggregator connection attempts."),
		Sessions:      reg.Counter("wire_sessions_total", "Sessions whose handshake the aggregator accepted."),
		SessionErrors: reg.Counter("wire_session_errors_total", "Sessions that ended with an error (reconnect follows)."),
	}
	for d := services.Direction(0); d < services.NumDirections; d++ {
		m.ShippedBytes[d] = reg.Counter(
			`wire_shipped_cell_bytes_total{dir="`+dirLabel(d)+`"}`,
			"Cell bytes across sealed generations handed to the spool.")
	}
	return m
}

// noShipperMetrics is the inert fallback bundle.
var noShipperMetrics = &ShipperMetrics{}

// AggMetrics is the aggregator-side wire telemetry. Monotonic
// counters describe everything that ever happened (including streams
// later discarded by an incarnation reset); the AppliedBytes gauges
// track cell bytes across the *live* per-probe partials and therefore
// equal the national fold's cell totals at every instant — the
// aggregator half of the conservation invariant.
type AggMetrics struct {
	Conns             *obs.Counter // aggd_connections_total
	Rejects           *obs.Counter // aggd_handshake_rejects_total
	EpochsApplied     *obs.Counter // aggd_epochs_applied_total
	FinsApplied       *obs.Counter // aggd_fins_total
	Duplicates        *obs.Counter // aggd_duplicate_messages_total: retransmits acked without re-folding
	SeqGaps           *obs.Counter // aggd_sequence_gaps_total: connections killed by a sequence gap
	IncarnationResets *obs.Counter // aggd_incarnation_resets_total: probe streams discarded and replayed
	Persists          *obs.Counter // aggd_persists_total: state log commits
	PersistErrors     *obs.Counter // aggd_persist_errors_total: state log commits that failed (retried later)
	ConnPanics        *obs.Counter // aggd_conn_panics_total: probe handlers recovered from a panic
	// AppliedBytes is aggd_applied_cell_bytes{dir=...}: cell bytes
	// across live per-probe partials (a gauge — incarnation resets
	// subtract the discarded stream).
	AppliedBytes [services.NumDirections]*obs.Gauge
}

// newAggMetrics registers the aggregator metric family in reg.
func newAggMetrics(reg *obs.Registry) *AggMetrics {
	m := &AggMetrics{
		Conns:             reg.Counter("aggd_connections_total", "Probe connections accepted."),
		Rejects:           reg.Counter("aggd_handshake_rejects_total", "Handshakes rejected (version or grid mismatch, invalid probe ID, too many probe IDs)."),
		EpochsApplied:     reg.Counter("aggd_epochs_applied_total", "Epoch messages folded into per-probe partials."),
		FinsApplied:       reg.Counter("aggd_fins_total", "Fin messages applied."),
		Duplicates:        reg.Counter("aggd_duplicate_messages_total", "Retransmitted messages acknowledged without re-folding."),
		SeqGaps:           reg.Counter("aggd_sequence_gaps_total", "Connections killed by a sequence gap."),
		IncarnationResets: reg.Counter("aggd_incarnation_resets_total", "Probe streams discarded for a new incarnation."),
		Persists:          reg.Counter("aggd_persists_total", "State log commits: one write of the records accepted since the last, one fsync."),
		PersistErrors:     reg.Counter("aggd_persist_errors_total", "State log commits that failed; the durable cursor lags until a retry lands."),
		ConnPanics:        reg.Counter("aggd_conn_panics_total", "Probe connection handlers that recovered from a panic."),
	}
	for d := services.Direction(0); d < services.NumDirections; d++ {
		m.AppliedBytes[d] = reg.Gauge(appliedBytesGauge(d),
			"Cell bytes across live per-probe partials; equals the fold's cell totals at every instant.")
	}
	return m
}

// appliedBytesGauge and foldBytesGauge name the two sides of the live
// conservation invariant; CheckScrapeConservation reads them back by
// the same names.
func appliedBytesGauge(d services.Direction) string {
	return `aggd_applied_cell_bytes{dir="` + dirLabel(d) + `"}`
}

func foldBytesGauge(d services.Direction) string {
	return `aggd_fold_cell_bytes{dir="` + dirLabel(d) + `"}`
}

// CheckScrapeConservation asserts the aggregator's conservation
// invariant from a metrics scrape (the ctl `metrics` reply): the
// applied-bytes gauges — what the live probe streams delivered — must
// equal the fold's cell totals, per direction, mid-run as much as at
// drain: resets and retransmits may never leave the fold out of step.
// Each conserved direction is reported as one line on w.
func CheckScrapeConservation(scrape []byte, w io.Writer) error {
	// Histograms scrape as objects, everything this check reads as
	// numbers; the generic decode admits both.
	var reg map[string]any
	if err := json.Unmarshal(scrape, &reg); err != nil {
		return fmt.Errorf("undecodable metrics reply: %w", err)
	}
	for d := services.Direction(0); d < services.NumDirections; d++ {
		applied, okA := reg[appliedBytesGauge(d)].(float64)
		fold, okF := reg[foldBytesGauge(d)].(float64)
		if !okA || !okF {
			return fmt.Errorf("metrics reply lacks the aggd conservation gauges (not an aggd endpoint?)")
		}
		if fold == -1 && applied == 0 {
			continue // nothing aggregated yet: trivially conserved
		}
		if applied != fold {
			return fmt.Errorf("conservation violated: applied %.0f %s cell bytes but the fold holds %.0f", applied, dirLabel(d), fold)
		}
		fmt.Fprintf(w, "conservation ok (%s): applied == fold == %.0f cell bytes\n", dirLabel(d), applied)
	}
	return nil
}

// lockedGauge registers a computed gauge whose callback reads
// aggregator state: it takes a.mu at scrape time (the registry
// evaluates callbacks outside its own lock).
func (a *Aggregator) lockedGauge(name, help string, get func() int64) {
	a.cfg.Registry.GaugeFunc(name, help, func() int64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return get()
	})
}

// registerAggFuncs registers the aggregator's computed gauges: probe
// population, the state log's size and the fold side of the
// conservation invariant.
func (a *Aggregator) registerAggFuncs() {
	a.lockedGauge("aggd_state_log_bytes", "Committed length of the state log; it grows with every message accepted and is never compacted.", func() int64 {
		return a.committed
	})
	a.lockedGauge("aggd_probes_known", "Probe IDs with aggregator state.", func() int64 {
		return int64(len(a.probes))
	})
	a.lockedGauge("aggd_probes_connected", "Probes with a live connection.", func() (n int64) {
		for _, ps := range a.probes {
			if ps.conn != nil {
				n++
			}
		}
		return n
	})
	for d := services.Direction(0); d < services.NumDirections; d++ {
		a.lockedGauge(foldBytesGauge(d), "Cell bytes in the national fold; -1 while nothing is aggregated.", func() int64 {
			part, err := a.foldCachedLocked()
			if err != nil {
				return -1
			}
			return int64(part.CellTotals()[d])
		})
	}
}

// registerProbeFuncsLocked registers the per-probe cursor gauges the
// first time a probe ID appears (idempotent afterwards: GaugeFunc
// re-binds the closure, which points at the same probeState). Caller
// holds a.mu; the callbacks re-take it at scrape time.
func (a *Aggregator) registerProbeFuncsLocked(id string, ps *probeState) {
	label := `{probe="` + id + `"}`
	a.lockedGauge("aggd_probe_applied_seq"+label, "Highest sequence folded for this probe.", func() int64 {
		return int64(ps.applied)
	})
	a.lockedGauge("aggd_probe_durable_seq"+label, "Highest sequence committed to the state log for this probe.", func() int64 {
		return int64(ps.durable)
	})
	a.lockedGauge("aggd_probe_watermark"+label, "This probe's sealed watermark on its own grid.", func() int64 {
		return int64(ps.watermark)
	})
	a.lockedGauge("aggd_probe_connected"+label, "Whether this probe has a live connection.", func() int64 {
		if ps.conn != nil {
			return 1
		}
		return 0
	})
	a.lockedGauge("aggd_probe_cursor_age_seconds"+label, "Seconds since this probe's last applied message; -1 before the first.", func() int64 {
		if ps.lastApply.IsZero() {
			return -1
		}
		return int64(time.Since(ps.lastApply).Seconds())
	})
}
