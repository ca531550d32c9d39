// Package probe implements the passive measurement pipeline of the
// paper's Section 2: a tap on the Gn / S5-S8 interfaces that inspects
// GTP-C to track User Location Information per tunnel, decodes GTP-U
// to account user-plane traffic, and classifies flows with DPI.
//
// The probe never sees the simulator's ground truth — only raw frames.
// The integration tests close the loop by comparing its measurements
// against the generating distributions.
//
// The probe keeps counters only (Report). Each classified,
// geo-referenced frame becomes one Observation handed to the shard's
// Sink — in production the rollup Builder, which aggregates bytes per
// (service, direction, commune, time bin). The accounting hot path is
// steady-state allocation-free: services are dense services.ID values
// from the classifier's interning table, and names ride along only for
// the sinks' export boundary.
package probe

import (
	"time"

	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/pkt"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// Direction aliases keep the report indexable with services constants.
const (
	DL = services.DL
	UL = services.UL
)

// Config configures a probe instance.
type Config struct {
	// AccessGW and CoreGW identify the interface sides: frames from
	// AccessGW to CoreGW are uplink, the reverse downlink.
	AccessGW, CoreGW [4]byte
	// Start, Step and Bins define the time grid the sinks aggregate on
	// (see rollup.ConfigFrom).
	Start time.Time
	Step  time.Duration
	Bins  int
}

// DefaultConfig bins the study week at 15-minute resolution.
func DefaultConfig() Config {
	return Config{
		AccessGW: gtpsim.AccessGW,
		CoreGW:   gtpsim.CoreGW,
		Start:    timeseries.StudyStart,
		Step:     timeseries.DefaultStep,
		Bins:     int(timeseries.Week / timeseries.DefaultStep),
	}
}

// ConfigFor returns DefaultConfig(). The country argument is unused: it
// is kept so the frozen benchmark fixture (bench/fixture.go) keeps
// compiling.
func ConfigFor(*geo.Country) Config { return DefaultConfig() }

// Observation is one classified, geo-referenced accounting event: the
// probe attributed Bytes of user-plane traffic to a service, a
// direction and the commune of the tunnel's latest ULI fix, observed
// at the given capture timestamp. Observations are emitted exactly
// when Report.ClassifiedBytes grows, so the bytes a Sink sees sum to
// that counter — including traffic outside the configured time grid.
type Observation struct {
	At time.Time
	// Dir and Svc key the accounting cell; Svc is the dense ID sinks
	// aggregate under (the rollup builder packs it into its cell keys).
	Dir services.Direction
	Svc services.ID
	// Service is Svc's interned name — carried for the export boundary
	// so sinks can resolve names without sharing the interning table.
	Service string
	Commune int
	Bytes   float64
}

// Sink consumes the probe's classified observations online, as frames
// flow — the hook the rollup store hangs its per-(service, commune,
// bin) accumulators on. A sink is owned by exactly one probe instance
// and is never called concurrently; in a sharded pipeline each shard
// gets its own sink (see Pipeline.WithSinks).
type Sink interface {
	Observe(Observation)
}

// Report is the probe's measurement output: the counters the sinks
// cannot see. Per-service accounting lives in the sinks alone.
type Report struct {
	// TotalBytes and ClassifiedBytes per direction: TotalBytes counts
	// every user-plane byte on a known interface direction,
	// ClassifiedBytes the subset handed to the sink as observations.
	TotalBytes      [services.NumDirections]float64
	ClassifiedBytes [services.NumDirections]float64
	// Error and anomaly counters.
	DecodeErrors     int
	UnknownTEID      int
	UnknownCell      int
	ControlMessages  int
	UserPlanePackets int
}

// ClassificationRate returns the fraction of user-plane bytes the DPI
// attributed to a service (the paper reports 88%).
func (r *Report) ClassificationRate() float64 {
	total := r.TotalBytes[DL] + r.TotalBytes[UL]
	if total == 0 {
		return 0
	}
	return (r.ClassifiedBytes[DL] + r.ClassifiedBytes[UL]) / total
}

// Merge adds the counters of o into r. Shard reports merge exactly:
// every byte total is a sum of integer-valued per-frame contributions,
// so accumulation order cannot change the result.
func (r *Report) Merge(o *Report) {
	for d := 0; d < services.NumDirections; d++ {
		r.TotalBytes[d] += o.TotalBytes[d]
		r.ClassifiedBytes[d] += o.ClassifiedBytes[d]
	}
	r.DecodeErrors += o.DecodeErrors
	r.UnknownTEID += o.UnknownTEID
	r.UnknownCell += o.UnknownCell
	r.ControlMessages += o.ControlMessages
	r.UserPlanePackets += o.UserPlanePackets
}

// Probe is the stateful frame consumer.
type Probe struct {
	cfg      Config
	registry *gtpsim.CellRegistry
	flows    *dpi.FlowCache
	parser   pkt.Parser
	decoded  []pkt.LayerType

	// teidCommune maps a data-plane TEID to the commune of its latest
	// ULI fix — the geo-referencing state the paper's probes keep.
	teidCommune map[uint32]int
	report      Report
	sink        Sink
}

// New builds a probe. The cell registry stands in for the operator's
// cell-to-commune database.
func New(cfg Config, registry *gtpsim.CellRegistry, classifier *dpi.Classifier) *Probe {
	return &Probe{
		cfg:         cfg,
		registry:    registry,
		flows:       dpi.NewFlowCache(classifier),
		teidCommune: map[uint32]int{},
	}
}

// Report returns the accumulated counters.
func (p *Probe) Report() *Report { return &p.report }

// SetSink registers a sink receiving every classified observation the
// probe accounts from now on. Must be set before frames are handled.
func (p *Probe) SetSink(s Sink) { p.sink = s }

// HandleFrame consumes one captured frame. The frame bytes are only
// read during the call: the probe retains nothing of them, so callers
// may reuse the buffer immediately (the capture.Source contract).
//
//repro:hotpath
func (p *Probe) HandleFrame(at time.Time, frame []byte) {
	var err error
	p.decoded, err = p.parser.Decode(frame, p.decoded)
	if err != nil {
		p.report.DecodeErrors++
		return
	}
	last := p.decoded[len(p.decoded)-1]
	switch last {
	case pkt.LayerTypeGTPv1C:
		p.handleControl(p.parser.GTPv1C.MessageType == pkt.GTPv1MsgCreatePDPRequest ||
			p.parser.GTPv1C.MessageType == pkt.GTPv1MsgUpdatePDPRequest,
			p.parser.GTPv1C.HasDataTEID, p.parser.GTPv1C.DataTEID,
			p.parser.GTPv1C.HasULI, p.parser.GTPv1C.Location)
	case pkt.LayerTypeGTPv2C:
		p.handleControl(p.parser.GTPv2C.MessageType == pkt.GTPv2MsgCreateSessionRequest ||
			p.parser.GTPv2C.MessageType == pkt.GTPv2MsgModifyBearerRequest,
			p.parser.GTPv2C.HasDataTEID, p.parser.GTPv2C.DataTEID,
			p.parser.GTPv2C.HasULI, p.parser.GTPv2C.Location)
	default:
		p.maybeUserPlane(at)
	}
}

//repro:hotpath
func (p *Probe) handleControl(locationBearing, hasTEID bool, dataTEID uint32, hasULI bool, uli pkt.ULI) {
	p.report.ControlMessages++
	if !locationBearing || !hasULI {
		return
	}
	commune, ok := p.registry.CommuneOf(uli.CellID)
	if !ok {
		p.report.UnknownCell++
		return
	}
	if hasTEID {
		p.teidCommune[dataTEID] = commune
		return
	}
	// Modify/Update without an explicit F-TEID re-uses the known one;
	// our simulator always includes it on location updates, so nothing
	// to do here.
}

// maybeUserPlane accounts a GTP-U G-PDU.
//
//repro:hotpath
func (p *Probe) maybeUserPlane(at time.Time) {
	// Locate the tunnel: an inner IPv4 decoded immediately after GTP-U
	// marks a G-PDU. The inner IP's index anchors everything below —
	// the inner transport is the layer at innerIP+1, never found by
	// scanning, so an outer TCP/UDP header can't be misattributed
	// whatever the outer layout looks like.
	innerIP := -1
	for i := 0; i+1 < len(p.decoded); i++ {
		if p.decoded[i] == pkt.LayerTypeGTPv1U && p.decoded[i+1] == pkt.LayerTypeIPv4 {
			innerIP = i + 1
			break
		}
	}
	if innerIP < 0 {
		return
	}
	p.report.UserPlanePackets++

	// Direction from the outer gateway addresses.
	var dir services.Direction
	switch {
	case p.parser.OuterIP.SrcIP == p.cfg.AccessGW && p.parser.OuterIP.DstIP == p.cfg.CoreGW:
		dir = UL
	case p.parser.OuterIP.SrcIP == p.cfg.CoreGW && p.parser.OuterIP.DstIP == p.cfg.AccessGW:
		dir = DL
	default:
		// Unknown interface direction; skip.
		return
	}

	inner := &p.parser.InnerIP
	bytes := float64(inner.Length)
	p.report.TotalBytes[dir] += bytes

	commune, ok := p.teidCommune[p.parser.GTPU.TEID]
	if !ok {
		p.report.UnknownTEID++
		return
	}

	// Transport ports for the flow key and DPI: the layer decoded
	// right after the inner IP, if it is a transport at all.
	var srcPort, dstPort uint16
	var payload []byte
	if t := innerIP + 1; t < len(p.decoded) {
		switch p.decoded[t] {
		case pkt.LayerTypeTCP:
			srcPort, dstPort = p.parser.InnerTCP.SrcPort, p.parser.InnerTCP.DstPort
			payload = p.parser.InnerTCP.LayerPayload()
		case pkt.LayerTypeUDP:
			srcPort, dstPort = p.parser.InnerUDP.SrcPort, p.parser.InnerUDP.DstPort
			payload = p.parser.InnerUDP.LayerPayload()
		}
	}

	// The server side is the non-UE endpoint: uplink destinations and
	// downlink sources.
	serverIP := inner.DstIP
	serverPort := dstPort
	if dir == DL {
		serverIP = inner.SrcIP
		serverPort = srcPort
	}

	flow, _ := pkt.FlowFromPacket(inner, srcPort, dstPort)
	res := p.flows.Classify(flow, serverIP, serverPort, payload)
	if res.ID == services.NoID {
		return
	}
	p.report.ClassifiedBytes[dir] += bytes
	if p.sink != nil {
		p.sink.Observe(Observation{At: at, Dir: dir, Svc: res.ID, Service: res.Service, Commune: commune, Bytes: bytes})
	}
}
