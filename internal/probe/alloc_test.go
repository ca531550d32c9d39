package probe

import (
	"testing"
	"time"

	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/pkt"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// allocProbe builds a probe with one established tunnel and returns it
// together with a classified, geo-referenced data frame for that
// tunnel — the steady-state packet every probe core spends its life
// on.
func allocProbe(t *testing.T) (*Probe, []byte) {
	t.Helper()
	country := geo.Generate(geo.SmallConfig())
	cells := gtpsim.BuildCells(country, 1)
	p := New(DefaultConfig(), cells, dpi.NewClassifier(services.Catalog()))

	cell := &cells.Cells[0]
	create := &pkt.GTPv2C{MessageType: pkt.GTPv2MsgCreateSessionRequest, TEID: 1, Sequence: 1,
		DataTEID: 77, HasDataTEID: true,
		Location: pkt.ULI{AreaCode: cell.AreaCode, CellID: cell.ID}, HasULI: true}
	seg := (&pkt.UDP{SrcPort: 31000, DstPort: pkt.PortGTPC}).SerializeTo(nil, create.SerializeTo(nil, nil))
	ctrl := (&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, SrcIP: gtpsim.AccessGW, DstIP: gtpsim.CoreGW}).SerializeTo(nil, seg)
	p.HandleFrame(timeseries.StudyStart, ctrl)

	ue := [4]byte{10, 0, 0, 1}
	server := [4]byte{203, 1, 0, 1} // YouTube prefix
	tcp := &pkt.TCP{SrcPort: 443, DstPort: 50000, Flags: pkt.TCPAck}
	tcp.SetChecksumIPs(server, ue)
	inner := (&pkt.IPv4{TTL: 60, Protocol: pkt.IPProtoTCP, SrcIP: server, DstIP: ue}).SerializeTo(nil, tcp.SerializeTo(nil, make([]byte, 1340)))
	tun := (&pkt.GTPv1U{MessageType: pkt.GTPMsgGPDU, TEID: 77}).SerializeTo(nil, inner)
	seg = (&pkt.UDP{SrcPort: 31000, DstPort: pkt.PortGTPU}).SerializeTo(nil, tun)
	data := (&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, SrcIP: gtpsim.CoreGW, DstIP: gtpsim.AccessGW}).SerializeTo(nil, seg)
	return p, data
}

// TestHandleFrameSteadyStateAllocs pins the probe's zero-allocation
// hot path: once a flow is classified, accounting a further data frame
// of that flow allocates nothing — decode, direction, ULI lookup, DPI
// memo hit and the counters are all in-place. Budget: exactly zero, so
// any future per-frame garbage fails loudly.
func TestHandleFrameSteadyStateAllocs(t *testing.T) {
	p, data := allocProbe(t)
	at := timeseries.StudyStart.Add(time.Hour)
	// Warm-up: classifies the flow.
	p.HandleFrame(at, data)
	allocs := testing.AllocsPerRun(200, func() {
		p.HandleFrame(at, data)
	})
	if allocs != 0 {
		t.Errorf("HandleFrame allocates %.1f objects per steady-state frame, want 0", allocs)
	}
	if p.Report().UserPlanePackets < 200 {
		t.Fatal("frames were not accounted")
	}
}

// TestHandleFrameAmortizedAllocs bounds the amortized cost including
// cold starts: replaying the same capture into a fresh probe twice,
// the second pass (every flow and tunnel known) must stay
// allocation-free even across many distinct flows and services.
func TestHandleFrameAmortizedAllocs(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 120
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	p := New(DefaultConfig(), sim.Cells, dpi.NewClassifier(catalog))
	feed := func() {
		for _, f := range frames {
			p.HandleFrame(f.Time, f.Data)
		}
	}
	feed() // cold pass: builds flows and tunnels
	allocs := testing.AllocsPerRun(3, feed)
	perFrame := allocs / float64(len(frames))
	// The warm replay re-walks every flow; the probe keeps counters
	// only, so nothing is created: the flow cache and the TEID map
	// already hold every key. Budget: zero.
	if perFrame > 0 {
		t.Errorf("warm replay allocates %.4f objects/frame over %d frames, want 0", perFrame, len(frames))
	}
}
