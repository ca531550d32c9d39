package probe

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/measured"
	"repro/internal/pkt"
	"repro/internal/services"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// runPipeline simulates a workload and feeds it through a probe with a
// reference sink attached, returning the probe's counters and the
// per-service aggregate of its observations.
func runPipeline(t *testing.T, cfg gtpsim.Config) (*gtpsim.Simulator, *gtpsim.Stats, *Report, *measured.Aggregate) {
	t.Helper()
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, truth := sim.Run()
	cls := dpi.NewClassifier(catalog)
	p := New(DefaultConfig(), sim.Cells, cls)
	ref := newRefSink(DefaultConfig(), cls, country)
	p.SetSink(ref)
	for _, f := range frames {
		p.HandleFrame(f.Time, f.Data)
	}
	return sim, truth, p.Report(), ref.agg
}

func TestPipelineNoDecodeErrors(t *testing.T) {
	_, truth, rep, _ := runPipeline(t, gtpsim.DefaultConfig())
	if rep.DecodeErrors != 0 {
		t.Errorf("%d decode errors on clean frames", rep.DecodeErrors)
	}
	if rep.UnknownCell != 0 {
		t.Errorf("%d ULI fixes hit unknown cells", rep.UnknownCell)
	}
	if rep.UserPlanePackets == 0 || rep.ControlMessages == 0 {
		t.Fatal("pipeline saw no traffic")
	}
	if truth.Frames != rep.UserPlanePackets+rep.ControlMessages {
		t.Errorf("frames %d != user %d + control %d",
			truth.Frames, rep.UserPlanePackets, rep.ControlMessages)
	}
}

func TestClassificationRateNear88Percent(t *testing.T) {
	_, _, rep, _ := runPipeline(t, gtpsim.DefaultConfig())
	rate := rep.ClassificationRate()
	// The workload routes 12% of sessions through unfingerprinted
	// endpoints; measured byte rate fluctuates with session sizes.
	if rate < 0.83 || rate > 0.93 {
		t.Errorf("classification rate = %.3f, want ≈ 0.88", rate)
	}
}

func TestMeasuredVolumesMatchGroundTruth(t *testing.T) {
	_, truth, rep, _ := runPipeline(t, gtpsim.DefaultConfig())
	// The probe counts inner-IP bytes (headers included); ground truth
	// counts payload bytes. 40 bytes per ≤1340-byte segment bounds the
	// gap at ~10%.
	if rep.TotalBytes[DL] < truth.BytesDL || rep.TotalBytes[DL] > truth.BytesDL*1.25 {
		t.Errorf("measured DL %.3g vs truth %.3g", rep.TotalBytes[DL], truth.BytesDL)
	}
	if rep.TotalBytes[UL] < truth.BytesUL || rep.TotalBytes[UL] > truth.BytesUL*1.6 {
		t.Errorf("measured UL %.3g vs truth %.3g", rep.TotalBytes[UL], truth.BytesUL)
	}
}

func TestPerServiceSharesMatch(t *testing.T) {
	_, truth, _, agg := runPipeline(t, gtpsim.DefaultConfig())
	var truthTotal, measTotal float64
	for _, v := range truth.SvcBytesDL {
		truthTotal += v
	}
	for _, v := range agg.SvcBytes[DL] {
		measTotal += v
	}
	for svc, tv := range truth.SvcBytesDL {
		if tv < truthTotal*0.01 {
			continue // tiny services are statistically unstable here
		}
		mv := agg.BytesOf(DL, svc)
		truthShare := tv / truthTotal
		measShare := mv / measTotal
		if math.Abs(measShare-truthShare) > 0.25*truthShare+0.005 {
			t.Errorf("%s: measured share %.4f vs truth %.4f", svc, measShare, truthShare)
		}
	}
}

func TestPerCommuneAttributionCorrelates(t *testing.T) {
	sim, truth, _, agg := runPipeline(t, gtpsim.DefaultConfig())
	n := len(sim.Country.Communes)
	truthVec := make([]float64, n)
	measVec := make([]float64, n)
	for c, v := range truth.CommuneBytesDL {
		truthVec[c] = v
	}
	for _, per := range agg.SvcCommuneBytes[DL] {
		for c, v := range per {
			measVec[c] += v
		}
	}
	// At commune granularity the ~3 km median ULI error scatters fixes
	// into neighbouring cells (the very reason the paper tessellates no
	// finer than communes), so only a moderate correlation survives.
	r2, err := stats.R2(truthVec, measVec)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.35 {
		t.Errorf("commune attribution r² = %.3f, want >= 0.35", r2)
	}
	// Aggregated at Routing/Tracking Area level (blocks of 64
	// communes) the displacement averages out and attribution is tight.
	areas := (n + 63) / 64
	truthArea := make([]float64, areas)
	measArea := make([]float64, areas)
	for c, v := range truthVec {
		truthArea[c/64] += v
	}
	for c, v := range measVec {
		measArea[c/64] += v
	}
	r2Area, err := stats.R2(truthArea, measArea)
	if err != nil {
		t.Fatal(err)
	}
	if r2Area < 0.95 {
		t.Errorf("area-level attribution r² = %.3f, want >= 0.95", r2Area)
	}
}

func TestMedianULIErrorNear3Km(t *testing.T) {
	_, truth, _, _ := runPipeline(t, gtpsim.DefaultConfig())
	med := truth.MedianULIError()
	// Paper: "the median error of ULI is around 3 km".
	if med < 1.5 || med > 4.5 {
		t.Errorf("median ULI error = %.2f km, want ≈ 3", med)
	}
}

func TestMeasuredSeriesAlignsWithProfile(t *testing.T) {
	// The measured national series of a large service must correlate
	// with its generating weekly profile.
	_, _, _, agg := runPipeline(t, gtpsim.Config{
		Sessions:            6000,
		Start:               timeseries.StudyStart,
		Duration:            timeseries.Week,
		UnclassifiableShare: 0,
		HandoverProb:        0,
		ULISigmaKm:          2.55,
		MeanSessionKB:       30,
		Seed:                7,
	})
	catalog := services.Catalog()
	yt := services.ByName(catalog, "YouTube")
	prof := services.WeeklyProfile(yt, timeseries.DefaultStep, services.DL)
	meas := agg.SeriesOf(DL, "YouTube")
	if meas == nil {
		t.Fatal("no measured YouTube series")
	}
	// Correlate at hourly granularity to wash out sampling noise.
	measH, err := meas.Resample(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	profH, err := prof.Resample(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	r, err := stats.Pearson(measH.Values, profH.Values)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.5 {
		t.Errorf("measured/profile correlation = %.3f, want >= 0.5", r)
	}
}

func TestHandoverRelocatesTraffic(t *testing.T) {
	// Scripted scenario: one session created in commune A, handed over
	// to a cell in another commune, with traffic before and after. The
	// probe must attribute the post-handover bytes to the new commune.
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cells := gtpsim.BuildCells(country, 1)

	cls := dpi.NewClassifier(catalog)
	p := New(DefaultConfig(), cells, cls)
	ref := newRefSink(DefaultConfig(), cls, country)
	p.SetSink(ref)

	cellA := &cells.Cells[0]
	var cellB *gtpsim.Cell
	for i := range cells.Cells {
		if cells.Cells[i].Commune != cellA.Commune {
			cellB = &cells.Cells[i]
			break
		}
	}
	if cellB == nil {
		t.Fatal("country has a single commune with cells")
	}

	mk := func(msgType uint8, uli pkt.ULI) []byte {
		m := &pkt.GTPv2C{MessageType: msgType, TEID: 1, Sequence: 1,
			DataTEID: 77, HasDataTEID: true, Location: uli, HasULI: true}
		seg := (&pkt.UDP{SrcPort: 31000, DstPort: pkt.PortGTPC}).SerializeTo(nil, m.SerializeTo(nil, nil))
		return (&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, SrcIP: gtpsim.AccessGW, DstIP: gtpsim.CoreGW}).SerializeTo(nil, seg)
	}
	data := func(size int) []byte {
		ue := [4]byte{10, 0, 0, 1}
		server := [4]byte{203, 1, 0, 1} // YouTube prefix
		tcp := &pkt.TCP{SrcPort: 443, DstPort: 50000, Flags: pkt.TCPAck}
		tcp.SetChecksumIPs(server, ue)
		inner := (&pkt.IPv4{TTL: 60, Protocol: pkt.IPProtoTCP, SrcIP: server, DstIP: ue}).SerializeTo(nil, tcp.SerializeTo(nil, make([]byte, size)))
		tun := (&pkt.GTPv1U{MessageType: pkt.GTPMsgGPDU, TEID: 77}).SerializeTo(nil, inner)
		seg := (&pkt.UDP{SrcPort: 31000, DstPort: pkt.PortGTPU}).SerializeTo(nil, tun)
		return (&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, SrcIP: gtpsim.CoreGW, DstIP: gtpsim.AccessGW}).SerializeTo(nil, seg)
	}

	t0 := timeseries.StudyStart.Add(time.Hour)
	p.HandleFrame(t0, mk(pkt.GTPv2MsgCreateSessionRequest, pkt.ULI{AreaCode: cellA.AreaCode, CellID: cellA.ID}))
	p.HandleFrame(t0.Add(time.Second), data(1000))
	p.HandleFrame(t0.Add(2*time.Second), mk(pkt.GTPv2MsgModifyBearerRequest, pkt.ULI{AreaCode: cellB.AreaCode, CellID: cellB.ID}))
	p.HandleFrame(t0.Add(3*time.Second), data(500))

	per := ref.agg.CommuneBytesOf(DL, "YouTube")
	if per == nil {
		t.Fatal("no YouTube commune bytes")
	}
	if per[cellA.Commune] < 1000 || per[cellA.Commune] > 1100 {
		t.Errorf("pre-handover bytes in commune A = %v", per[cellA.Commune])
	}
	if per[cellB.Commune] < 500 || per[cellB.Commune] > 600 {
		t.Errorf("post-handover bytes in commune B = %v", per[cellB.Commune])
	}
}

func TestUnknownTEIDCounted(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cells := gtpsim.BuildCells(country, 1)
	cls := dpi.NewClassifier(catalog)
	p := New(DefaultConfig(), cells, cls)
	ref := newRefSink(DefaultConfig(), cls, country)
	p.SetSink(ref)

	// A G-PDU for a TEID the probe never saw a Create for.
	ue := [4]byte{10, 0, 0, 1}
	server := [4]byte{203, 1, 0, 1}
	tcp := &pkt.TCP{SrcPort: 443, DstPort: 50000, Flags: pkt.TCPAck}
	inner := (&pkt.IPv4{TTL: 60, Protocol: pkt.IPProtoTCP, SrcIP: server, DstIP: ue}).SerializeTo(nil, tcp.SerializeTo(nil, make([]byte, 64)))
	tun := (&pkt.GTPv1U{MessageType: pkt.GTPMsgGPDU, TEID: 9999}).SerializeTo(nil, inner)
	seg := (&pkt.UDP{SrcPort: 31000, DstPort: pkt.PortGTPU}).SerializeTo(nil, tun)
	frame := (&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, SrcIP: gtpsim.CoreGW, DstIP: gtpsim.AccessGW}).SerializeTo(nil, seg)

	p.HandleFrame(timeseries.StudyStart, frame)
	rep := p.Report()
	if rep.UnknownTEID != 1 {
		t.Errorf("UnknownTEID = %d, want 1", rep.UnknownTEID)
	}
	// Total bytes counted, but nothing attributed.
	if rep.TotalBytes[DL] == 0 {
		t.Error("unattributed traffic should still count toward totals")
	}
	for svc, per := range ref.agg.SvcCommuneBytes[DL] {
		if per != nil {
			t.Errorf("unattributed traffic reached commune accounting of %s", ref.agg.Names.Name(services.ID(svc)))
		}
	}
}

func TestCorruptFramesCounted(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	cells := gtpsim.BuildCells(country, 1)
	p := New(DefaultConfig(), cells, dpi.NewClassifier(services.Catalog()))
	p.HandleFrame(timeseries.StudyStart, []byte{0xde, 0xad})
	p.HandleFrame(timeseries.StudyStart, make([]byte, 40)) // zeroed "IP packet"
	if p.Report().DecodeErrors != 2 {
		t.Errorf("DecodeErrors = %d, want 2", p.Report().DecodeErrors)
	}
}

func TestSimulatorConfigValidation(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	bad := []gtpsim.Config{
		{Sessions: 0, Duration: time.Hour},
		{Sessions: 10, Duration: 0},
		{Sessions: 10, Duration: time.Hour, UnclassifiableShare: 0.99},
	}
	for i, cfg := range bad {
		if _, err := gtpsim.New(country, catalog, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestCellRegistry(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	cells := gtpsim.BuildCells(country, 1)
	if len(cells.Cells) < len(country.Communes) {
		t.Fatalf("%d cells for %d communes", len(cells.Cells), len(country.Communes))
	}
	// Every commune is covered.
	covered := map[int]bool{}
	for _, c := range cells.Cells {
		covered[c.Commune] = true
	}
	if len(covered) != len(country.Communes) {
		t.Errorf("only %d/%d communes covered", len(covered), len(country.Communes))
	}
	// Lookup round trip.
	c0 := cells.Cells[0]
	commune, ok := cells.CommuneOf(c0.ID)
	if !ok || commune != c0.Commune {
		t.Errorf("CommuneOf(%d) = %d, %v", c0.ID, commune, ok)
	}
	if _, ok := cells.CommuneOf(0xffffffff); ok {
		t.Error("unknown cell resolved")
	}
	if got, ok := cells.ByID(c0.ID); !ok || got.ID != c0.ID {
		t.Error("ByID failed")
	}
	near := cells.Nearest(c0.Pos)
	if near.Pos.Dist(c0.Pos) > 1e-9 {
		t.Error("Nearest did not return the co-located cell")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 50
	s1, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := s1.Run()
	f2, _ := s2.Run()
	if len(f1) != len(f2) {
		t.Fatalf("frame counts differ: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if !f1[i].Time.Equal(f2[i].Time) || len(f1[i].Data) != len(f2[i].Data) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

// BenchmarkProbePipeline sweeps the streaming pipeline over 1, 2 and
// NumCPU shards on one pre-materialized capture; the shards=1 case is
// the single-probe baseline plus routing overhead.
func BenchmarkProbePipeline(b *testing.B) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 500
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	frames, _ := sim.Run()
	var totalBytes int64
	for _, f := range frames {
		totalBytes += int64(len(f.Data))
	}
	cls := dpi.NewClassifier(catalog)
	for _, shards := range shardSweep() {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(totalBytes)
			for i := 0; i < b.N; i++ {
				pl := NewPipeline(DefaultConfig(), sim.Cells, cls, shards)
				if _, err := pl.Run(capture.NewSliceSource(frames)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestClassSeriesMeasured(t *testing.T) {
	// The observations bin per urbanization class of their commune;
	// class totals must reconcile exactly with the national series
	// (same accounting conditions, different key).
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 800
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	classifier := dpi.NewClassifier(catalog)
	p := New(DefaultConfig(), sim.Cells, classifier)
	ref := newRefSink(DefaultConfig(), classifier, country)
	p.SetSink(ref)
	for _, f := range frames {
		p.HandleFrame(f.Time, f.Data)
	}
	agg := ref.agg
	populated := 0
	for svc, cls := range agg.SvcClassSeries[DL] {
		if cls == nil {
			continue
		}
		populated++
		var classTotal float64
		for u := range cls {
			classTotal += cls[u].Total()
		}
		nat := agg.SvcSeries[DL][svc].Total()
		if math.Abs(classTotal-nat) > 1e-6*nat {
			t.Errorf("%s: class totals %v != national series total %v",
				agg.Names.Name(services.ID(svc)), classTotal, nat)
		}
	}
	if populated == 0 {
		t.Fatal("no per-class series")
	}
}

func TestUnknownCellCounted(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	cells := gtpsim.BuildCells(country, 1)
	p := New(DefaultConfig(), cells, dpi.NewClassifier(services.Catalog()))

	// A Create Session whose ULI references a cell absent from the
	// registry (e.g. a freshly deployed site the database lags behind).
	m := &pkt.GTPv2C{MessageType: pkt.GTPv2MsgCreateSessionRequest, TEID: 1, Sequence: 1,
		DataTEID: 55, HasDataTEID: true,
		Location: pkt.ULI{AreaCode: 1, CellID: 0xfffffff0}, HasULI: true}
	seg := (&pkt.UDP{SrcPort: 31000, DstPort: pkt.PortGTPC}).SerializeTo(nil, m.SerializeTo(nil, nil))
	frame := (&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, SrcIP: gtpsim.AccessGW, DstIP: gtpsim.CoreGW}).SerializeTo(nil, seg)

	p.HandleFrame(timeseries.StudyStart, frame)
	rep := p.Report()
	if rep.UnknownCell != 1 {
		t.Errorf("UnknownCell = %d, want 1", rep.UnknownCell)
	}
}

func TestProbeSurvivesMutatedFrames(t *testing.T) {
	// Failure injection: the probe must absorb arbitrary corruption of
	// a live capture without panicking, counting decode errors instead.
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 40
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	p := New(DefaultConfig(), sim.Cells, dpi.NewClassifier(catalog))
	rng := rand.New(rand.NewPCG(5, 6))
	for _, f := range frames {
		data := append([]byte(nil), f.Data...)
		if rng.IntN(3) == 0 {
			data[rng.IntN(len(data))] ^= byte(1 + rng.IntN(255))
		}
		if rng.IntN(10) == 0 {
			data = data[:rng.IntN(len(data))]
		}
		p.HandleFrame(f.Time, data)
	}
	rep := p.Report()
	if rep.DecodeErrors == 0 {
		t.Log("no decode errors despite mutation (possible but unlikely)")
	}
	if rep.UserPlanePackets == 0 {
		t.Error("probe lost all clean traffic")
	}
}
