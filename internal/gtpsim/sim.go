package gtpsim

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"repro/internal/capture"
	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/pkt"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// Gateway addresses of the simulated core. The probe distinguishes
// uplink from downlink frames by which gateway sends them, exactly as
// a real Gn/S5 tap does.
var (
	// AccessGW is the SGSN/S-GW side (radio access network facing).
	AccessGW = [4]byte{172, 16, 0, 1}
	// CoreGW is the GGSN/P-GW side (internet facing).
	CoreGW = [4]byte{172, 16, 0, 2}
)

// Config controls a simulation run.
type Config struct {
	// Sessions is the number of IP sessions to simulate.
	Sessions int
	// Start and Duration bound the observation window (defaults: the
	// study week at 15-minute resolution).
	Start    time.Time
	Duration time.Duration
	// UnclassifiableShare routes this fraction of sessions to
	// unfingerprinted endpoints (no SNI, unknown prefix), reproducing
	// the paper's 12% unclassified traffic.
	UnclassifiableShare float64
	// HandoverProb is the chance a session performs a mid-life
	// handover that relocates its ULI to a neighbouring cell.
	HandoverProb float64
	// ULISigmaKm is the Gaussian scale of the localization error on
	// reported positions. 2.55 km makes the *median* 2D error ≈ 3 km,
	// the figure the paper cites for ULI accuracy.
	ULISigmaKm float64
	// MeanSessionKB is the mean downlink volume per session.
	MeanSessionKB float64
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig returns test-scale defaults.
func DefaultConfig() Config {
	return Config{
		Sessions:            2000,
		Start:               timeseries.StudyStart,
		Duration:            timeseries.Week,
		UnclassifiableShare: 0.12,
		HandoverProb:        0.15,
		ULISigmaKm:          2.55,
		MeanSessionKB:       30,
		Seed:                1,
	}
}

// Frame is one captured packet with its observation timestamp. It is
// the capture-layer frame type: simulator output flows through
// capture.Source consumers without conversion.
type Frame = capture.Frame

// Stats summarizes ground truth of a run, used by tests to validate
// the probe against the generator.
type Stats struct {
	Frames          int
	Sessions        int
	BytesDL         float64
	BytesUL         float64
	UnknownBytes    float64 // bytes of unclassifiable sessions (DL+UL)
	SvcBytesDL      map[string]float64
	SvcBytesUL      map[string]float64
	CommuneBytesDL  map[int]float64 // keyed by *true* commune
	Handovers       int
	ULIErrorsKm     []float64 // displacement of every reported fix
	MisattributedKm float64
}

// MedianULIError returns the median localization error of the run.
func (s *Stats) MedianULIError() float64 {
	if len(s.ULIErrorsKm) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.ULIErrorsKm...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

// Simulator drives the session workload.
type Simulator struct {
	Country *geo.Country
	Catalog []services.Service
	Cells   *CellRegistry
	cfg     Config

	rng        *rand.Rand
	nextTEID   uint32
	nextSubIP  uint32
	svcCumul   []float64 // cumulative combined share for service draw
	comCumul   []float64 // cumulative subscriber share for commune draw
	profiles   []*timeseries.Series
	profCumul  [][]float64 // per-service cumulative profile for start times
	binLo      int         // session starts draw from profile bins
	binHi      int         // [binLo, binHi): the cfg observation window
	ulOverDL   []float64   // per-service UL/DL byte ratio
	seqCounter uint32

	// Per-session serialization state, reused across sessions so the
	// steady-state frame path allocates nothing: every layer's header is
	// appended, outermost first, straight into one arena per session
	// (invalidated when the next session starts — the capture.Source
	// ownership contract), followed by the payload. bufGTP holds a GTP-C
	// message body while its length is unknown; hellos caches the
	// deterministic per-service ClientHello bytes with their pkt.Sum.
	arena  []byte
	refs   []frameRef
	frames []Frame
	bufGTP []byte
	hellos []hello
}

// hello is a handshake opener and the pkt.Sum of its bytes, so the TCP
// checksum of the segment carrying it never re-reads the payload.
type hello struct {
	data []byte
	sum  uint32
}

// frameRef records one frame's timestamp and its byte range in the
// session arena; Data slices are materialized only once the arena has
// reached its final size, so arena growth can never dangle them.
type frameRef struct {
	at         time.Time
	start, end int
}

// zeroPayload backs every synthetic data segment: payload content is
// zeros, so all segments share one read-only buffer and any slice of it
// has pkt.Sum 0.
var zeroPayload [2048]byte

// unclassifiableHello is the opaque, SNI-free handshake opener of
// unfingerprinted sessions. Read-only.
var unclassifiableHello = newHello([]byte{0x16, 0x03, 0x01, 0x00, 0x02, 0xff, 0xff})

func newHello(data []byte) hello { return hello{data, pkt.Sum(data)} }

// Header sizes of the frames the simulator emits: no IP or TCP options,
// no GTP-U sequence number.
const ipHdr, udpHdr, gtpuHdr, tcpHdr = 20, 8, 8, 20

// New builds a simulator over the given country and catalogue.
func New(country *geo.Country, catalog []services.Service, cfg Config) (*Simulator, error) {
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("gtpsim: non-positive session count %d", cfg.Sessions)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("gtpsim: non-positive duration %v", cfg.Duration)
	}
	if cfg.UnclassifiableShare < 0 || cfg.UnclassifiableShare > 0.9 {
		return nil, fmt.Errorf("gtpsim: unclassifiable share %v outside [0, 0.9]", cfg.UnclassifiableShare)
	}
	s := &Simulator{
		Country:  country,
		Catalog:  catalog,
		Cells:    BuildCells(country, cfg.Seed),
		cfg:      cfg,
		rng:      rand.New(rand.NewPCG(cfg.Seed, 0x73696d)), // "sim"
		nextTEID: 100,
	}
	// The observation window maps onto the weekly profile grid: session
	// start times draw only from bins wholly inside
	// [cfg.Start, cfg.Start+cfg.Duration). Out-of-window bins keep
	// their slots in the cumulative tables with zero weight, so a
	// full-week window reproduces the unwindowed draw sequence bit for
	// bit — windowing is opt-in, never a behavior change.
	const profStep = 15 * time.Minute
	gridBins := int(timeseries.Week / profStep)
	winStart, winEnd := cfg.Start, cfg.Start.Add(cfg.Duration)
	s.binLo = int((winStart.Sub(timeseries.StudyStart) + profStep - 1) / profStep)
	s.binHi = int(winEnd.Sub(timeseries.StudyStart) / profStep)
	s.binLo = max(s.binLo, 0)
	s.binHi = min(s.binHi, gridBins)
	if s.binLo >= s.binHi {
		return nil, fmt.Errorf("gtpsim: observation window [%v, %v) covers no whole bin of the study week",
			winStart, winEnd)
	}

	// Service draw: combined DL volume share.
	var cum float64
	for i := range catalog {
		cum += catalog[i].DLShare
		s.svcCumul = append(s.svcCumul, cum)
		prof := services.WeeklyProfile(&catalog[i], profStep, services.DL)
		s.profiles = append(s.profiles, prof)
		pc := make([]float64, prof.Len())
		var c float64
		for j, v := range prof.Values {
			if j >= s.binLo && j < s.binHi {
				c += v
			}
			pc[j] = c
		}
		if c <= 0 {
			return nil, fmt.Errorf("gtpsim: %s has no profile mass in the observation window [%v, %v)",
				catalog[i].Name, winStart, winEnd)
		}
		s.profCumul = append(s.profCumul, pc)
		ratio := catalog[i].ULShare * services.ULToDLRatio / catalog[i].DLShare
		s.ulOverDL = append(s.ulOverDL, ratio)
	}
	// Commune draw: subscriber-weighted.
	cum = 0
	for i := range country.Communes {
		cum += float64(country.Communes[i].Subscribers)
		s.comCumul = append(s.comCumul, cum)
	}
	return s, nil
}

func (s *Simulator) teid() uint32 {
	s.nextTEID++
	return s.nextTEID
}

func (s *Simulator) seq() uint32 {
	s.seqCounter++
	return s.seqCounter
}

// drawIndex picks an index from a cumulative weight table.
func (s *Simulator) drawIndex(cumul []float64) int {
	x := s.rng.Float64() * cumul[len(cumul)-1]
	return sort.SearchFloat64s(cumul, x)
}

// Run simulates all sessions and returns the captured frames sorted by
// time, together with the ground-truth statistics. It is the
// materializing wrapper over Stream for consumers (tests, sorting)
// that need the whole capture at once; memory is O(total frames).
func (s *Simulator) Run() ([]Frame, *Stats) {
	st := s.Stream()
	frames, _ := capture.Collect(st) // a Stream only ever errors with io.EOF
	// The stable sort keeps each session's internal (already sorted)
	// frame order on timestamp ties, so a probe consuming this slice
	// attributes tied frames exactly like a streaming consumer.
	slices.SortStableFunc(frames, byTime)
	return frames, st.Stats()
}

// Stream returns a capture.Source that generates the workload lazily,
// one session at a time: memory stays O(frames per session) — constant
// in the total frame count — so session counts are bounded by time,
// not RAM. Frames arrive time-ordered within each session but not
// globally; per-tunnel causality (Create before data, handover between
// the data frames it splits) is preserved, which is all the probe's
// attribution state depends on.
//
// Frame data is serialized into a per-session arena that is reused by
// the next session: per the capture.Source ownership contract, a
// frame's Data is valid only until Next generates the following
// session. Consumers that retain frames (capture.Collect, the
// pipeline router) copy.
//
// A Simulator is single-use: Run and Stream consume the same
// underlying random stream, so create a fresh Simulator per run.
func (s *Simulator) Stream() *Stream {
	return &Stream{
		sim: s,
		stats: &Stats{
			SvcBytesDL:     map[string]float64{},
			SvcBytesUL:     map[string]float64{},
			CommuneBytesDL: map[int]float64{},
		},
	}
}

// Stream is the incremental frame source of a simulation run.
type Stream struct {
	sim     *Simulator
	stats   *Stats
	pending []Frame
	next    int
	session int
}

// Next implements capture.Source: it returns the next frame of the
// workload, generating sessions on demand, and io.EOF after the last
// session's last frame.
func (st *Stream) Next() (Frame, error) {
	for st.next >= len(st.pending) {
		if st.session >= st.sim.cfg.Sessions {
			st.stats.Sessions = st.sim.cfg.Sessions
			return Frame{}, io.EOF
		}
		st.pending = st.sim.session(st.stats)
		st.next = 0
		st.session++
		st.stats.Frames += len(st.pending)
	}
	f := st.pending[st.next]
	st.next++
	return f, nil
}

// Stats returns the ground-truth statistics accumulated so far. The
// totals are complete once Next has returned io.EOF.
func (st *Stream) Stats() *Stats { return st.stats }

// session generates one full session lifecycle. The returned slice
// and the frame data it references are owned by the simulator and
// reused by the next session call.
func (s *Simulator) session(stats *Stats) []Frame {
	s.arena = s.arena[:0]
	s.refs = s.refs[:0]

	communeIdx := s.drawIndex(s.comCumul)
	commune := &s.Country.Communes[communeIdx]
	svcIdx := s.drawIndex(s.svcCumul)
	svc := &s.Catalog[svcIdx]

	unclassifiable := s.rng.Float64() < s.cfg.UnclassifiableShare

	// Start time from the service's weekly profile, clamped into the
	// observation window (the draw can only leave it on the measure-
	// zero x == 0 edge of the cumulative search).
	pc := s.profCumul[svcIdx]
	binIdx := s.drawIndex(pc)
	binIdx = min(max(binIdx, s.binLo), s.binHi-1)
	prof := s.profiles[svcIdx]
	start := prof.TimeAt(binIdx).Add(time.Duration(s.rng.Float64() * float64(prof.Step)))
	sessionLife := time.Duration(1+s.rng.IntN(25)) * time.Minute

	// True and reported positions: the ULI error model.
	truePos := geo.Point{
		X: commune.Center.X + (s.rng.Float64()-0.5)*3,
		Y: commune.Center.Y + (s.rng.Float64()-0.5)*3,
	}
	reported := geo.Point{
		X: truePos.X + s.rng.NormFloat64()*s.cfg.ULISigmaKm,
		Y: truePos.Y + s.rng.NormFloat64()*s.cfg.ULISigmaKm,
	}
	cell := s.Cells.Nearest(reported)
	stats.ULIErrorsKm = append(stats.ULIErrorsKm, truePos.Dist(cell.Pos))

	is4G := commune.Coverage == geo.Tech4G
	ctrlTEID := s.teid()
	dataTEID := s.teid()
	subID := uint64(s.rng.Uint64())

	ueIP := s.ueIP()
	serverIP := s.serverIP(svcIdx, unclassifiable)

	uli := pkt.ULI{AreaCode: cell.AreaCode, CellID: cell.ID}
	s.controlFrames(start, is4G, false, ctrlTEID, dataTEID, subID, uli)

	// Traffic: DL-heavy with the per-service UL/DL ratio.
	dlBytes := s.cfg.MeanSessionKB * 1024 * math.Exp(s.rng.NormFloat64()*0.8-0.32)
	ulBytes := dlBytes * s.ulOverDL[svcIdx]
	if unclassifiable {
		stats.UnknownBytes += dlBytes + ulBytes
	} else {
		stats.SvcBytesDL[svc.Name] += dlBytes
		stats.SvcBytesUL[svc.Name] += ulBytes
	}
	stats.BytesDL += dlBytes
	stats.BytesUL += ulBytes
	stats.CommuneBytesDL[communeIdx] += dlBytes

	// Optional handover mid-session.
	handoverAt := time.Time{}
	if s.rng.Float64() < s.cfg.HandoverProb {
		handoverAt = start.Add(sessionLife / 2)
		stats.Handovers++
	}

	s.dataFrames(start, sessionLife, svcIdx, unclassifiable,
		dataTEID, ueIP, serverIP, dlBytes, ulBytes)

	if !handoverAt.IsZero() {
		// Move to another cell ~5 km away; may cross commune borders.
		newPos := geo.Point{X: truePos.X + 5, Y: truePos.Y}
		newCell := s.Cells.Nearest(newPos)
		s.controlFrames(handoverAt, is4G, true, ctrlTEID, dataTEID, subID,
			pkt.ULI{AreaCode: newCell.AreaCode, CellID: newCell.ID})
	}

	s.deleteFrames(start.Add(sessionLife), is4G, ctrlTEID)

	// Materialize the Frame views only now, once the arena has its
	// final backing array.
	s.frames = s.frames[:0]
	for _, ref := range s.refs {
		s.frames = append(s.frames, Frame{Time: ref.at, Data: s.arena[ref.start:ref.end:ref.end]})
	}
	// Emit the session's frames in observation order. Stable, so a data
	// frame and a handover update landing on the same instant keep
	// their causal order, and streaming consumers see exactly the
	// per-tunnel sequence the materialized (globally sorted) path sees.
	slices.SortStableFunc(s.frames, byTime)
	return s.frames
}

func byTime(a, b Frame) int { return a.Time.Compare(b.Time) }

func (s *Simulator) ueIP() [4]byte {
	s.nextSubIP++
	v := s.nextSubIP
	return [4]byte{10, byte(v >> 16), byte(v >> 8), byte(v)}
}

func (s *Simulator) serverIP(svcIdx int, unclassifiable bool) [4]byte {
	if unclassifiable {
		return [4]byte{dpi.UnknownPrefix[0], dpi.UnknownPrefix[1], byte(s.rng.IntN(256)), byte(1 + s.rng.IntN(254))}
	}
	p := dpi.PrefixFor(svcIdx)
	return [4]byte{p[0], p[1], byte(s.rng.IntN(256)), byte(1 + s.rng.IntN(254))}
}

// controlFrames emits a Create (or Modify/Update, when modify is true)
// exchange carrying the ULI into the session arena.
func (s *Simulator) controlFrames(at time.Time, is4G, modify bool, ctrlTEID, dataTEID uint32, subID uint64, uli pkt.ULI) {
	if is4G {
		m := &pkt.GTPv2C{
			MessageType: pkt.GTPv2MsgCreateSessionRequest,
			TEID:        ctrlTEID, Sequence: s.seq(),
			DataTEID: dataTEID, HasDataTEID: true,
			SubscriberID: subID, HasSubscriber: true,
			Location: uli, HasULI: true,
		}
		if modify {
			m.MessageType = pkt.GTPv2MsgModifyBearerRequest
		}
		s.bufGTP = m.SerializeTo(s.bufGTP[:0], nil)
		s.wrap(at, AccessGW, CoreGW, s.bufGTP)
		r := &pkt.GTPv2C{MessageType: m.MessageType + 1, TEID: ctrlTEID, Sequence: m.Sequence}
		s.bufGTP = r.SerializeTo(s.bufGTP[:0], nil)
		s.wrap(at.Add(20*time.Millisecond), CoreGW, AccessGW, s.bufGTP)
	} else {
		m := &pkt.GTPv1C{
			MessageType: pkt.GTPv1MsgCreatePDPRequest,
			TEID:        ctrlTEID, Sequence: uint16(s.seq()),
			DataTEID: dataTEID, HasDataTEID: true,
			SubscriberID: subID, HasSubscriber: true,
			Location: uli, HasULI: true,
		}
		if modify {
			m.MessageType = pkt.GTPv1MsgUpdatePDPRequest
		}
		s.bufGTP = m.SerializeTo(s.bufGTP[:0], nil)
		s.wrap(at, AccessGW, CoreGW, s.bufGTP)
		r := &pkt.GTPv1C{MessageType: m.MessageType + 1, TEID: ctrlTEID, Sequence: m.Sequence}
		s.bufGTP = r.SerializeTo(s.bufGTP[:0], nil)
		s.wrap(at.Add(20*time.Millisecond), CoreGW, AccessGW, s.bufGTP)
	}
}

func (s *Simulator) deleteFrames(at time.Time, is4G bool, ctrlTEID uint32) {
	if is4G {
		m := &pkt.GTPv2C{MessageType: pkt.GTPv2MsgDeleteSessionRequest, TEID: ctrlTEID, Sequence: s.seq()}
		s.bufGTP = m.SerializeTo(s.bufGTP[:0], nil)
	} else {
		m := &pkt.GTPv1C{MessageType: pkt.GTPv1MsgDeletePDPRequest, TEID: ctrlTEID, Sequence: uint16(s.seq())}
		s.bufGTP = m.SerializeTo(s.bufGTP[:0], nil)
	}
	s.wrap(at, AccessGW, CoreGW, s.bufGTP)
}

// helloFor returns the (deterministic) TLS ClientHello of a catalogue
// service, built once and cached. Read-only for callers.
func (s *Simulator) helloFor(svcIdx int) hello {
	if s.hellos == nil {
		s.hellos = make([]hello, len(s.Catalog))
	}
	if s.hellos[svcIdx].data == nil {
		s.hellos[svcIdx] = newHello(dpi.BuildClientHello(dpi.ServiceHost(s.Catalog[svcIdx].Name)))
	}
	return s.hellos[svcIdx]
}

// dataFrames emits the tunnelled user traffic of a session into the
// session arena. The first uplink packet carries the TLS ClientHello
// with the service SNI (except for unclassifiable sessions).
func (s *Simulator) dataFrames(start time.Time, life time.Duration, svcIdx int, unclassifiable bool,
	dataTEID uint32, ueIP, serverIP [4]byte, dlBytes, ulBytes float64) {

	const mss = 1340
	uePort := uint16(40000 + s.rng.IntN(20000))
	serverPort := uint16(443)
	if !unclassifiable && s.Catalog[svcIdx].Name == "MMS" {
		serverPort = dpi.MMSPort
	}

	// emit appends one G-PDU frame: outer IPv4/UDP between the gateways,
	// GTP-U, the subscriber's IPv4/TCP, then the payload — whose pkt.Sum
	// the caller states, so the TCP checksum costs a header's worth of
	// summing and the payload bytes are touched once, by the copy.
	emit := func(at time.Time, srcIP, dstIP [4]byte, srcPort, dstPort uint16, payload []byte, payloadSum uint32, uplink bool) {
		outerSrc, outerDst := AccessGW, CoreGW
		if !uplink {
			outerSrc, outerDst = CoreGW, AccessGW
		}
		n := len(payload)
		frameStart := s.outerHeaders(outerSrc, outerDst, pkt.PortGTPU, gtpuHdr+ipHdr+tcpHdr+n)
		gtpu := pkt.GTPv1U{MessageType: pkt.GTPMsgGPDU, TEID: dataTEID}
		s.arena = gtpu.AppendHeader(s.arena, ipHdr+tcpHdr+n)
		inner := pkt.IPv4{TTL: 60, Protocol: pkt.IPProtoTCP, SrcIP: srcIP, DstIP: dstIP}
		s.arena = inner.AppendHeader(s.arena, tcpHdr+n)
		tcp := pkt.TCP{SrcPort: srcPort, DstPort: dstPort, Flags: pkt.TCPAck, Window: 65535}
		tcp.SetChecksumIPs(srcIP, dstIP)
		s.arena = tcp.AppendHeader(s.arena, n, payloadSum)
		s.arena = append(s.arena, payload...)
		s.refs = append(s.refs, frameRef{at: at, start: frameStart, end: len(s.arena)})
	}

	// First uplink packet: the TLS handshake opener.
	opener := unclassifiableHello
	if !unclassifiable {
		opener = s.helloFor(svcIdx)
	}
	emit(start.Add(50*time.Millisecond), ueIP, serverIP, uePort, serverPort, opener.data, opener.sum, true)

	nDL := int(dlBytes/mss) + 1
	for i := 0; i < nDL; i++ {
		size := mss
		if rem := int(dlBytes) - i*mss; rem < mss {
			size = rem
		}
		if size <= 0 {
			break
		}
		at := start.Add(time.Duration(float64(life) * float64(i+1) / float64(nDL+1)))
		emit(at, serverIP, ueIP, serverPort, uePort, zeroPayload[:size], 0, false)
	}
	// Uplink data rides in full segments (posts, uploads, ACK piggyback
	// is ignored): one packet per MSS, so small uplink volumes become a
	// single adequately sized packet rather than a spray of tiny ones.
	ulRemaining := int(ulBytes) - len(opener.data)
	nUL := ulRemaining/mss + 1
	for i := 0; i < nUL && ulRemaining > 0; i++ {
		size := mss
		if ulRemaining < mss {
			size = ulRemaining
		}
		at := start.Add(time.Duration(float64(life) * float64(i+1) / float64(nUL+1))).Add(3 * time.Millisecond)
		emit(at, ueIP, serverIP, uePort, serverPort, zeroPayload[:size], 0, true)
		ulRemaining -= size
	}
}

// outerHeaders starts a frame in the session arena: the IPv4 and UDP
// headers, between the gateways, of a GTP message of gtpLen bytes. It
// returns the frame's start offset. The outer UDP checksum is left
// zero, so no payload sum is owed.
func (s *Simulator) outerHeaders(src, dst [4]byte, dstPort uint16, gtpLen int) int {
	start := len(s.arena)
	udp := pkt.UDP{SrcPort: uint16(32000 + s.rng.IntN(1000)), DstPort: dstPort}
	ip := pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, SrcIP: src, DstIP: dst}
	s.arena = ip.AppendHeader(s.arena, udpHdr+gtpLen)
	s.arena = udp.AppendHeader(s.arena, gtpLen, 0)
	return start
}

// wrap emits a GTP-C message as one frame of the session arena.
func (s *Simulator) wrap(at time.Time, src, dst [4]byte, gtp []byte) {
	start := s.outerHeaders(src, dst, pkt.PortGTPC, len(gtp))
	s.arena = append(s.arena, gtp...)
	s.refs = append(s.refs, frameRef{at: at, start: start, end: len(s.arena)})
}
