package ctl_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/ctl"
	"repro/internal/epochwire"
	"repro/internal/geo"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/rollup"
	"repro/internal/services"
	"repro/internal/timeseries"
)

var confServices = []string{"Facebook", "Facebook Video", "Netflix", "Twitter", "YouTube"}

// seededPartial builds a two-day pseudo-random partial through the real
// builder, so orderings and the service table are canonical.
func seededPartial(t *testing.T) *rollup.Partial {
	t.Helper()
	cfg := rollup.Config{
		Start: timeseries.StudyStart, Step: 15 * time.Minute, Bins: 192,
		Geo: geo.SmallConfig(), Lateness: -1,
	}
	names := services.DefaultNames()
	rng := rand.New(rand.NewPCG(14, 0xc71))
	b := rollup.NewBuilder(cfg)
	for bin := 0; bin < cfg.Bins; bin++ {
		for ev := 0; ev < 5; ev++ {
			svc := confServices[rng.IntN(len(confServices))]
			id, ok := names.Lookup(svc)
			if !ok {
				t.Fatalf("service %q is not in the default catalogue", svc)
			}
			b.Observe(probe.Observation{
				At:  cfg.Start.Add(time.Duration(bin)*cfg.Step + time.Minute),
				Dir: services.Direction(rng.IntN(2)), Svc: id, Service: svc,
				Commune: rng.IntN(12), Bytes: float64(1 + rng.IntN(1500)),
			})
		}
	}
	p := b.Seal()
	p.TotalBytes = p.CellTotals()
	p.ClassifiedBytes = p.TotalBytes
	return p
}

// exchange speaks one raw round of the protocol — deliberately not
// through ctl.Client, so the server's bytes are what is compared. A
// closed connection with no reply yields ("", nil, io.EOF).
func exchange(t *testing.T, addr, line string) (header string, body []byte, err error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, line+"\n"); err != nil {
		return "", nil, err
	}
	br := bufio.NewReader(conn)
	header, err = br.ReadString('\n')
	if err != nil {
		return header, nil, err
	}
	header = strings.TrimSuffix(header, "\n")
	var n int
	if _, serr := fmt.Sscanf(header, "ok %d", &n); serr == nil {
		body = make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return header, nil, err
		}
	}
	// Framing is exact: nothing follows the declared body (or the err line).
	if extra, _ := io.ReadAll(br); len(extra) != 0 {
		t.Errorf("%q: %d stray bytes after the reply", line, len(extra))
	}
	return header, body, nil
}

// aggBackend feeds p to an in-process aggregator over the real epoch
// wire and returns its ctl address.
func aggBackend(t *testing.T, p *rollup.Partial) string {
	t.Helper()
	a, err := epochwire.NewAggregator("127.0.0.1:0", "127.0.0.1:0", epochwire.AggConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := epochwire.WriteHello(conn, &epochwire.Hello{ProbeID: "conf", Incarnation: 1, Cfg: p.Cfg}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := epochwire.ReadWelcome(br); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := rollup.Write(&blob, p); err != nil {
		t.Fatal(err)
	}
	msg := &epochwire.Message{Type: epochwire.MsgEpoch, Seq: 1, Watermark: uint64(p.Cfg.Bins), Blob: blob.Bytes()}
	if err := epochwire.WriteMessage(conn, msg); err != nil {
		t.Fatal(err)
	}
	if ack, err := epochwire.ReadMessage(br); err != nil || ack.Type != epochwire.MsgAck {
		t.Fatalf("aggregator did not ack the partial: %v, %v", ack, err)
	}
	return a.CtlAddr()
}

// storeBackend writes p to a one-file store behind catalog.NewServer.
func storeBackend(t *testing.T, p *rollup.Partial) string {
	t.Helper()
	dir := t.TempDir()
	if err := rollup.WriteFile(filepath.Join(dir, "conf.roll"), p); err != nil {
		t.Fatal(err)
	}
	s, err := catalog.NewServer("127.0.0.1:0", nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s.Addr()
}

// TestConformance runs one request list against both daemons' ctl
// sockets: "the same protocol" is one piece of code, so the live fold
// and the on-disk store must answer a view request with the same
// bytes — WriteV2 of the spec applied to the partial both hold — and
// fail the same requests the same way.
func TestConformance(t *testing.T) {
	leakcheck.Check(t)
	p := seededPartial(t)
	backends := []struct{ name, addr string }{
		{"aggregator", aggBackend(t, p)},
		{"catalog", storeBackend(t, p)},
	}
	viewBytes := func(spec rollup.ViewSpec) []byte {
		view, err := spec.Apply(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rollup.WriteV2(&buf, view); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	filtered := rollup.ViewSpec{From: 24, To: 120, Services: []string{"Netflix", "Facebook Video"}, Communes: []int{1, 2, 3, 5, 8}}

	cases := []struct {
		name, line string
		// exactly one of: view (reply body = these bytes), json (reply is
		// valid JSON), errHas (err line containing this), closed (no reply).
		view   []byte
		json   bool
		errHas string
		closed bool
	}{
		{name: "query", line: "query", view: viewBytes(rollup.ViewSpec{})},
		{name: "query-all", line: "query|all", view: viewBytes(rollup.ViewSpec{})},
		{name: "query-range", line: "query|24:120", view: viewBytes(rollup.ViewSpec{From: 24, To: 120})},
		{name: "query-filtered", line: "query|" + filtered.String(), view: viewBytes(filtered)},
		{name: "window", line: "window 24:120", view: viewBytes(rollup.ViewSpec{From: 24, To: 120})},
		{name: "window-padded", line: "  window   24:120  ", view: viewBytes(rollup.ViewSpec{From: 24, To: 120})},
		{name: "window-no-range", line: "window", errHas: "usage: window A:B"},
		{name: "window-bad-range", line: "window 24-120", errHas: "not A:B"},
		{name: "query-outside-grid", line: "query|0:9999", errHas: "9999"},
		{name: "query-bad-segment", line: "query|all|bogus=1", errHas: "bogus"},
		{name: "unknown-verb", line: "reticulate splines", errHas: `unknown command "reticulate splines"`},
		{name: "status", line: "status", json: true},
		{name: "metrics", line: "metrics", json: true},
		{name: "oversize-line", line: "query|services=" + strings.Repeat("x", 5000), closed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, b := range backends {
				header, body, err := exchange(t, b.addr, tc.line)
				switch {
				case tc.closed:
					if header != "" || err == nil {
						t.Errorf("%s: oversize request line answered %q, %v; want the connection closed", b.name, header, err)
					}
				case err != nil:
					t.Errorf("%s: %v", b.name, err)
				case tc.errHas != "":
					if !strings.HasPrefix(header, "err ") || !strings.Contains(header, tc.errHas) {
						t.Errorf("%s: answered %q, want an err line containing %q", b.name, header, tc.errHas)
					}
				case tc.json:
					if !strings.HasPrefix(header, "ok ") || !json.Valid(body) {
						t.Errorf("%s: answered %q + %.80q, want valid JSON", b.name, header, body)
					}
				default:
					if !strings.HasPrefix(header, "ok ") {
						t.Errorf("%s: answered %q, want a view", b.name, header)
					} else if !bytes.Equal(body, tc.view) {
						t.Errorf("%s: reply (%d bytes) differs from WriteV2(spec.Apply(partial)) (%d bytes)", b.name, len(body), len(tc.view))
					}
				}
			}
		})
	}
}

// countingBackend fails every call with a two-line error and counts
// the calls.
type countingBackend struct{ calls atomic.Int32 }

var errTwoLines = errors.New("first line\nsecond line")

func (b *countingBackend) Status() (any, error) { b.calls.Add(1); return nil, errTwoLines }

func (b *countingBackend) Snapshot() ([]byte, error) { b.calls.Add(1); return nil, errTwoLines }

func (b *countingBackend) View(rollup.ViewSpec) (*rollup.Partial, error) {
	b.calls.Add(1)
	return nil, errTwoLines
}

// TestServerFraming pins what only a scripted backend can show: an
// error is always exactly one line whatever the backend put in it, and
// a request line past the cap closes the connection before the backend
// is asked anything.
func TestServerFraming(t *testing.T) {
	leakcheck.Check(t)
	b := &countingBackend{}
	s, err := ctl.Serve("127.0.0.1:0", b, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i, line := range []string{"status", "snapshot", "query", "window 0:4"} {
		header, _, err := exchange(t, s.Addr(), line)
		if err != nil || header != "err first line second line" {
			t.Errorf("%q: answered %q, %v; want the error scrubbed to one line", line, header, err)
		}
		if got := int(b.calls.Load()); got != i+1 {
			t.Errorf("%q: backend called %d times so far, want %d", line, got, i+1)
		}
	}
	before := b.calls.Load()
	for _, line := range []string{"snapshot" + strings.Repeat(" ", 5000), "query|" + strings.Repeat("y", 5000)} {
		if header, _, err := exchange(t, s.Addr(), line); header != "" || err == nil {
			t.Errorf("5000-byte request line answered %q, %v; want the connection closed", header, err)
		}
	}
	if got := b.calls.Load(); got != before {
		t.Errorf("oversize request lines reached the backend %d times", got-before)
	}
}
