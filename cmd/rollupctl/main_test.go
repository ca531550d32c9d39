package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/leakcheck"
	"repro/internal/rollup"
	"repro/internal/timeseries"
)

// writeDay writes a one-day, two-service snapshot and returns its path.
func writeDay(t *testing.T, dir string, day int) string {
	t.Helper()
	cfg := rollup.Config{
		Start: timeseries.StudyStart.Add(time.Duration(day) * 24 * time.Hour), Step: 15 * time.Minute,
		Bins: 96, Geo: geo.SmallConfig(), Lateness: -1,
	}
	p := &rollup.Partial{Cfg: cfg, Services: []string{"Netflix", "YouTube"}}
	for bin := 0; bin < cfg.Bins; bin += 7 {
		p.Epochs = append(p.Epochs, rollup.Epoch{Bin: bin, Cells: []rollup.Cell{
			{Dir: 0, Svc: uint32(bin % 2), Commune: int32(bin % 5), Bytes: float64(1000 + day*100 + bin)},
		}})
	}
	p.TotalBytes = p.CellTotals()
	p.ClassifiedBytes = p.TotalBytes
	path := filepath.Join(dir, fmt.Sprintf("day-%d.roll", day))
	if err := rollup.WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	return path
}

// rollupctl runs one invocation and fails the test unless it exits
// with want.
func rollupctl(t *testing.T, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(context.Background(), args, &out, &errb); code != want {
		t.Fatalf("rollupctl %s: exit %d, want %d\nstderr: %s", strings.Join(args, " "), code, want, &errb)
	}
	return out.String(), errb.String()
}

// TestServeAndFetch is CI's "upgrade and serve" smoke in-process: a
// fetched query over `rollupctl serve` is byte-identical to `rollupctl
// query` of the same spec over the same store, the daemon's metrics
// count it, and cancelling the context (SIGTERM) stops the daemon with
// exit 0.
func TestServeAndFetch(t *testing.T) {
	leakcheck.Check(t)
	store, work := t.TempDir(), t.TempDir()
	for day := 0; day < 3; day++ {
		writeDay(t, store, day)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"serve", "-ctl", "127.0.0.1:0", store}, io.Discard, pw)
		pw.Close()
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	m := regexp.MustCompile(`serving 1 paths on (\S+) `).FindStringSubmatch(line)
	if err != nil || m == nil {
		t.Fatalf("serve's first log line %q, %v", line, err)
	}
	go io.Copy(io.Discard, pr)
	addr := m[1]

	direct, fetched := filepath.Join(work, "q.roll"), filepath.Join(work, "f.roll")
	rollupctl(t, 0, "query", "-window", "96:288", "-services", "Netflix", "-o", direct, store)
	rollupctl(t, 0, "fetch", "-from", addr, "-query", "96:288|services=Netflix", "-o", fetched)
	want, _ := os.ReadFile(direct)
	if got, _ := os.ReadFile(fetched); len(got) == 0 || !bytes.Equal(got, want) {
		t.Errorf("fetched query (%d bytes) differs from rollupctl query (%d bytes)", len(got), len(want))
	}
	rollupctl(t, 0, "verify", fetched)
	if out, _ := rollupctl(t, 0, "fetch", "-from", addr, "-metrics"); !strings.Contains(out, "catalog_queries_total 1\n") {
		t.Errorf("fetch -metrics should list one query:\n%s", out)
	}
	if out, _ := rollupctl(t, 0, "fetch", "-from", addr, "-status", "-json"); !strings.Contains(out, `"bins":288`) {
		t.Errorf("fetch -status -json: %s", out)
	}
	if _, errs := rollupctl(t, 1, "fetch", "-from", addr, "-conserve"); !strings.Contains(errs, "not an aggd endpoint?") {
		t.Errorf("fetch -conserve against a store daemon: %s", errs)
	}

	cancel()
	select {
	case c := <-code:
		if c != 0 {
			t.Errorf("serve exited %d after cancel, want 0", c)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not stop on cancel")
	}
}

// TestRunExitCodes: 0 is success (and -h), 1 a command that failed, 2 a
// usage error — at the top level and inside a subcommand's own flags.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	day := writeDay(t, dir, 0)
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"no-command", nil, 2, "Commands:"},
		{"unknown-command", []string{"frobnicate"}, 2, `unknown command "frobnicate"`},
		{"help", []string{"-h"}, 0, "Commands:"},
		{"subcommand-help", []string{"fetch", "-h"}, 0, "-conserve"},
		{"subcommand-unknown-flag", []string{"info", "-no-such-flag", day}, 2, "flag provided but not defined"},
		{"missing-operand", []string{"merge", "-o", filepath.Join(dir, "m.roll")}, 1, "rollupctl: merge: no source snapshots given"},
		{"missing-file", []string{"verify", filepath.Join(dir, "absent.roll")}, 1, "rollupctl: "},
		{"info", []string{"info", "-json", day}, 0, ""},
		{"self-merge", []string{"merge", "-o", filepath.Join(dir, "m.roll"), day, day}, 1, "rollupctl: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, errs := rollupctl(t, tc.code, tc.args...); !strings.Contains(errs, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, errs)
			}
		})
	}
}

// goldenFile decodes one of the rollup package's pinned hex goldens
// into a snapshot file and returns its path and bytes.
func goldenFile(t *testing.T, dir, name string) (string, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "rollup", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	data, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.TrimSuffix(name, ".golden")+".roll")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestGoldensInfoAndUpgrade pins the info -json and upgrade surface on
// both committed format goldens: the v1 file reports format 1 with no
// index object, both verify, the cell counts match a full decode, and
// upgrading the v1 golden writes exactly WriteV2 of its partial.
func TestGoldensInfoAndUpgrade(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		version int
	}{{"snapshot_v1.golden", rollup.SnapshotV1}, {"snapshot_v2.golden", rollup.SnapshotV2}} {
		path, data := goldenFile(t, dir, tc.name)
		p, err := rollup.Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		cells, overflow := 0, 0
		for _, ep := range p.Epochs {
			cells += len(ep.Cells)
			if ep.Bin == rollup.OverflowBin {
				overflow = len(ep.Cells)
			}
		}
		out, _ := rollupctl(t, 0, "info", "-json", path)
		var info map[string]any
		if err := json.Unmarshal([]byte(out), &info); err != nil {
			t.Fatalf("%s: info -json is not one JSON object: %v\n%s", tc.name, err, out)
		}
		_, hasIndex := info["index"]
		if info["format_version"] != float64(tc.version) || hasIndex != (tc.version == rollup.SnapshotV2) {
			t.Errorf("%s: format_version %v, index present %v", tc.name, info["format_version"], hasIndex)
		}
		if info["crc_ok"] != true || info["cells"] != float64(cells) || info["overflow_cells"] != float64(overflow) {
			t.Errorf("%s: crc_ok %v, cells %v (want %d), overflow_cells %v (want %d)",
				tc.name, info["crc_ok"], info["cells"], cells, info["overflow_cells"], overflow)
		}
		if tc.version != rollup.SnapshotV1 {
			continue
		}
		upgraded := filepath.Join(dir, "upgraded.roll")
		rollupctl(t, 0, "upgrade", path, upgraded)
		var want bytes.Buffer
		if err := rollup.WriteV2(&want, p); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(upgraded); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("upgrade of the v1 golden (%d bytes) differs from WriteV2 of its partial (%d bytes)", len(got), want.Len())
		}
	}
}

// TestFetchFailureKeepsOutput: a fetch whose reply breaks off part way,
// or that never connects, leaves an existing -o file byte-identical —
// for a snapshot, and for a text verb written to -o as well.
func TestFetchFailureKeepsOutput(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	out := writeDay(t, dir, 0)
	prev, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// broken declares a 4 KiB reply, sends 100 bytes of it and hangs up.
	broken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			conn, err := broken.Accept()
			if err != nil {
				return
			}
			bufio.NewReader(conn).ReadString('\n')
			io.WriteString(conn, "ok 4096\n"+strings.Repeat("x", 100))
			conn.Close()
		}
	}()
	defer func() { broken.Close(); <-served }()
	refused, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused.Close()

	for _, args := range [][]string{
		{"-from", broken.Addr().String()},
		{"-from", broken.Addr().String(), "-status"},
		{"-from", refused.Addr().String()},
	} {
		rollupctl(t, 1, append([]string{"fetch", "-o", out}, args...)...)
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, prev) {
			t.Errorf("failed fetch %v changed -o: %d bytes (err %v), was %d", args, len(got), err, len(prev))
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Errorf("failed fetches left %v behind", tmps)
	}
}
