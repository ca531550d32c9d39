package catalog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ctl"
	"repro/internal/leakcheck"
	"repro/internal/rollup"
)

// ctlRequest speaks one round of the ctl protocol, exactly like
// rollupctl fetch: send a line, read "ok <n>\n" + n bytes.
func ctlRequest(t *testing.T, addr, req string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, req+"\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	line = strings.TrimSuffix(line, "\n")
	if !strings.HasPrefix(line, "ok ") {
		t.Fatalf("request %q: server answered %q", req, line)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(line, "ok "))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServer drives the daemon over a snapshot directory through every
// ctl command, then lands a new day in the directory and checks the
// rescan picks it up.
func TestServer(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	var merged *rollup.Partial
	for day := 0; day < 3; day++ {
		p := dayPartial(t, day)
		if err := rollup.WriteFile(filepath.Join(dir, fmt.Sprintf("day-%d.roll", day)), p); err != nil {
			t.Fatal(err)
		}
		q, err := rollup.ReadFile(filepath.Join(dir, fmt.Sprintf("day-%d.roll", day)))
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = q
		} else if err := merged.Merge(q); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewServer("127.0.0.1:0", nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var st status
	if err := json.Unmarshal(ctlRequest(t, s.Addr(), "status"), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Files) != 3 || st.Bins != 3*dayBins {
		t.Fatalf("status %+v, want 3 files over %d bins", st, 3*dayBins)
	}

	// snapshot: full fidelity, byte-identical to merging the members.
	mergedPath := filepath.Join(t.TempDir(), "merged.roll")
	if err := rollup.MergeFiles(mergedPath, mustGlob(t, dir)...); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctlRequest(t, s.Addr(), "snapshot"); !bytes.Equal(got, want) {
		t.Fatal("ctl snapshot differs from MergeFiles of the members")
	}

	// window and query: decoded replies equal the reference views.
	for _, spec := range []rollup.ViewSpec{
		{From: 0, To: dayBins},
		{From: dayBins, To: 2 * dayBins, Services: []string{"Netflix", "YouTube"}},
	} {
		req := "query|" + spec.String()
		if len(spec.Services) == 0 {
			req = fmt.Sprintf("window %d:%d", spec.From, spec.To)
		}
		got, err := rollup.Read(bytes.NewReader(ctlRequest(t, s.Addr(), req)))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := spec.Apply(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("ctl %q diverges from the reference view", req)
		}
	}

	// A new day lands; the next request must see 4 members.
	if err := rollup.WriteFile(filepath.Join(dir, "day-3.roll"), dayPartial(t, 3)); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ctlRequest(t, s.Addr(), "status"), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Files) != 4 {
		t.Fatalf("after a new snapshot landed the server still reports %d files", len(st.Files))
	}

	// Unknown commands answer err, not a hang or a close.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "bogus\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "err ") {
		t.Fatalf("bogus command answered %q, %v", line, err)
	}
}

func mustGlob(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.roll"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestServerAnswersOldOrNewDuringRewrites races full queries against
// ~50 rewrites of one member with rollup.WriteFile: every answer is
// error-free and is exactly the view over the old member or the view
// over the new one, never a mix or a truncated read.
func TestServerAnswersOldOrNewDuringRewrites(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	for day := 0; day < 3; day++ {
		if err := rollup.WriteFile(filepath.Join(dir, fmt.Sprintf("day-%d.roll", day)), dayPartial(t, day)); err != nil {
			t.Fatal(err)
		}
	}
	member := filepath.Join(dir, "day-1.roll")
	short := dayPartial(t, 1)
	short.Epochs = short.Epochs[:len(short.Epochs)/2]
	short.TotalBytes = short.CellTotals()
	short.ClassifiedBytes = short.TotalBytes
	versions := []*rollup.Partial{dayPartial(t, 1), short}

	s, err := NewServer("127.0.0.1:0", nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client := &ctl.Client{Addr: s.Addr()}
	req := "query|" + rollup.ViewSpec{From: 0, To: 3 * dayBins}.String()
	views := make([][]byte, len(versions))
	for i := len(versions) - 1; i >= 0; i-- {
		if err := rollup.WriteFile(member, versions[i]); err != nil {
			t.Fatal(err)
		}
		if views[i], err = client.Request(req); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(views[0], views[1]) {
		t.Fatal("the two versions of the member answer the same view")
	}

	const rewrites = 50
	werr := make(chan error, 1)
	go func() {
		for i := 1; i <= rewrites; i++ {
			if err := rollup.WriteFile(member, versions[i%2]); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	for queries := 0; ; queries++ {
		got, err := client.Request(req)
		if err != nil {
			t.Errorf("query %d during the rewrites: %v", queries, err)
		} else if !bytes.Equal(got, views[0]) && !bytes.Equal(got, views[1]) {
			t.Errorf("query %d answered %d bytes, neither the old view (%d) nor the new (%d)",
				queries, len(got), len(views[0]), len(views[1]))
		}
		select {
		case err := <-werr:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
	}
}
