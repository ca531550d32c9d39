package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// atomicNew is the file WriteAtomic commits in these tests. chunked
// writes it in five pieces, so a crash sweep has five write points.
var atomicNew = bytes.Repeat([]byte("new contents "), 64)

const atomicChunks = 5

func chunked(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		step := (len(data) + atomicChunks - 1) / atomicChunks
		for len(data) > 0 {
			n := min(step, len(data))
			if _, err := w.Write(data[:n]); err != nil {
				return err
			}
			data = data[n:]
		}
		return nil
	}
}

// atomicCases: WriteAtomic creating a file, and replacing one.
var atomicCases = []struct {
	name string
	old  []byte // nil: path does not exist beforehand
}{
	{"create", nil},
	{"replace", []byte("the previous, shorter contents")},
}

// atomicTarget makes a fresh directory holding old at path (or
// nothing, when old is nil) and returns path.
func atomicTarget(t *testing.T, old []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.roll")
	if old != nil {
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// checkHolds fails unless path holds exactly want (is absent, when
// want is nil).
func checkHolds(t *testing.T, path string, want []byte, what string) {
	t.Helper()
	got, err := os.ReadFile(path)
	switch {
	case want == nil && !errors.Is(err, os.ErrNotExist):
		t.Fatalf("%s: %s exists (%d bytes, err %v), want it absent", what, path, len(got), err)
	case want != nil && err != nil:
		t.Fatalf("%s: %v", what, err)
	case want != nil && !bytes.Equal(got, want):
		t.Fatalf("%s: %s holds %d bytes, want exactly the %d-byte old or new file", what, path, len(got), len(want))
	}
}

// checkNoTemp fails if a temp file is left beside path.
func checkNoTemp(t *testing.T, path, what string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("%s: %s left behind", what, e.Name())
		}
	}
}

// TestWriteAtomicCrashPoints crashes the process at every operation
// WriteAtomic performs, in turn. Before the rename completes the target
// holds its old bytes (or is absent); from the directory sync on it
// holds the new ones; never a prefix. A restart then rewrites it over
// the stale temp file.
func TestWriteAtomicCrashPoints(t *testing.T) {
	for _, tc := range atomicCases {
		for _, op := range []string{"open", "write", "sync", "rename", "syncdir"} {
			for n := 0; ; n++ {
				what := fmt.Sprintf("%s/%s#%d", tc.name, op, n)
				path := atomicTarget(t, tc.old)
				in := CrashAt("disk", op, n)
				err := WriteAtomic(in.FS("disk", OS), path, chunked(atomicNew))
				if in.Fired() == 0 {
					if err != nil {
						t.Fatalf("%s: no crash, yet %v", what, err)
					}
					if n == 0 {
						t.Fatalf("%s: WriteAtomic never performs this op", what)
					}
					break
				}
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("%s: err %v, want ErrCrashed", what, err)
				}
				want := tc.old
				if op == "syncdir" {
					want = atomicNew
				}
				checkHolds(t, path, want, what)

				if err := WriteAtomic(OS, path, chunked(atomicNew)); err != nil {
					t.Fatalf("%s: retry after restart: %v", what, err)
				}
				checkHolds(t, path, atomicNew, what+" retried")
				checkNoTemp(t, path, what+" retried")
			}
		}
	}
}

// TestWriteAtomicUnderDiskFaults runs WriteAtomic under seeded ENOSPC,
// short-write, fsync and rename faults. A failure before the rename
// leaves the target at its old bytes; only the directory sync fails
// after it, with the new file in place. No temp file survives either.
func TestWriteAtomicUnderDiskFaults(t *testing.T) {
	for _, tc := range atomicCases {
		var failed, committed int
		for seed := uint64(1); seed <= 200; seed++ {
			spec := Spec{Seed: seed}
			for _, f := range []Fault{FaultENOSPC, FaultFSShortWrite, FaultFsync, FaultRename} {
				spec.Prob[f] = 0.08
			}
			in := spec.Injector()
			path := atomicTarget(t, tc.old)
			err := WriteAtomic(in.FS("disk", OS), path, chunked(atomicNew))
			what := tc.name + ": " + in.String()
			var pe *os.PathError
			switch {
			case err == nil:
				committed++
				checkHolds(t, path, atomicNew, what)
			case errors.As(err, &pe) && pe.Op == "syncdir":
				checkHolds(t, path, atomicNew, what)
			default:
				failed++
				checkHolds(t, path, tc.old, what+": "+err.Error())
			}
			checkNoTemp(t, path, what)
		}
		if failed == 0 || committed == 0 {
			t.Fatalf("%s: %d failed and %d committed writes; the schedule must produce both", tc.name, failed, committed)
		}
	}
}

// TestWriteAtomicWriteError: a write callback that fails leaves the
// target untouched, removes the temp file and returns its error.
func TestWriteAtomicWriteError(t *testing.T) {
	boom := errors.New("encoder failed")
	for _, tc := range atomicCases {
		path := atomicTarget(t, tc.old)
		err := WriteAtomic(OS, path, func(w io.Writer) error {
			if _, err := w.Write(atomicNew[:100]); err != nil {
				return err
			}
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("%s: err %v, want the callback's", tc.name, err)
		}
		checkHolds(t, path, tc.old, tc.name)
		checkNoTemp(t, path, tc.name)
	}
}

// TestWriteAtomicRefusesNonRegular: a rename would swap a symlink (or
// a device such as /dev/stdout) for a plain file, so WriteAtomic
// refuses any path that exists and is not a regular file, and leaves
// it and its target as they were.
func TestWriteAtomicRefusesNonRegular(t *testing.T) {
	target := atomicTarget(t, []byte("the link's target"))
	link := filepath.Join(filepath.Dir(target), "link.roll")
	if err := os.Symlink(target, link); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(OS, link, chunked(atomicNew)); err == nil {
		t.Fatal("WriteAtomic replaced a symlink")
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("%s is no longer a symlink (%v)", link, err)
	}
	checkHolds(t, target, []byte("the link's target"), "symlink target")
	checkNoTemp(t, link, "refused write")
}
