package chaos

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// ErrCrashed is reported by every FS operation after a crash fault
// latches: the simulated process is dead, and only constructing a
// fresh FS (a "restart") clears it. Restart tests reopen the real
// files and assert a consistent cursor was recovered.
var ErrCrashed = errors.New("chaos: filesystem crashed")

// FS is the filesystem seam the durability points go through — exactly
// the operations the spool, the state log and WriteAtomic need, so the
// OS implementation stays a thin veneer over package os.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, making a completed rename durable.
	SyncDir(dir string) error
}

// File is the open-file half of the FS seam.
type File interface {
	io.Writer
	io.WriterAt
	io.ReaderAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// OS is the passthrough FS used when no chaos is armed.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // avoid a typed-nil File
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Rename(o, n string) error             { return os.Rename(o, n) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteAtomic commits a whole file at path through fs: write streams
// the contents into path+".tmp", which is fsynced, closed and renamed
// over path, and then the directory is fsynced so the rename survives
// too. A failure before the rename removes the temp file and leaves
// path exactly as it was. A crash at any point leaves the complete old
// file or the complete new one, never a prefix, plus at worst a stale
// temp file that the next write truncates; its ".tmp" suffix keeps it
// out of store globs such as "*.roll". An error from the final
// directory sync means the new file is in place but not yet durable.
//
// path must be absent or a regular file: the rename replaces the
// directory entry, so a symlink or a device node such as /dev/stdout
// would be swapped for a plain file instead of written through.
func WriteAtomic(fs FS, path string, write func(io.Writer) error) error {
	if fi, err := os.Lstat(path); err == nil && !fi.Mode().IsRegular() {
		return fmt.Errorf("chaos: %s is not a regular file; a whole-file commit would replace it, not write through it", path)
	}
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		// The commit failed already; a temp file the remove cannot take
		// (a crashed FS) is truncated by the next write.
		_ = fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// FS wraps fs with the schedule's disk faults at the named site. A nil
// injector returns fs unchanged.
func (in *Injector) FS(site string, fs FS) FS {
	if in == nil {
		return fs
	}
	return &faultFS{in: in, st: in.site(site), fs: fs}
}

type faultFS struct {
	in *Injector
	st *siteState
	fs FS
}

// crashPoint checks both the latch and the CrashAt arming for the
// named op, latching (and tearing the op) when its turn comes.
// It returns true when the operation must fail with ErrCrashed.
func (f *faultFS) crashPoint(op string) bool {
	in := f.in
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return true
	}
	if in.crashArm && in.crashSite == f.st.name && in.crashOp == op {
		n := f.st.opN[op]
		f.st.opN[op]++
		if n == in.crashAt {
			in.crashed = true
			in.fired++
			return true
		}
		return false
	}
	f.st.opN[op]++
	return false
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if f.crashPoint("open") {
		return nil, ErrCrashed
	}
	file, err := f.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, name: name}, nil
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if f.crashPoint("readfile") {
		return nil, ErrCrashed
	}
	return f.fs.ReadFile(name)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	// Crashing "at" a rename means crashing before it completes: the
	// old path survives, the new one never appears — the torn state a
	// restart must recover from.
	if f.crashPoint("rename") {
		return ErrCrashed
	}
	if f.in.fire(f.st, FaultRename) {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EIO}
	}
	return f.fs.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if f.crashPoint("remove") {
		return ErrCrashed
	}
	return f.fs.Remove(name)
}

func (f *faultFS) SyncDir(dir string) error {
	if f.crashPoint("syncdir") {
		return ErrCrashed
	}
	if f.in.fire(f.st, FaultFsync) {
		return &os.PathError{Op: "syncdir", Path: dir, Err: syscall.EIO}
	}
	return f.fs.SyncDir(dir)
}

// faultFile injects write-path faults. Reads pass through untouched:
// corrupting spool reads would make the shipper resend corrupt data
// forever (wire corruption is chaos.Conn's job), and torn reads are
// the crash latch's job.
type faultFile struct {
	fs   *faultFS
	f    File
	name string
}

// writeFault runs the shared write-path schedule for an n-byte write.
// It returns (short, err): err != nil fails the write outright; short
// >= 0 tears it after short bytes.
func (ff *faultFile) writeFault(n int) (int, error) {
	f := ff.fs
	if f.crashPoint("write") {
		return n / 2, ErrCrashed
	}
	if f.in.fire(f.st, FaultENOSPC) {
		return -1, &os.PathError{Op: "write", Path: ff.name, Err: syscall.ENOSPC}
	}
	if n > 1 && f.in.fire(f.st, FaultFSShortWrite) {
		return n / 2, &os.PathError{Op: "write", Path: ff.name, Err: io.ErrShortWrite}
	}
	return -1, nil
}

func (ff *faultFile) Write(p []byte) (int, error) {
	short, err := ff.writeFault(len(p))
	if err != nil && short < 0 {
		return 0, err
	}
	if short >= 0 {
		n, werr := ff.f.Write(p[:short])
		if werr != nil {
			return n, werr
		}
		return n, err
	}
	return ff.f.Write(p)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	short, err := ff.writeFault(len(p))
	if err != nil && short < 0 {
		return 0, err
	}
	if short >= 0 {
		n, werr := ff.f.WriteAt(p[:short], off)
		if werr != nil {
			return n, werr
		}
		return n, err
	}
	return ff.f.WriteAt(p, off)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if ff.fs.in.Crashed() {
		return 0, ErrCrashed
	}
	return ff.f.ReadAt(p, off)
}

func (ff *faultFile) Truncate(size int64) error {
	if ff.fs.in.Crashed() {
		return ErrCrashed
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Sync() error {
	if ff.fs.crashPoint("sync") {
		return ErrCrashed
	}
	if ff.fs.in.fire(ff.fs.st, FaultFsync) {
		return &os.PathError{Op: "sync", Path: ff.name, Err: syscall.EIO}
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	// Close always reaches the real file: leaking descriptors would
	// turn injected faults into real ones.
	return ff.f.Close()
}
