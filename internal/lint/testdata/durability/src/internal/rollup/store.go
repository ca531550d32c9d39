// Package rollup is the durability fixture: a stand-in for the
// snapshot/spool planes where every write must reach the platter
// before success is reported.
package rollup

import (
	"io"
	"os"

	"repro/internal/chaos"
)

func writeBare(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `bare os\.WriteFile on a durable plane skips fsync`
}

func createUnsynced(path string, data []byte) error {
	f, err := os.Create(path) // want `file created in place on a store plane`
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}

// createSynced reaches the platter, but under the final name: a crash
// mid-write still leaves a truncated file there.
func createSynced(path string, data []byte) error {
	f, err := os.Create(path) // want `file created in place on a store plane: .* chaos\.WriteAtomic`
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func openCreate(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644) // want `file created in place on a store plane`
}

func openCreateFlag(path string, flag int) (*os.File, error) {
	return os.OpenFile(path, flag|os.O_CREATE, 0o644) // want `file created in place on a store plane`
}

// openExisting creates nothing, so nothing can be left truncated.
func openExisting(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR, 0)
}

// writeAtomic is the store planes' one whole-file commit.
func writeAtomic(path string, data []byte) error {
	return chaos.WriteAtomic(chaos.OS, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func renameBare(tmp, dst string) error {
	return os.Rename(tmp, dst) // want `rename onto a durable path without a preceding fsync` `rename is not durable until the directory is synced`
}

func renameNoDirSync(f *os.File, tmp, dst string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Rename(tmp, dst) // want `rename is not durable until the directory is synced`
}

// renameDurable is the §13 commit sequence: contents synced, renamed
// into place, directory entry synced.
func renameDurable(f *os.File, tmp, dst, dir string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir flushes a directory entry, the tail of the commit sequence.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
