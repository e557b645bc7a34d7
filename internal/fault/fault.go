// Package fault is the injectable environment seam of the durable serving
// path. Production code takes a fault.FS instead of calling the os package
// directly; in normal operation that is OS(), a zero-cost passthrough, and
// under test (or the chaos smoke) it is an Injector that deterministically
// fails the Nth matching operation, returns short writes, injects latency
// (through a Sleeper a test can substitute), or simulates ENOSPC/EIO — the
// harness that lets every failure edge of the WAL, snapshot, lock and
// cold-segment paths be exercised without root, loop devices, or flaky timing.
package fault

import (
	"io"
	"os"
	"time"
)

// File is the subset of *os.File the durable path uses. Injected
// implementations may fail or truncate any of these operations.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync commits the file's contents to stable storage (fsync).
	Sync() error
	// Truncate changes the size of the file.
	Truncate(size int64) error
	// Fd returns the underlying descriptor (the flock path needs it).
	// Injected files return the real descriptor of the file they wrap.
	Fd() uintptr
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface of the durable path: everything
// internal/server and internal/dataio touch on disk goes through one of
// these methods, so a single injected implementation covers every fault
// point.
type FS interface {
	// OpenFile is os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename is os.Rename (the snapshot publish step).
	Rename(oldpath, newpath string) error
	// Remove is os.Remove.
	Remove(name string) error
	// ReadFile is os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// MkdirAll is os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir is os.ReadDir (cold-segment discovery at boot).
	ReadDir(name string) ([]os.DirEntry, error)
}

// Sleeper abstracts blocking delays so tests never sleep for real.
type Sleeper interface {
	Sleep(d time.Duration)
}

// osFS is the passthrough FS used in production.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// OS returns the real filesystem.
func OS() FS { return osFS{} }
