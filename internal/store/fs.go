// Package store is the durability substrate for bindd: an append-only
// write-ahead log of length+CRC32C framed records with segment rotation,
// pruning and torn-tail tolerance. Everything reaches the disk through the
// FS interface, so a seeded fault injector (FaultFS: crash-at-write-N,
// torn tails, crash-at-remove-N, bitrot reads) can drive recovery the same
// way transport.Plan drives network chaos.
//
// The paper's name service assumes authoritative servers whose
// registrations outlive any single process; this package is what makes
// that true of our modified BIND. internal/bind layers zone semantics on
// top (see bind.Durable): the WAL carries journal records for dynamic
// updates and zone replacements, and a checkpoint is one more run of
// records in it — a marker, then each zone whole.
package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the flat filesystem a Log lives in: one directory of files
// addressed by base name.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Append opens name for appending, creating it if absent.
	Append(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name down to size bytes — how replay discards a
	// torn tail before appending resumes.
	Truncate(name string, size int64) error
	// List returns the base names of every file, sorted.
	List() ([]string, error)
}

// File is one open file. Writers must ensure a single Write call is the
// unit of crash atomicity the fault injector reasons about; the Log
// therefore writes each frame with exactly one Write.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's contents to stable storage.
	Sync() error
}

// ErrCorrupt reports a checksum or framing violation somewhere recovery
// cannot silently skip: a bad frame in the interior of the log, or a gap
// that would lose acknowledged records. Torn tails at the very end of the
// last segment are NOT corruption — they are the expected residue of a
// crash mid-append and are dropped.
var ErrCorrupt = errors.New("store: corrupt log")

// dirFS is the production FS: a directory on the real filesystem.
type dirFS struct {
	root string
}

// DirFS returns an FS rooted at dir on the host filesystem, creating the
// directory if needed.
func DirFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &dirFS{root: dir}, nil
}

func (d *dirFS) path(name string) string { return filepath.Join(d.root, filepath.Base(name)) }

func (d *dirFS) Create(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (d *dirFS) Append(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
}

func (d *dirFS) Open(name string) (File, error) {
	return os.Open(d.path(name))
}

func (d *dirFS) Remove(name string) error {
	return os.Remove(d.path(name))
}

func (d *dirFS) Truncate(name string, size int64) error {
	return os.Truncate(d.path(name), size)
}

func (d *dirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
