package store

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// MemFS is an in-memory FS. The crash harness runs a durable server over
// a FaultFS-wrapped MemFS, triggers an injected crash, and then reopens
// a fresh store over the same MemFS — the surviving byte contents are
// exactly the "disk image" a real machine would reboot with. Writes are
// modelled as immediately durable (the injector's crash points are write
// boundaries, with torn tails cutting inside the crashing write), so
// Sync is an accounting no-op.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
	syncs int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte)}
}

// Syncs reports how many File.Sync calls the filesystem has absorbed.
func (m *MemFS) Syncs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// Corrupt flips one bit of name at off — the direct way for tests to
// plant bitrot at a known location (FaultFS plants it on the Nth read
// instead).
func (m *MemFS) Corrupt(name string, off int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok || off < 0 || off >= len(b) {
		return fmt.Errorf("store: memfs corrupt %s@%d: no such byte", name, off)
	}
	b[off] ^= 0x40
	return nil
}

// Size reports the length of name, or -1 if absent.
func (m *MemFS) Size(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return -1
	}
	return int64(len(b))
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = nil
	return &memFile{fs: m, name: name, append: true}, nil
}

// Append implements FS.
func (m *MemFS) Append(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name, append: true}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("store: memfs open %s: no such file", name)
	}
	snap := append([]byte(nil), b...)
	return &memFile{fs: m, name: name, rdata: snap}, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("store: memfs remove %s: no such file", name)
	}
	delete(m.files, name)
	return nil
}

// Truncate implements FS.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return fmt.Errorf("store: memfs truncate %s: no such file", name)
	}
	if size < 0 || size > int64(len(b)) {
		return fmt.Errorf("store: memfs truncate %s to %d: out of range", name, size)
	}
	m.files[name] = b[:size]
	return nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for n := range m.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// memFile is one open handle. Reads serve a point-in-time copy taken at
// Open; writes append to the live file.
type memFile struct {
	fs     *MemFS
	name   string
	append bool
	rdata  []byte
	roff   int
}

// Read implements io.Reader over the snapshot taken at Open.
func (f *memFile) Read(p []byte) (int, error) {
	if f.roff >= len(f.rdata) {
		return 0, io.EOF
	}
	n := copy(p, f.rdata[f.roff:])
	f.roff += n
	return n, nil
}

// Write implements io.Writer, appending to the live file.
func (f *memFile) Write(p []byte) (int, error) {
	if !f.append {
		return 0, fmt.Errorf("store: memfs %s: read-only handle", f.name)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if _, ok := f.fs.files[f.name]; !ok {
		return 0, fmt.Errorf("store: memfs write %s: file removed", f.name)
	}
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

// Sync implements File.
func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.syncs++
	return nil
}

// Close implements io.Closer.
func (f *memFile) Close() error { return nil }
