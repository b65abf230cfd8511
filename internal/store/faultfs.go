package store

import (
	"errors"
	"math/rand"
	"sync"
)

// Disk-fault injection: FaultFS wraps an inner FS and makes scheduled
// operations fail the way a dying machine fails — the process "crashes"
// at a chosen write (optionally tearing that write partway through) or
// just before a chosen file removal, a read comes back with a flipped bit.
// Randomness (where a torn write cuts, which bit rots) derives from the
// plan's seed, so every crash point in the harness is reproducible. The
// plan drives the wrapper the way transport.Plan drives network chaos.

// ErrCrashed is the error every FS operation returns once the plan's
// crash point is reached: from the store's perspective the process is
// dead. The harness catches it, drops the wrapper, and reopens the inner
// FS the way a restarted process would reopen the disk.
var ErrCrashed = errors.New("store: injected crash (process died)")

// FaultPlan is a seeded schedule of disk faults. The zero countdowns
// mean "never"; arm them with CrashAfterWrites, CrashOnRemove, and
// BitrotRead. Safe for concurrent use.
type FaultPlan struct {
	mu  sync.Mutex
	rng *rand.Rand

	writesLeft  int  // crash on the Nth write (1-based); 0 = disarmed
	tornTail    bool // the crashing write lands a seeded prefix first
	removesLeft int  // crash on the Nth remove, before it happens
	readsLeft   int  // flip a seeded bit in the Nth non-empty read
	crashed     bool
}

// NewFaultPlan creates a plan whose random choices derive from seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{rng: rand.New(rand.NewSource(seed))}
}

// CrashAfterWrites schedules a crash on the n-th Write call (n ≥ 1).
// With torn set, a seeded prefix of that write reaches the inner FS
// first — the torn tail a real power cut leaves.
func (p *FaultPlan) CrashAfterWrites(n int, torn bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writesLeft = n
	p.tornTail = torn
}

// CrashOnRemove schedules a crash on the n-th Remove call, before the
// file goes: the case of a checkpoint that is on disk but has not pruned
// the segments it covers, which recovery must replay harmlessly.
func (p *FaultPlan) CrashOnRemove(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.removesLeft = n
}

// BitrotRead schedules one flipped bit in the n-th non-empty Read call —
// silent media corruption that checksum verification must catch.
func (p *FaultPlan) BitrotRead(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readsLeft = n
}

// Crashed reports whether the plan's crash point has been reached.
func (p *FaultPlan) Crashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// onWrite decides the fate of one write of len n: how many prefix bytes
// to land (only meaningful when crashing), and whether to crash.
func (p *FaultPlan) onWrite(n int) (prefix int, crash bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return 0, true
	}
	if p.writesLeft == 0 {
		return n, false
	}
	p.writesLeft--
	if p.writesLeft > 0 {
		return n, false
	}
	p.crashed = true
	if p.tornTail && n > 0 {
		return p.rng.Intn(n), true // strictly shorter than the full write
	}
	return 0, true
}

// onRemove reports whether this remove crashes the process first.
func (p *FaultPlan) onRemove() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return true
	}
	if p.removesLeft == 0 {
		return false
	}
	p.removesLeft--
	if p.removesLeft > 0 {
		return false
	}
	p.crashed = true
	return true
}

// onRead returns the index of a byte to corrupt in an n-byte read, or -1.
func (p *FaultPlan) onRead(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed || p.readsLeft == 0 || n == 0 {
		return -1
	}
	p.readsLeft--
	if p.readsLeft > 0 {
		return -1
	}
	return p.rng.Intn(n)
}

// other gates every remaining operation on the crashed flag.
func (p *FaultPlan) other() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return ErrCrashed
	}
	return nil
}

// FaultFS wraps inner, injecting the plan's faults. After the crash
// point every operation — on the FS and on every file opened through it
// — returns ErrCrashed.
type FaultFS struct {
	inner FS
	plan  *FaultPlan
}

// NewFaultFS wraps inner under plan.
func NewFaultFS(inner FS, plan *FaultPlan) *FaultFS {
	return &FaultFS{inner: inner, plan: plan}
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if err := f.plan.other(); err != nil {
		return nil, err
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: file, plan: f.plan}, nil
}

// Append implements FS.
func (f *FaultFS) Append(name string) (File, error) {
	if err := f.plan.other(); err != nil {
		return nil, err
	}
	file, err := f.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: file, plan: f.plan}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	if err := f.plan.other(); err != nil {
		return nil, err
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: file, plan: f.plan}, nil
}

// Remove implements FS; a scheduled remove crash leaves the file in
// place.
func (f *FaultFS) Remove(name string) error {
	if f.plan.onRemove() {
		return ErrCrashed
	}
	return f.inner.Remove(name)
}

// Truncate implements FS.
func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.plan.other(); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

// List implements FS.
func (f *FaultFS) List() ([]string, error) {
	if err := f.plan.other(); err != nil {
		return nil, err
	}
	return f.inner.List()
}

// faultFile applies write/read faults on one handle.
type faultFile struct {
	inner File
	plan  *FaultPlan
}

// Write implements io.Writer. A crashing write may land a seeded prefix
// (the torn tail) before the injected death.
func (f *faultFile) Write(p []byte) (int, error) {
	prefix, crash := f.plan.onWrite(len(p))
	if crash {
		if prefix > 0 {
			f.inner.Write(p[:prefix]) // best effort: the torn tail
		}
		return 0, ErrCrashed
	}
	return f.inner.Write(p)
}

// Read implements io.Reader, flipping a scheduled bit in flight.
func (f *faultFile) Read(p []byte) (int, error) {
	if err := f.plan.other(); err != nil {
		return 0, err
	}
	n, err := f.inner.Read(p)
	if n > 0 {
		if i := f.plan.onRead(n); i >= 0 {
			p[i] ^= 0x10
		}
	}
	return n, err
}

// Sync implements File.
func (f *faultFile) Sync() error {
	if err := f.plan.other(); err != nil {
		return err
	}
	return f.inner.Sync()
}

// Close implements io.Closer. Closing remains possible after a crash so
// deferred cleanup in the harness does not cascade.
func (f *faultFile) Close() error { return f.inner.Close() }
