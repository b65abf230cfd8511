// Package regbaseline implements the two binding mechanisms the paper
// compares the HNS against — both *reregistration-based*, the approach the
// HNS's direct-access design rejects:
//
//   - FileRegistry: "The interim HRPC binding mechanism, used prior to the
//     construction of the HNS prototype, was based on information
//     reregistered in replicated local files. Binding using this scheme
//     took 200 msec."
//   - CHRegistry: "a scheme in which a name service holds all of the
//     (reregistered) data. We implemented such a scheme on top of the
//     Clearinghouse, and found that binding took 166 msec."
//
// Both carry the costs the paper attributes to reregistration: the copy is
// stale between sweeps, and the sweep cost "continues without end".
package regbaseline

import (
	"context"
	"fmt"
	"sync"

	"hns/internal/hrpc"
	"hns/internal/simtime"
)

// FileEntry is one line of the replicated binding file.
type FileEntry struct {
	Service string
	Host    string
	Binding hrpc.Binding
}

// FileRegistry is the replicated-local-files baseline. Each Import parses
// the whole local file (the 1987 discipline: no resident daemon, just
// library code reading /etc-style data), so its cost grows with the number
// of registered services.
type FileRegistry struct {
	mu      sync.RWMutex
	entries []FileEntry
}

// NewFileRegistry creates an empty registry.
func NewFileRegistry() *FileRegistry {
	return &FileRegistry{}
}

// Add appends one entry (as the reregistration daemon would).
func (r *FileRegistry) Add(e FileEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, e)
}

// Len reports the number of registered entries.
func (r *FileRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Import binds by reading and parsing the local file: one disk read plus a
// per-entry parse of every line (the file must be fully parsed before the
// table can be consulted).
func (r *FileRegistry) Import(ctx context.Context, service, host string) (hrpc.Binding, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	simtime.Charge(ctx, simtime.FileRegRead)
	var found *FileEntry
	for i := range r.entries {
		simtime.Charge(ctx, simtime.FileRegScanPerEntry)
		e := &r.entries[i]
		if e.Service == service && e.Host == host {
			found = e
		}
	}
	if found == nil {
		return hrpc.Binding{}, fmt.Errorf("filereg: %s@%s not in replicated file (%d entries; reregistration may lag)",
			service, host, len(r.entries))
	}
	return found.Binding, nil
}
