package clearinghouse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"hns/internal/simtime"
)

// Store holds Clearinghouse entries. Reads charge the disk-read cost (the
// Clearinghouse keeps "virtually all data" on disk); writes charge the
// write-through cost. The store supports JSON snapshot persistence so the
// chd daemon can survive restarts.
type Store struct {
	mu      sync.RWMutex
	entries map[Name]map[string][]byte
}

// Errors reported by store operations.
var (
	ErrNoSuchObject   = errors.New("clearinghouse: no such object")
	ErrNoSuchProperty = errors.New("clearinghouse: no such property")
)

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{entries: make(map[Name]map[string][]byte)}
}

// Retrieve reads one property of an object, charging disk cost.
func (s *Store) Retrieve(ctx context.Context, n Name, property string) ([]byte, error) {
	simtime.Charge(ctx, simtime.CHDiskRead)
	s.mu.RLock()
	defer s.mu.RUnlock()
	props, ok := s.entries[n]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchObject, n)
	}
	v, ok := props[property]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoSuchProperty, property, n)
	}
	return append([]byte(nil), v...), nil
}

// AddItem creates or replaces a property on an object, creating the object
// if needed, charging write-through cost.
func (s *Store) AddItem(ctx context.Context, n Name, property string, value []byte) {
	simtime.Charge(ctx, simtime.CHWriteThrough)
	s.mu.Lock()
	defer s.mu.Unlock()
	props, ok := s.entries[n]
	if !ok {
		props = make(map[string][]byte)
		s.entries[n] = props
	}
	props[property] = append([]byte(nil), value...)
}

// DeleteItem removes one property; deleting the last property removes the
// object.
func (s *Store) DeleteItem(ctx context.Context, n Name, property string) error {
	simtime.Charge(ctx, simtime.CHWriteThrough)
	s.mu.Lock()
	defer s.mu.Unlock()
	props, ok := s.entries[n]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchObject, n)
	}
	if _, ok := props[property]; !ok {
		return fmt.Errorf("%w: %s on %s", ErrNoSuchProperty, property, n)
	}
	delete(props, property)
	if len(props) == 0 {
		delete(s.entries, n)
	}
	return nil
}

// DeleteObject removes an object and all its properties.
func (s *Store) DeleteObject(ctx context.Context, n Name) error {
	simtime.Charge(ctx, simtime.CHWriteThrough)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[n]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchObject, n)
	}
	delete(s.entries, n)
	return nil
}

// List enumerates (sorted) the objects in a domain:organization, charging
// one disk read — the Clearinghouse enumeration the reregistration
// baseline leans on.
func (s *Store) List(ctx context.Context, domain, org string) []Name {
	simtime.Charge(ctx, simtime.CHDiskRead)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Name
	for n := range s.entries {
		if n.Domain == domain && n.Org == org {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Properties lists (sorted) the property names of an object.
func (s *Store) Properties(ctx context.Context, n Name) ([]string, error) {
	simtime.Charge(ctx, simtime.CHDiskRead)
	s.mu.RLock()
	defer s.mu.RUnlock()
	props, ok := s.entries[n]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchObject, n)
	}
	out := make([]string, 0, len(props))
	for p := range props {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// Len reports the number of objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// snapshotEntry is the persistence form of one object.
type snapshotEntry struct {
	Name       string            `json:"name"`
	Properties map[string][]byte `json:"properties"`
}

// Save writes a JSON snapshot of the store.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	entries := make([]snapshotEntry, 0, len(s.entries))
	for n, props := range s.entries {
		cp := make(map[string][]byte, len(props))
		for k, v := range props {
			cp[k] = append([]byte(nil), v...)
		}
		entries = append(entries, snapshotEntry{Name: n.String(), Properties: cp})
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(entries)
}

// Load replaces the store's contents from a JSON snapshot.
func (s *Store) Load(r io.Reader) error {
	var entries []snapshotEntry
	if err := json.NewDecoder(r).Decode(&entries); err != nil {
		return fmt.Errorf("clearinghouse: load snapshot: %w", err)
	}
	fresh := make(map[Name]map[string][]byte, len(entries))
	for _, e := range entries {
		n, err := ParseName(e.Name)
		if err != nil {
			return err
		}
		fresh[n] = e.Properties
	}
	s.mu.Lock()
	s.entries = fresh
	s.mu.Unlock()
	return nil
}

// SaveFile writes a snapshot to path atomically.
func (s *Store) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile loads a snapshot from path.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f)
}
