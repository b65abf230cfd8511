package bind

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Errors reported by zone operations.
var (
	ErrNotInZone      = errors.New("bind: name not within zone")
	ErrUpdateDenied   = errors.New("bind: dynamic update not enabled for zone")
	ErrNoSuchRecord   = errors.New("bind: no such record")
	ErrCNAMEConflict  = errors.New("bind: CNAME cannot coexist with other records")
	ErrTooManyAliases = errors.New("bind: CNAME chain too long")
)

// Zone is one authoritative zone: an origin, a serial, and the records at
// or below the origin. Zones are safe for concurrent use.
type Zone struct {
	origin string
	// allowUpdate marks the authors' modified BIND: only such zones
	// accept dynamic updates over the HRPC interface.
	allowUpdate bool

	mu      sync.RWMutex
	serial  uint32
	records map[string][]RR // keyed by owner name; mixed types per name

	// The zone's history: its newest transactions, oldest first, each
	// tagged with the serial it left the zone at, so "changes since serial
	// S" is answered from memory. It keeps as many whole transactions as
	// fit one reply — diffBytes of journal 'U' records, never more than
	// replyBudget — so any answer DiffSince gives can be sent.
	diff      []DiffRec
	diffBytes int
}

// Op is one operation of a transaction: add RR, or remove the records it
// matches.
type Op struct {
	Op uint32 // UpdateAdd or UpdateRemove
	RR RR
}

// Adds is the transaction adding rrs.
func Adds(rrs ...RR) []Op {
	ops := make([]Op, len(rrs))
	for i, rr := range rrs {
		ops[i] = Op{UpdateAdd, rr}
	}
	return ops
}

// Removes is the transaction removing every record of type t at names.
func Removes(t RRType, names ...string) []Op {
	ops := make([]Op, len(names))
	for i, name := range names {
		ops[i] = Op{UpdateRemove, RR{Name: name, Type: t}}
	}
	return ops
}

// DiffRec is one retained transaction, the unit of an IXFR-style
// incremental transfer: applying Ops leaves the zone at Serial.
type DiffRec struct {
	Serial uint32
	Ops    []Op
}

// NewZone creates an empty zone rooted at origin. allowUpdate enables the
// dynamic-update extension (the HNS meta-zones need it; conventional zones
// do not).
func NewZone(origin string, allowUpdate bool) (*Zone, error) {
	o, err := CanonicalName(origin)
	if err != nil {
		return nil, err
	}
	return &Zone{
		origin:      o,
		allowUpdate: allowUpdate,
		serial:      1,
		records:     make(map[string][]RR),
	}, nil
}

// Origin reports the zone's origin name.
func (z *Zone) Origin() string { return z.origin }

// AllowsUpdate reports whether the zone accepts dynamic updates.
func (z *Zone) AllowsUpdate() bool { return z.allowUpdate }

// Serial reports the zone's current serial number; every mutation bumps
// it, as secondaries (and the HNS preloader) rely on.
func (z *Zone) Serial() uint32 {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.serial
}

// Contains reports whether name falls at or below the zone origin.
func (z *Zone) Contains(name string) bool {
	n := len(name) - len(z.origin)
	return strings.HasSuffix(name, z.origin) && (n == 0 || name[n-1] == '.')
}

// Apply is the one way a zone's records change: ops apply in order as one
// transaction, all or none, and bump the serial once, which is returned.
// An add installs a record (validated and canonicalized first), replacing
// a duplicate (same name/type/data) to refresh its TTL; a CNAME cannot
// share a name with other records, and data must survive the zone-file
// line format so any zone dumps and re-parses losslessly. A remove
// deletes the records matching its name, type and data (any data if its
// own is empty), and fails if none does.
func (z *Zone) Apply(ops []Op) (uint32, error) {
	z.mu.Lock()
	defer z.mu.Unlock()
	t := &txn{z: z, staged: make(map[string][]RR, len(ops))}
	done := make([]Op, len(ops))
	for i, op := range ops {
		rr := op.RR
		err := rr.Validate()
		if err == nil {
			switch op.Op {
			case UpdateAdd:
				err = t.addRun(rr.Name, []RR{rr})
			case UpdateRemove:
				err = t.remove(rr)
			default:
				err = fmt.Errorf("bind: unknown update op %d", op.Op)
			}
		}
		if err != nil {
			return z.serial, err
		}
		done[i] = Op{op.Op, rr}
	}
	t.commit()
	z.serial++
	z.logDiff(done)
	return z.serial, nil
}

// Add installs a record: Apply of one UpdateAdd.
func (z *Zone) Add(rr RR) error {
	_, err := z.Apply([]Op{{UpdateAdd, rr}})
	return err
}

// Remove deletes the records rr matches: Apply of one UpdateRemove.
func (z *Zone) Remove(rr RR) error {
	_, err := z.Apply([]Op{{UpdateRemove, rr}})
	return err
}

// admitData checks everything about a record but its name, which the
// caller has canonicalized: the data bound and class default of Validate,
// and that the data survives the zone-file line format.
func admitData(rr *RR) error {
	if err := rr.validateData(); err != nil {
		return err
	}
	if err := storableData(rr.Data); err != nil {
		return fmt.Errorf("%v on %s %s", err, rr.Name, rr.Type)
	}
	return nil
}

// mergeRR applies Add's rules to one owner name's record set: a CNAME and
// any other type cannot coexist, a duplicate is replaced where it stands,
// anything else is appended. set may be modified in place.
func mergeRR(set []RR, rr RR) ([]RR, error) {
	for _, e := range set {
		if rr.Type == TypeCNAME && e.Type != TypeCNAME {
			return nil, fmt.Errorf("%w: %s already has %s records", ErrCNAMEConflict, rr.Name, e.Type)
		}
		if rr.Type != TypeCNAME && e.Type == TypeCNAME {
			return nil, fmt.Errorf("%w: %s is an alias", ErrCNAMEConflict, rr.Name)
		}
	}
	for i, e := range set {
		if e.Equal(rr) {
			set[i] = rr // refresh TTL
			return set, nil
		}
	}
	return append(set, rr), nil
}

// ownerRun returns the end of the run of records starting at rrs[i] that
// carry the same owner name as written. Zone files and transfers arrive
// grouped by name, so the bulk paths canonicalize, route and look up a
// name once per run rather than once per record.
func ownerRun(rrs []RR, i int) int {
	j := i + 1
	for j < len(rrs) && rrs[j].Name == rrs[i].Name {
		j++
	}
	return j
}

// ownerRuns counts the runs in rrs under z: how many owner names a bulk
// install will create when the batch is grouped by name (an over-estimate
// when it is not), which is what sizes the record map once.
func (z *Zone) ownerRuns(rrs []RR) int {
	n := 0
	for i := 0; i < len(rrs); i = ownerRun(rrs, i) {
		if z.Contains(rrs[i].Name) {
			n++
		}
	}
	return n
}

// txn stages changes to a zone whose write lock the caller holds, for
// Zone.Apply, Zone.Replace and Server.LoadRecords: each owner touched gets
// a private copy of its records, so nothing shows until commit installs
// them all, and a transaction that fails part way is simply dropped.
type txn struct {
	z      *Zone
	staged map[string][]RR // owner name → its records once the transaction is in
	n      uint32          // records added
}

// owner returns name's staged records, copying the live ones on first
// touch with room for grow more.
func (t *txn) owner(name string, grow int) []RR {
	if set, ok := t.staged[name]; ok {
		return set
	}
	live := t.z.records[name]
	return append(make([]RR, 0, len(live)+grow), live...)
}

// addRun stages run, whose records all belong under the canonical owner
// name, with exactly the checks and outcome of one add per record.
func (t *txn) addRun(name string, run []RR) error {
	if !t.z.Contains(name) {
		return fmt.Errorf("%w: %s not under %s", ErrNotInZone, name, t.z.origin)
	}
	set := t.owner(name, len(run))
	for _, rr := range run {
		rr.Name = name
		if err := admitData(&rr); err != nil {
			return err
		}
		var err error
		if set, err = mergeRR(set, rr); err != nil {
			return err
		}
		t.n++
	}
	t.staged[name] = set
	return nil
}

// remove stages the removal of the records rr, validated, matches.
func (t *txn) remove(rr RR) error {
	set := t.owner(rr.Name, 0)
	kept := set[:0]
	for _, e := range set {
		if e.Type != rr.Type || len(rr.Data) != 0 && string(e.Data) != string(rr.Data) {
			kept = append(kept, e)
		}
	}
	if len(kept) == len(set) {
		return fmt.Errorf("%w: %s %s %q", ErrNoSuchRecord, rr.Name, rr.Type, rr.Data)
	}
	t.staged[rr.Name] = kept
	return nil
}

// commit installs what was staged; an owner left with no records goes. A
// first load installs the staged map itself rather than copy it.
func (t *txn) commit() {
	z := t.z
	fresh := len(z.records) == 0
	if fresh {
		z.records = t.staged
	}
	for name, set := range t.staged {
		if len(set) == 0 {
			delete(z.records, name)
		} else if !fresh {
			z.records[name] = set
		}
	}
}

// logDiff appends one transaction to the history at the zone's serial,
// then drops the oldest whole transactions until the rest fit one reply
// (the server admits none larger, so the newest stays). Each is dropped
// once: amortized O(1) per transaction. Caller holds z.mu.
func (z *Zone) logDiff(ops []Op) {
	z.diff = append(z.diff, DiffRec{Serial: z.serial, Ops: ops})
	z.diffBytes += updateLen(z.origin, ops)
	for z.diffBytes > replyBudget {
		z.diffBytes -= updateLen(z.origin, z.diff[0].Ops)
		z.diff[0] = DiffRec{} // let the dropped transaction go
		z.diff = z.diff[1:]
	}
}

// DiffSince returns the transactions that move the zone from serial since
// to its current serial, oldest first. ok=false means the history cannot
// prove continuity — since is older than it reaches, or ahead of the
// zone — and the caller must fall back to a full transfer. An up-to-date
// caller gets (nil, true).
func (z *Zone) DiffSince(since uint32) ([]DiffRec, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if since == z.serial {
		return nil, true
	}
	// Find the first retained transaction after since; continuity holds
	// only if the history reaches back to since+1.
	if since > z.serial || len(z.diff) == 0 || z.diff[0].Serial > since+1 {
		return nil, false
	}
	start := 0
	for start < len(z.diff) && z.diff[start].Serial <= since {
		start++
	}
	out := make([]DiffRec, len(z.diff)-start)
	copy(out, z.diff[start:])
	return out, true
}

// Lookup returns the records of the given type at name, following CNAME
// chains (to a depth of 8). The returned slice is a copy.
func (z *Zone) Lookup(name string, t RRType) ([]RR, error) {
	name, err := CanonicalName(name)
	if err != nil {
		return nil, err
	}
	z.mu.RLock()
	defer z.mu.RUnlock()
	for hop := 0; hop < 8; hop++ {
		rrs := z.records[name]
		if len(rrs) == 0 {
			return nil, nil
		}
		// Direct match?
		var out []RR
		for _, r := range rrs {
			if r.Type == t {
				out = append(out, r)
			}
		}
		if len(out) > 0 {
			return append([]RR(nil), out...), nil
		}
		// Alias?
		var alias string
		for _, r := range rrs {
			if r.Type == TypeCNAME {
				alias = string(r.Data)
				break
			}
		}
		if alias == "" {
			return nil, nil
		}
		if alias, err = CanonicalName(alias); err != nil {
			return nil, err
		}
		name = alias
	}
	return nil, ErrTooManyAliases
}

// ownerSet is one owner name and its records.
type ownerSet struct {
	name string
	rrs  []RR
}

// ordered lists the zone's owner names in order — the one sort every
// whole-zone operation (transfer, journal image, checkpoint) performs.
// Owners are few and compare as strings; sorting the records themselves
// would move each 56-byte struct through the comparison. Caller holds
// z.mu.
func (z *Zone) ordered() []ownerSet {
	owners := make([]ownerSet, 0, len(z.records))
	for name, rrs := range z.records {
		owners = append(owners, ownerSet{name, rrs})
	}
	slices.SortFunc(owners, func(a, b ownerSet) int { return strings.Compare(a.name, b.name) })
	return owners
}

// inOrder returns one owner's records in (type, data) order: the set
// itself when it already is — zone files and transfers arrive that way —
// otherwise a sorted copy in scratch.
func (o ownerSet) inOrder(scratch *[]RR) []RR {
	if slices.IsSortedFunc(o.rrs, compareInName) {
		return o.rrs
	}
	*scratch = append((*scratch)[:0], o.rrs...)
	slices.SortFunc(*scratch, compareInName)
	return *scratch
}

// All returns every record in the zone, deterministically ordered — the
// payload of an AXFR-style transfer.
func (z *Zone) All() []RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.all()
}

// image is the zone whole as one journal 'R' record, its serial and
// records read under one lock.
func (z *Zone) image() []byte {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return encodeReplace(z.origin, z.serial, z.all())
}

// all is All with z.mu held.
func (z *Zone) all() []RR {
	owners := z.ordered()
	n := 0
	for _, o := range owners {
		n += len(o.rrs)
	}
	out := make([]RR, 0, n)
	var scratch []RR
	for _, o := range owners {
		out = append(out, o.inOrder(&scratch)...)
	}
	return out
}

// Count reports the number of records in the zone.
func (z *Zone) Count() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, rrs := range z.records {
		n += len(rrs)
	}
	return n
}

// Replace swaps the zone's entire contents for rrs at the given serial —
// the receiving half of a zone transfer. The records are staged as adds
// to an empty zone are, so every one must validate and fall within the
// zone.
func (z *Zone) Replace(rrs []RR, serial uint32) error {
	t := &txn{z: &Zone{origin: z.origin}, staged: make(map[string][]RR, z.ownerRuns(rrs))}
	for i, j := 0, 0; i < len(rrs); i = j {
		j = ownerRun(rrs, i)
		name, err := CanonicalName(rrs[i].Name)
		if err != nil {
			return err
		}
		if err := t.addRun(name, rrs[i:j]); err != nil {
			return err
		}
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.records = t.staged
	z.serial = serial
	// A wholesale swap breaks continuity: the history restarts from the
	// new serial.
	z.diff, z.diffBytes = nil, 0
	return nil
}

// Adopt moves from's records, serial and history into z, leaving from
// empty: how a restarted server takes over a zone recovered from disk
// without copying or re-checking records that were checked against this
// same origin when recovery installed them, and keeps the history the
// replay rebuilt.
func (z *Zone) Adopt(from *Zone) error {
	if from.origin != z.origin {
		return fmt.Errorf("bind: zone %s cannot adopt %s", z.origin, from.origin)
	}
	from.mu.Lock()
	records, serial, diff, diffBytes := from.records, from.serial, from.diff, from.diffBytes
	from.records, from.diff, from.diffBytes = make(map[string][]RR), nil, 0
	from.mu.Unlock()
	z.mu.Lock()
	defer z.mu.Unlock()
	z.records, z.serial, z.diff, z.diffBytes = records, serial, diff, diffBytes
	return nil
}

// ForceSerial pins the zone serial: journal recovery to the serial each
// acknowledged update reported, a mirror to the serial a delta left the
// primary at. In lockstep it changes nothing and the history stands; a
// jump breaks continuity, and the history restarts from s.
func (z *Zone) ForceSerial(s uint32) {
	z.mu.Lock()
	if s != z.serial {
		z.serial = s
		z.diff, z.diffBytes = nil, 0
	}
	z.mu.Unlock()
}
