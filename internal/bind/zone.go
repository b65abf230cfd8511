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

	mu     sync.RWMutex
	serial uint32
	stored

	// The zone's history: its newest transactions, oldest first, each
	// tagged with the serial it left the zone at, so "changes since serial
	// S" is answered from memory. It keeps as many whole transactions as
	// fit one reply — diffBytes of journal 'U' records, never more than
	// replyBudget — so any answer DiffSince gives can be sent.
	diff      []DiffRec
	diffBytes int
}

// stored is a zone's records as it keeps them: marshalled, the bytes BIND's
// HRPC interface answers with (Table 3.2's question, asked of the
// authority). Each owner name's records are one sets payload (journal.go),
// grouped by type and, within a type, in the order they were added, so the
// answer to a query is a slice of it. A payload is never written once
// stored — a change stores a new one — and the []RR view is decoded only
// where one is asked for.
type stored struct {
	sets  map[string][]byte // owner name → its records' runs
	names []string          // the owners in order, or nil once one came or went since they were listed
	count int               // records
	held  int               // bytes of runs
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
		stored:      stored{sets: make(map[string][]byte)},
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
	t := z.begin(256)
	done, err := t.apply(ops)
	if err != nil {
		return z.serial, err
	}
	t.commit()
	z.serial++
	z.logDiff(done)
	return z.serial, nil
}

// apply stages ops in order, returning them as validated.
func (t *txn) apply(ops []Op) ([]Op, error) {
	done := make([]Op, len(ops))
	for i, op := range ops {
		rr := op.RR
		err := rr.Validate()
		if err == nil {
			switch op.Op {
			case UpdateAdd:
				err = t.add(rr.Name, []RR{rr})
			case UpdateRemove:
				err = t.remove(rr)
			default:
				err = fmt.Errorf("bind: unknown update op %d", op.Op)
			}
		}
		if err != nil {
			return nil, err
		}
		done[i] = Op{op.Op, rr}
	}
	return done, nil
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
// anything else goes after the last record of its type, keeping the set
// grouped by type. set may be modified in place.
func mergeRR(set []RR, rr RR) ([]RR, error) {
	at := 0
	for i, e := range set {
		// A set never holds a CNAME beside another type, so a conflict, if
		// there is one, is with its first record.
		if rr.Type == TypeCNAME && e.Type != TypeCNAME {
			return nil, fmt.Errorf("%w: %s already has %s records", ErrCNAMEConflict, rr.Name, e.Type)
		}
		if rr.Type != TypeCNAME && e.Type == TypeCNAME {
			return nil, fmt.Errorf("%w: %s is an alias", ErrCNAMEConflict, rr.Name)
		}
		if e.Equal(rr) {
			set[i] = rr // refresh TTL
			return set, nil
		}
		if e.Type <= rr.Type {
			at = i + 1
		}
	}
	return slices.Insert(set, at, rr), nil
}

// eachRun calls add with each run of rrs carrying one owner name as
// written, that name canonicalized. Zone files and transfers arrive
// grouped by name, so the bulk paths canonicalize, route and look up a
// name once per run rather than once per record.
func eachRun(rrs []RR, add func(name string, run []RR) error) error {
	for i, j := 0, 0; i < len(rrs); i = j {
		for j = i + 1; j < len(rrs) && rrs[j].Name == rrs[i].Name; j++ {
		}
		name, err := CanonicalName(rrs[i].Name)
		if err == nil {
			err = add(name, rrs[i:j])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// txn stages changes to a zone whose write lock the caller holds, so
// nothing shows until commit installs them all and a failed transaction
// is dropped. The owner being changed is held decoded in set. Staged for
// the first time, it is encoded into arena when the transaction moves on;
// staged again, it keeps its records decoded until commit, so each owner
// is encoded at most twice however often it is touched. Owners reaching
// an empty zone in order — a zone file, a transfer, an image — are staged
// with no lookup, and their arena is then the zone.
type txn struct {
	z       *Zone
	arena   []byte
	dead    int            // arena bytes of owners since staged again
	owners  []staged       // first staged first
	index   map[string]int // owner → its place in owners, once one came out of order
	again   map[int][]RR   // owners staged again, by place in owners → their records
	inOrder bool           // the zone was empty, and each owner has come after the one before
	n       uint32         // records added
	count   int            // records gained, net
	cur     int            // the owner being staged, or -1
	set     []RR           // its records
}

// staged is one owner's payload in its transaction's arena; an empty one
// means the owner goes.
type staged struct {
	name       string
	start, end int
}

// begin opens a transaction on z, whose write lock the caller holds, with
// an arena of the given capacity.
func (z *Zone) begin(size int) *txn {
	return &txn{z: z, arena: make([]byte, 0, size), inOrder: len(z.sets) == 0, cur: -1}
}

// stage makes name the owner being staged, its records as the transaction
// has them so far in t.set.
func (t *txn) stage(name string) {
	if t.cur >= 0 && t.owners[t.cur].name == name {
		return
	}
	t.flush()
	var p []byte // none when name is past every owner staged in an empty zone
	if n := len(t.owners); !t.inOrder || n > 0 && name <= t.owners[n-1].name {
		if t.inOrder = false; t.index == nil && n > 0 { // the first search of owners staged
			t.index = make(map[string]int, n)
			for i, o := range t.owners {
				t.index[o.name] = i
			}
		}
		if at, ok := t.index[name]; ok {
			set, ok := t.again[at]
			if o := t.owners[at]; !ok {
				set, _ = appendDecoded(nil, t.arena[o.start:o.end], name)
				t.count, t.dead = t.count-len(set), t.dead+o.end-o.start
				if t.again == nil {
					t.again = make(map[int][]RR)
				}
			}
			t.cur, t.set, t.again[at] = at, set, nil
			return
		}
		p = t.z.sets[name]
	}
	if t.index != nil {
		t.index[name] = len(t.owners)
	}
	t.cur, t.owners = len(t.owners), append(t.owners, staged{name: name})
	t.set, _ = appendDecoded(t.set[:0], p, name)
	t.count -= len(t.set)
}

// flush sets the owner being staged aside: one staged again keeps its
// records, another is encoded into the arena.
func (t *txn) flush() {
	if _, ok := t.again[t.cur]; ok {
		t.again[t.cur], t.set = t.set, nil
	} else if t.cur >= 0 {
		t.put(&t.owners[t.cur], t.set)
	}
}

// put encodes set into the arena as o's payload.
func (t *txn) put(o *staged, set []RR) {
	o.start, t.arena = len(t.arena), appendSets(t.arena, set)
	o.end, t.count = len(t.arena), t.count+len(set)
}

// add stages run, whose records all belong under the canonical owner
// name, with exactly the checks and outcome of one add per record.
func (t *txn) add(name string, run []RR) error {
	if !t.z.Contains(name) {
		return fmt.Errorf("%w: %s not under %s", ErrNotInZone, name, t.z.origin)
	}
	t.stage(name)
	for _, rr := range run {
		rr.Name = name
		if err := admitData(&rr); err != nil {
			return err
		}
		var err error
		if t.set, err = mergeRR(t.set, rr); err != nil {
			return err
		}
		t.n++
	}
	return nil
}

// remove stages the removal of the records rr, validated, matches.
func (t *txn) remove(rr RR) error {
	t.stage(rr.Name)
	kept := t.set[:0]
	for _, e := range t.set {
		if e.Type != rr.Type || len(rr.Data) != 0 && string(e.Data) != string(rr.Data) {
			kept = append(kept, e)
		}
	}
	if len(kept) == len(t.set) {
		return fmt.Errorf("%w: %s %s %q", ErrNoSuchRecord, rr.Name, rr.Type, rr.Data)
	}
	t.set = kept
	return nil
}

// commit installs what was staged; an owner left with no records goes.
// The zone keeps the arena alive, so it is first copied to the size of
// the payloads installed if it holds replaced ones, or unused room beyond
// both what they take and a 4 KiB page.
func (t *txn) commit() {
	t.flush()
	for at, set := range t.again {
		t.put(&t.owners[at], set)
	}
	if room := cap(t.arena) - len(t.arena); t.dead > 0 || room > max(len(t.arena), 4<<10) {
		arena := make([]byte, 0, len(t.arena)-t.dead)
		for i, o := range t.owners {
			arena = append(arena, t.arena[o.start:o.end]...)
			t.owners[i].start, t.owners[i].end = len(arena)-(o.end-o.start), len(arena)
		}
		t.arena = arena
	}
	z := t.z
	if t.inOrder { // every owner new and in order: the zone's whole list
		z.sets, z.names = make(map[string][]byte, len(t.owners)), make([]string, len(t.owners))
		for i, o := range t.owners {
			z.sets[o.name], z.names[i] = t.arena[o.start:o.end:o.end], o.name
		}
		z.count, z.held = t.count, len(t.arena)
		return
	}
	z.count += t.count
	for _, o := range t.owners {
		old := len(z.sets[o.name])
		if o.start == o.end {
			delete(z.sets, o.name)
		} else {
			z.sets[o.name] = t.arena[o.start:o.end:o.end]
		}
		if old == 0 || o.start == o.end {
			z.names = nil // an owner came or went
		}
		z.held += o.end - o.start - old
	}
}

// nameArena hands out strings that share a few large backing stores, so
// the owner names a zone file load reads cost no allocation each.
type nameArena struct{ b *strings.Builder }

func (a *nameArena) intern(name []byte) string {
	if a.b == nil || a.b.Cap()-a.b.Len() < len(name) {
		a.b = new(strings.Builder)
		a.b.Grow(max(len(name), 32<<10))
	}
	n := a.b.Len()
	a.b.Write(name)
	return a.b.String()[n:]
}

// ofType returns the runs of type t in p, owner name's stored payload —
// they lie together, since an owner's records are grouped by type —
// capped, so an append to them copies; and the data of the owner's first
// CNAME, if it has one.
func ofType(p []byte, name string, t RRType) (sets, alias []byte) {
	d := &journalDecoder{b: p, name: name}
	start, end := -1, 0
	for len(d.b) > 0 {
		at := len(p) - len(d.b)
		head, n := d.head(), d.num(2)
		for i := range n {
			if data := d.bytes(); i == 0 && head.Type == TypeCNAME && alias == nil {
				alias = data
			}
		}
		if head.Type != t {
			continue
		}
		if start < 0 {
			start = at
		}
		end = len(p) - len(d.b)
	}
	if start < 0 {
		return nil, alias
	}
	return p[start:end:end], alias
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
// chains (to a depth of 8), decoded from the runs the zone answers with.
func (z *Zone) Lookup(name string, t RRType) ([]RR, error) {
	sets, err := z.answer(name, t)
	if err != nil {
		return nil, err
	}
	return decodeSets(sets)
}

// answer is Lookup's answer as the zone holds it: the runs of type t at
// name, or at the end of name's CNAME chain — a slice of the zone's own
// bytes, which no change writes.
func (z *Zone) answer(name string, t RRType) ([]byte, error) {
	name, err := CanonicalName(name)
	if err != nil {
		return nil, err
	}
	z.mu.RLock()
	defer z.mu.RUnlock()
	for hop := 0; hop < 8; hop++ {
		sets, alias := ofType(z.sets[name], name, t)
		if sets != nil || alias == nil {
			return sets, nil
		}
		if name, err = CanonicalName(string(alias)); err != nil {
			return nil, err
		}
	}
	return nil, ErrTooManyAliases
}

// ordered lists the zone's owner names in order: the list a load or a
// replace left, when no owner has come or gone since, or else a sort —
// the one sort a whole-zone walk (transfer, image, checkpoint) performs.
// Caller holds z.mu.
func (z *Zone) ordered() []string {
	if z.names != nil {
		return z.names
	}
	names := make([]string, 0, len(z.sets))
	for name := range z.sets {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// appendSorted appends the zone's records to b as runs in (name, type,
// data) order — the body of a transfer and of an image — copying each
// owner's payload whose records are in order, as loads, transfers and
// images leave them, and re-encoding the others sorted. Caller holds z.mu.
func (z *Zone) appendSorted(b []byte) []byte {
	var set []RR
	for _, name := range z.ordered() {
		p := z.sets[name]
		if set, _ = appendDecoded(set[:0], p, name); slices.IsSortedFunc(set, compareInName) {
			b = append(b, p...)
		} else {
			slices.SortFunc(set, compareInName)
			b = appendSets(b, set)
		}
	}
	return b
}

// All returns every record in the zone, deterministically ordered — the
// payload of an AXFR-style transfer.
func (z *Zone) All() []RR {
	z.mu.RLock()
	sets := z.appendSorted(make([]byte, 0, z.held))
	z.mu.RUnlock()
	rrs, _ := decodeSets(sets)
	return rrs
}

// image is the zone whole as one journal 'R' record, its serial and
// records read under one lock.
func (z *Zone) image() []byte {
	z.mu.RLock()
	defer z.mu.RUnlock()
	head := appendImageHead(nil, z.origin, z.serial)
	return z.appendSorted(append(make([]byte, 0, len(head)+z.held), head...))
}

// Count reports the number of records in the zone.
func (z *Zone) Count() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.count
}

// Held reports how many owner names the zone holds and the bytes of runs
// it keeps their records in.
func (z *Zone) Held() (owners, bytes int) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.sets), z.held
}

// Replace swaps the zone's entire contents for rrs at the given serial —
// the receiving half of a zone transfer. The records are staged as adds
// to an empty zone are, so every one must validate and fall within the
// zone. A wholesale swap breaks continuity: the history restarts from the
// new serial.
func (z *Zone) Replace(rrs []RR, serial uint32) error {
	t := (&Zone{origin: z.origin}).begin(0)
	if err := eachRun(rrs, t.add); err != nil {
		return err
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.stored, t.z = stored{sets: make(map[string][]byte)}, z
	t.commit()
	z.serial, z.diff, z.diffBytes = serial, nil, 0
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
	records, serial, diff, diffBytes := from.stored, from.serial, from.diff, from.diffBytes
	from.stored, from.diff, from.diffBytes = stored{sets: make(map[string][]byte)}, nil, 0
	from.mu.Unlock()
	z.mu.Lock()
	defer z.mu.Unlock()
	z.stored, z.serial, z.diff, z.diffBytes = records, serial, diff, diffBytes
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
