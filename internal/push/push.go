// Package push is the invalidation fan-out plane: the subscriber table a
// name server keeps per zone, and the notification codec it pushes over
// the transport's server-initiated frames (transport.Pusher).
//
// The design point is poll-to-discover → push-to-invalidate. A cache
// that subscribes stops burning wire re-fetching data that has not
// changed: the authority pushes a notification naming what each
// transaction touched, and the cache re-fetches only what it names. A
// plain subscription hears every transaction; a callback subscription
// (AFS's callback promise) hears a transaction only when its connection
// has read one of the names since the last notification naming it, so
// a frame that would invalidate nothing is never sent. Everything
// degrades to the old TTL polling: the table is
// bounded (an overflowing subscriber is refused and falls back to
// polling) and a dead connection drops its subscriptions (the client
// resubscribes with its last-seen serial and catches up via IXFR).
package push

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"hns/internal/metrics"
	"hns/internal/transport"
)

// DefaultMaxSubscribers bounds every Table: enough for a fleet of hnsd
// meta-caches plus secondaries, small enough that a subscription
// stampede degrades to polling instead of memory.
const DefaultMaxSubscribers = 4096

// Subscription is one subscriber's filter: a zone, and optionally a set
// of names within it. An empty Names set means the whole zone.
type Subscription struct {
	Zone  string
	Names []string // nil/empty: every name in the zone
	// Callback asks for a frame only when it could invalidate something
	// the subscriber holds: when one of its names was read on the sink
	// since the last frame naming it (see Table.Rearm).
	Callback bool
}

// Matches reports whether a notification for names in zone is covered:
// one of names is the subscriber's. Zone-level events (nil names: a
// serial bump touching the whole zone) reach every subscriber of the zone.
// Server and client both filter by it.
func (s *Subscription) Matches(zone string, names []string) bool {
	if s.Zone != zone {
		return false
	}
	if len(s.Names) == 0 || len(names) == 0 {
		return true
	}
	for _, n := range names {
		if slices.Contains(s.Names, n) {
			return true
		}
	}
	return false
}

// maxTold bounds one sink's told set. At the bound the set is cleared:
// forgetting a name only sends a frame that might have been skipped.
const maxTold = 1 << 16

// entry is one registered subscriber.
type entry struct {
	id   uint64
	sub  Subscription
	sink transport.Pusher
}

// callbackSink is the state of a sink carrying callback subscriptions.
type callbackSink struct {
	subs []*entry // its callback subscriptions; guarded by Table.mu

	mu sync.Mutex
	// told holds the names frames on the sink have named that no read
	// on it has asked for since: a frame naming only these would
	// invalidate nothing.
	told map[string]struct{}
}

// owes reports whether a frame naming names must go to the sink, and
// marks its names told: nil names (a zone-level event) is always owed
// and clears the set.
func (cb *callbackSink) owes(names []string) bool {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if names == nil {
		clear(cb.told)
		return true
	}
	if !slices.ContainsFunc(names, func(n string) bool { _, told := cb.told[n]; return !told }) {
		return false
	}
	for _, n := range names {
		if len(cb.told) >= maxTold {
			clear(cb.told)
		}
		cb.told[n] = struct{}{}
	}
	return true
}

// Table is a bounded registry of push subscribers. One Table serves one
// server; all methods are safe for concurrent use.
type Table struct {
	reg *metrics.Registry

	mu     sync.Mutex
	subs   map[uint64]*entry
	nextID uint64

	// callbacks maps each sink carrying a callback subscription to its
	// state. It is replaced, never changed, under mu, so Rearm reads it
	// without a lock.
	callbacks atomic.Pointer[map[transport.Pusher]*callbackSink]

	// dropped, when set (a test hook), hears the id of each subscription
	// dropped because its connection died.
	dropped chan<- uint64
}

// NewTable creates a table bounded at DefaultMaxSubscribers subscribers.
// reg receives the push_* series; nil means metrics.Default().
func NewTable(reg *metrics.Registry) *Table {
	if reg == nil {
		reg = metrics.Default()
	}
	return &Table{reg: reg, subs: make(map[uint64]*entry)}
}

// Add registers a subscriber. ok=false means the table is full — the
// caller must refuse the subscription so the client degrades to TTL
// polling. The returned id is the handle for Remove. The sink's Done
// channel is watched: when the carrying connection dies, the
// subscription is dropped automatically.
func (t *Table) Add(sub Subscription, sink transport.Pusher) (id uint64, ok bool) {
	t.mu.Lock()
	if len(t.subs) >= DefaultMaxSubscribers {
		t.mu.Unlock()
		t.reg.Counter("push_subscribe_rejected_total").Inc()
		return 0, false
	}
	t.nextID++
	id = t.nextID
	e := &entry{id: id, sub: sub, sink: sink}
	t.subs[id] = e
	if sub.Callback {
		cb := t.callbackSinks()[sink]
		if cb == nil {
			cb = &callbackSink{told: make(map[string]struct{})}
			t.setCallbackSink(sink, cb)
		}
		cb.subs = append(cb.subs, e)
	}
	n := len(t.subs)
	t.mu.Unlock()
	t.reg.Gauge("push_subscribers").Set(int64(n))
	t.reg.Counter("push_subscribe_total").Inc()
	go func() {
		<-sink.Done()
		if t.Remove(id) {
			t.reg.Counter("push_conn_drops_total").Inc()
			if t.dropped != nil {
				t.dropped <- id
			}
		}
	}()
	return id, true
}

// Remove drops a subscription; reports whether it was present.
func (t *Table) Remove(id uint64) bool {
	t.mu.Lock()
	e, present := t.subs[id]
	delete(t.subs, id)
	if present && e.sub.Callback {
		cb := t.callbackSinks()[e.sink]
		if cb.subs = slices.DeleteFunc(cb.subs, func(x *entry) bool { return x == e }); len(cb.subs) == 0 {
			t.setCallbackSink(e.sink, nil)
		}
	}
	n := len(t.subs)
	t.mu.Unlock()
	if present {
		t.reg.Gauge("push_subscribers").Set(int64(n))
	}
	return present
}

// Len reports the current subscriber count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.subs)
}

// callbackSinks returns the current sink → callback state map (nil when
// none). The map is never written after it is published.
func (t *Table) callbackSinks() map[transport.Pusher]*callbackSink {
	if m := t.callbacks.Load(); m != nil {
		return *m
	}
	return nil
}

// setCallbackSink publishes a copy of the callback map with sink mapped
// to cb, or removed when cb is nil. The caller holds t.mu.
func (t *Table) setCallbackSink(sink transport.Pusher, cb *callbackSink) {
	m := maps.Clone(t.callbackSinks())
	if m == nil {
		m = make(map[transport.Pusher]*callbackSink)
	}
	if cb == nil {
		delete(m, sink)
	} else {
		m[sink] = cb
	}
	t.callbacks.Store(&m)
}

// Rearm is told that sink is about to read names, or its whole zone when
// names is empty: frames naming them are owed to the sink's callback
// subscriptions again. A server calls it before it reads, so a frame
// published after it is sent, and one published before it is for a
// change the read sees. It reports whether the sink has a callback
// subscription; for one without, it takes no table-wide lock and
// allocates nothing.
func (t *Table) Rearm(sink transport.Pusher, names ...string) bool {
	cb := t.callbackSinks()[sink]
	if cb == nil {
		return false
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if len(names) == 0 {
		clear(cb.told)
	}
	for _, n := range names {
		delete(cb.told, n)
	}
	return true
}

// Publish pushes n, encoded once, to each sink (connection) owed it,
// once: the client hands it to its subscriptions there. A sink is owed n
// when a subscription on it that takes every transaction matches n, or
// when a callback subscription on it matches n and one of n's names (or
// the whole zone) is not told there; the names then are. A skipped sink
// counts in push_notify_suppressed_total. A subscription whose sink fails
// the Push is dropped (its connection is gone — the client will
// resubscribe and catch up by serial). Returns how many sinks were
// notified.
func (t *Table) Publish(n Notification) int {
	var targets map[transport.Pusher]uint64 // built when a first sink is owed n
	owe := func(sink transport.Pusher, id uint64) {
		if targets == nil {
			targets = make(map[transport.Pusher]uint64)
		}
		targets[sink] = id
	}
	suppressed := 0
	t.mu.Lock()
	for id, e := range t.subs {
		if _, dup := targets[e.sink]; !dup && !e.sub.Callback && e.sub.Matches(n.Zone, n.Names) {
			owe(e.sink, id)
		}
	}
	for sink, cb := range t.callbackSinks() {
		if _, dup := targets[sink]; dup {
			continue
		}
		i := slices.IndexFunc(cb.subs, func(e *entry) bool { return e.sub.Matches(n.Zone, n.Names) })
		switch {
		case i < 0:
		case cb.owes(n.Names):
			owe(sink, cb.subs[i].id)
		default:
			suppressed++
		}
	}
	t.mu.Unlock()
	if suppressed > 0 {
		t.reg.Counter("push_notify_suppressed_total").Add(int64(suppressed))
	}
	if targets == nil {
		return 0
	}

	body := EncodeNotification(n)
	sent := 0
	for sink, id := range targets {
		if err := sink.Push(body); err != nil {
			if t.Remove(id) {
				t.reg.Counter("push_notify_dropped_total").Inc()
			}
			continue
		}
		sent++
	}
	if sent > 0 {
		t.reg.Counter("push_notify_sent_total").Add(int64(sent))
	}
	return sent
}
