// Package push is the invalidation fan-out plane: the subscriber table a
// name server keeps per zone, and the notification codec it pushes over
// the transport's server-initiated frames (transport.Pusher).
//
// The design point is poll-to-discover → push-to-invalidate. A cache
// that subscribes stops burning wire re-fetching data that has not
// changed: the authority pushes one serial-bump notification per
// transaction, and the cache re-fetches only what the notification
// names. Everything degrades to the old TTL polling: the table is
// bounded (an overflowing subscriber is refused and falls back to
// polling) and a dead connection drops its subscriptions (the client
// resubscribes with its last-seen serial and catches up via IXFR).
package push

import (
	"slices"
	"sync"

	"hns/internal/metrics"
	"hns/internal/transport"
)

// DefaultMaxSubscribers bounds a Table when the creator does not choose:
// enough for a fleet of hnsd meta-caches plus secondaries, small enough
// that a subscription stampede degrades to polling instead of memory.
const DefaultMaxSubscribers = 4096

// Subscription is one subscriber's filter: a zone, and optionally a set
// of names within it. An empty Names set means the whole zone.
type Subscription struct {
	Zone  string
	Names []string // nil/empty: every name in the zone
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

// entry is one registered subscriber.
type entry struct {
	sub  Subscription
	sink transport.Pusher
}

// Table is a bounded registry of push subscribers. One Table serves one
// server; all methods are safe for concurrent use.
type Table struct {
	max int
	reg *metrics.Registry

	mu     sync.Mutex
	subs   map[uint64]*entry
	nextID uint64

	// dropped, when set (a test hook), hears the id of each subscription
	// dropped because its connection died.
	dropped chan<- uint64
}

// NewTable creates a table bounded at max subscribers (0 means
// DefaultMaxSubscribers). reg receives the push_* series; nil means
// metrics.Default().
func NewTable(max int, reg *metrics.Registry) *Table {
	if max <= 0 {
		max = DefaultMaxSubscribers
	}
	if reg == nil {
		reg = metrics.Default()
	}
	return &Table{max: max, reg: reg, subs: make(map[uint64]*entry)}
}

// Add registers a subscriber. ok=false means the table is full — the
// caller must refuse the subscription so the client degrades to TTL
// polling. The returned id is the handle for Remove. The sink's Done
// channel is watched: when the carrying connection dies, the
// subscription is dropped automatically.
func (t *Table) Add(sub Subscription, sink transport.Pusher) (id uint64, ok bool) {
	t.mu.Lock()
	if len(t.subs) >= t.max {
		t.mu.Unlock()
		t.reg.Counter("push_subscribe_rejected_total").Inc()
		return 0, false
	}
	t.nextID++
	id = t.nextID
	t.subs[id] = &entry{sub: sub, sink: sink}
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
	_, present := t.subs[id]
	delete(t.subs, id)
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

// Publish pushes n, encoded once, to each sink (connection) carrying a
// matching subscription, once: the client hands it to its subscriptions
// there. A subscription whose sink fails the Push is dropped (its
// connection is gone — the client will resubscribe and catch up by
// serial). Returns how many sinks were notified.
func (t *Table) Publish(n Notification) int {
	body := EncodeNotification(n)
	t.mu.Lock()
	targets := make(map[transport.Pusher]uint64)
	for id, e := range t.subs {
		if _, dup := targets[e.sink]; !dup && e.sub.Matches(n.Zone, n.Names) {
			targets[e.sink] = id
		}
	}
	t.mu.Unlock()

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
