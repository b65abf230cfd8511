package cache

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestPutRetiresTwoOldestOf253k holds an insert's work to what is due on a
// cache the size of the benchmark's meta zone: with nothing due an insert
// retires nothing, with everything past its drop time each insert retires
// exactly the two oldest entries, and a graced entry is never retired.
func TestPutRetiresTwoOldestOf253k(t *testing.T) {
	const n = 253_000
	clk := newClock()
	c := New[int](clk, 0)
	c.SetStaleGrace(time.Minute)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprint(i)
		c.Put(keys[i], i, time.Hour)
		clk.Advance(time.Millisecond)
	}
	fresh := 0
	put := func() {
		c.Put(fmt.Sprint("fresh", fresh), fresh, time.Hour)
		fresh++
	}
	retires := func(want int, oldest ...string) {
		t.Helper()
		before := c.Len()
		put()
		if got := before + 1 - c.Len(); got != want {
			t.Fatalf("insert %d retired %d entries, want %d", fresh, got, want)
		}
		for _, k := range oldest {
			if _, ok := c.entries[k]; ok {
				t.Fatalf("insert %d kept %q, one of the oldest due entries", fresh, k)
			}
		}
	}

	retires(0) // nothing is due

	// The first 1000 entries are past expiry plus grace; the rest expired
	// but are graced.
	clk.Advance(time.Hour + time.Minute - n*time.Millisecond + 1000*time.Millisecond - time.Nanosecond)
	for i := 0; i < 1000; i += 2 {
		retires(2, keys[i], keys[i+1])
	}
	for range 10 {
		retires(0)
	}
	if _, ok := c.GetStale(keys[1000], down); !ok {
		t.Fatalf("the oldest graced entry %q was retired", keys[1000])
	}

	// Everything put so far is past its drop time.
	clk.Advance(2 * time.Hour)
	for i := 1000; i < 3000; i += 2 {
		retires(2, keys[i], keys[i+1])
	}
	if got, want := c.Len(), n-3000+fresh; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// ttlModel is the cache without retirement: the same answers from a map
// that keeps every entry until a Get, an Invalidate or a Purge removes it.
type ttlModel struct {
	entries map[string]entry[int]
	stale   time.Duration
}

func (m *ttlModel) put(now time.Time, key string, v int, ttl time.Duration) {
	if ttl > 0 {
		m.entries[key] = entry[int]{value: v, expires: now.Add(ttl)}
	}
}

func (m *ttlModel) get(now time.Time, key string) (int, bool) {
	e, ok := m.entries[key]
	if ok && now.Before(e.expires) {
		return e.value, true
	}
	if ok && !now.Before(e.expires.Add(m.stale)) {
		delete(m.entries, key)
	}
	return 0, false
}

func (m *ttlModel) getStale(now time.Time, key string) (int, bool) {
	e, ok := m.entries[key]
	if !ok || m.stale <= 0 || !now.Before(e.expires.Add(m.stale)) {
		return 0, false
	}
	return e.value, true
}

// kept counts the model's entries not yet past their drop time: the ones
// the cache must hold too.
func (m *ttlModel) kept(now time.Time) int {
	n := 0
	for _, e := range m.entries {
		if now.Before(e.expires.Add(m.stale)) {
			n++
		}
	}
	return n
}

// TestRetireDifferential runs seeded random schedules of Put, Fill, Get,
// GetStale, Invalidate, Purge and clock advances against ttlModel.
// Retirement never changes an answer. With one TTL per cache, the bound
// DESIGN.md states holds after every step: the cache holds every entry the
// model holds that is not past its drop time, and at most max(w-2n, 0)
// more, where w counts the inserts since the last Purge up to the last
// advance and n the inserts since. Each schedule ends by advancing past
// every drop time and inserting until the cache holds only live entries.
func TestRetireDifferential(t *testing.T) {
	const ttl = 10 * time.Second
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := newClock()
		c := New[int](clk, 0)
		m := &ttlModel{entries: map[string]entry[int]{}}
		if seed%2 == 0 {
			m.stale = 5 * time.Second
			c.SetStaleGrace(m.stale)
		}
		var pushed, w, n int // inserts with a TTL since the Purge; w and n as above
		key := func() string { return fmt.Sprint("k", rng.Intn(24)) }
		check := func(step int, op string, got, want int, gotOK, wantOK bool) {
			t.Helper()
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d step %d: %s = %d, %v; the model says %d, %v", seed, step, op, got, gotOK, want, wantOK)
			}
		}
		for step := range 600 {
			now := clk.Now()
			switch op := rng.Intn(20); {
			case op < 6:
				k, v, d := key(), rng.Int(), ttl
				if op == 0 {
					d = 0 // not cached, but it still retires
				} else {
					pushed++
				}
				c.Put(k, v, d)
				m.put(now, k, v, d)
				n++
			case op < 9:
				k, v, more := key(), rng.Int(), []Entry[int]{}
				var fail error
				if op == 8 {
					fail = down
				} else if op == 7 {
					more = append(more, Entry[int]{Key: key(), Value: rng.Int(), TTL: ttl})
				}
				got, stale, err := c.Fill(context.Background(), k, func(context.Context) (int, time.Duration, []Entry[int], error) {
					return v, ttl, more, fail
				})
				if fail == nil {
					m.put(now, k, v, ttl)
					for _, e := range more {
						m.put(now, e.Key, e.Value, e.TTL)
					}
					pushed, n = pushed+1+len(more), n+1+len(more)
					check(step, "Fill "+k, got, v, err == nil && !stale, true)
				} else {
					want, ok := m.getStale(now, k)
					check(step, "failed Fill "+k, got, want, stale && err == nil, ok)
				}
			case op < 13:
				k := key()
				got, ok := c.Get(k)
				want, wantOK := m.get(now, k)
				check(step, "Get "+k, got, want, ok, wantOK)
			case op < 15:
				k := key()
				got, ok := c.GetStale(k, down)
				want, wantOK := m.getStale(now, k)
				check(step, "GetStale "+k, got, want, ok, wantOK)
			case op < 17:
				k := key()
				e, present := m.entries[k]
				delete(m.entries, k)
				got := c.Invalidate(k)
				want := present && now.Before(e.expires)
				check(step, "Invalidate "+k, 0, 0, got, want)
			case op == 17 && rng.Intn(8) == 0:
				c.Purge()
				clear(m.entries)
				pushed, w, n = 0, 0, 0
			default:
				clk.Advance(time.Duration(rng.Intn(8)) * time.Second)
				w, n = pushed, 0
			}
			now = clk.Now()
			kept, held := m.kept(now), c.Len()
			if held < kept || held > kept+max(w-2*n, 0) || held > len(m.entries) {
				t.Fatalf("seed %d step %d: Len = %d; the model keeps %d of %d, and at most %d dead may wait",
					seed, step, held, kept, len(m.entries), max(w-2*n, 0))
			}
		}
		clk.Advance(ttl + m.stale)
		for i := 0; c.Len() > i; i++ {
			if i > pushed {
				t.Fatalf("seed %d: %d entries left after %d inserts past every drop time", seed, c.Len(), i)
			}
			c.Put(fmt.Sprint("drain", i), i, ttl)
		}
	}
}
