package bind

import (
	"context"
	"sync"
	"time"

	"hns/internal/simtime"
)

// flightGroup coalesces concurrent cache misses for the same key into one
// backend lookup — the classic singleflight discipline, specialised for
// the resolver.
//
// The subtlety is simulated cost. The paper's tables price what one client
// *experiences*: a cache-cold FindNSM costs the full lookup whether or not
// some other client happens to be fetching the same record at the same
// instant. So a metered leader runs the backend call against a private
// meter, and every caller (leader and joiners alike) is charged the
// captured cost on its own meter. Coalescing therefore changes backend
// load — N concurrent misses cost the meta-BIND one lookup — without
// perturbing a single Table 3.1/3.2 cell.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
	// gen counts invalidations (every supersede and supersedeAll, whether
	// or not a flight was mapped). A flight that also fetched names other
	// than its key has no flight of theirs to be superseded through, so it
	// compares gen at its end with gen at its start instead.
	gen uint64
	// joined, when set (a test hook), hears the key of every caller that
	// joins a flight in progress.
	joined chan<- string
}

// flight is one in-progress backend lookup.
type flight struct {
	done chan struct{} // closed when the leader finishes

	// superseded, guarded by flightGroup.mu, is set when an invalidation
	// detached this flight from the group: its answer may predate the
	// change and must not be cached.
	superseded bool
	// gen is flightGroup.gen when the flight began.
	gen uint64

	// Results, valid after done is closed. rrs is the leader's private
	// copy; each waiter re-copies before returning (see copyRRs).
	rrs  []RR
	err  error
	cost time.Duration // simulated cost of the backend lookup
}

// do executes fetch for key, coalescing with an in-progress flight for the
// same key if one exists. It reports the answer, the simulated cost the
// caller must charge, and whether this caller joined an existing flight
// rather than leading one. A caller whose ctx dies while waiting detaches
// with ctx.Err() — the flight itself keeps running for the others.
//
// The leader hands its result to install (which caches it) unless the
// flight was superseded meanwhile. install runs under g.mu, the lock
// supersede takes, so an invalidation is ordered either before it (nothing
// is cached) or after it (the invalidation's own delete removes the entry);
// install must not call back into the group. install's quiet argument
// reports that no key at all was invalidated while the flight ran: only
// then may it cache what the fetch brought back under other keys.
func (g *flightGroup) do(ctx context.Context, key string, fetch func(context.Context) ([]RR, error), install func(rrs []RR, err error, quiet bool)) (rrs []RR, cost time.Duration, joined bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		if g.joined != nil {
			g.joined <- key
		}
		select {
		case <-f.done:
			return f.rrs, f.cost, true, f.err
		case <-ctx.Done():
			return nil, 0, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{}), gen: g.gen}
	g.m[key] = f
	g.mu.Unlock()

	// Lead: under the harness (the caller brought a meter) run the backend
	// lookup against a private meter so its cost can be replayed onto every
	// waiter's meter, exactly once each. A daemon's ctx has no meter and
	// must not acquire one here — the RPC below reads wall time — so its
	// flights carry cost 0.
	if simtime.From(ctx) != nil {
		meter := simtime.NewMeter()
		f.rrs, f.err = fetch(simtime.WithMeter(ctx, meter))
		f.cost = meter.Elapsed()
	} else {
		f.rrs, f.err = fetch(ctx)
	}

	g.mu.Lock()
	if !f.superseded {
		delete(g.m, key)
		install(f.rrs, f.err, f.gen == g.gen)
	}
	g.mu.Unlock()
	close(f.done)
	return f.rrs, f.cost, false, f.err
}

// supersede detaches the in-progress flight for key, if any: its waiters
// still get its answer, its leader will not cache it, and the next caller
// for key starts a new flight.
func (g *flightGroup) supersede(key string) {
	g.mu.Lock()
	g.gen++
	if f, ok := g.m[key]; ok {
		f.superseded = true
		delete(g.m, key)
	}
	g.mu.Unlock()
}

// supersedeAll detaches every in-progress flight.
func (g *flightGroup) supersedeAll() {
	g.mu.Lock()
	g.gen++
	for key, f := range g.m {
		f.superseded = true
		delete(g.m, key)
	}
	g.mu.Unlock()
}
