package bind

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
)

// The chain every test below walks: a context names a name service, the
// (query class, name service) record names an NSM, the NSM has a record.
const (
	chainCtx = "c1.ctx.hns"
	chainQC  = "hostaddress.ns1.qc.hns"
	chainNSM = "nsm1.nsm.hns"
)

var chainFollow = []FollowStep{
	{Key: "ns", Prefix: "hostaddress.", Suffix: ".qc.hns"},
	{Key: "nsm", Suffix: ".nsm.hns"},
}

func chainRecords() []RR {
	return []RR{
		HNSMeta(chainCtx, "ns=NS1", 300), // values keep their case; names do not
		HNSMeta(chainQC, "nsm=nsm1", 200),
		HNSMeta(chainNSM, "host=june", 100),
		HNSMeta(chainNSM, "port=9", 100),
	}
}

// newChainEnv serves the chain's zone, plus extra records, over HRPC.
func newChainEnv(t *testing.T, extra ...RR) *HRPCClient {
	t.Helper()
	env := newTestEnv(t)
	z, err := NewZone("hns", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.server.AddZone(z); err != nil {
		t.Fatal(err)
	}
	if err := env.server.LoadRecords(append(chainRecords(), extra...)); err != nil {
		t.Fatal(err)
	}
	return NewHRPCClient(env.client, env.hrpcB)
}

func counterValue(name string, kv ...string) int64 {
	return metrics.Default().Counter(metrics.Labels(name, kv...)).Value()
}

func framesTotal() int64 {
	var total int64
	for _, c := range metrics.Default().Snapshot().Counters {
		if strings.HasPrefix(c.Name, "transport_frames_total") {
			total += c.Value
		}
	}
	return total
}

func owners(sets [][]RR) []string {
	var out []string
	for _, s := range sets {
		out = append(out, fmt.Sprintf("%s×%d", s[0].Name, len(s)))
	}
	return out
}

// TestLookupChainOneExchange: the whole chain comes back from one call,
// counted as one lookup, one hrpc call, two frames.
func TestLookupChainOneExchange(t *testing.T) {
	c := newChainEnv(t)
	lookups := counterValue("bind_client_lookups_total", "iface", "hrpc", "result", "ok")
	calls := counterValue("hrpc_client_calls_total", "proc", "BINDQueryChain")
	frames := framesTotal()

	head, tails, err := c.LookupChain(context.Background(), "C1.ctx.hns", TypeHNSMeta, chainFollow)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) != 1 || head[0].Name != chainCtx {
		t.Fatalf("head = %v", head)
	}
	if got := owners(tails); len(got) != 2 || got[0] != chainQC+"×1" || got[1] != chainNSM+"×2" {
		t.Fatalf("tails = %v", got)
	}
	if d := counterValue("bind_client_lookups_total", "iface", "hrpc", "result", "ok") - lookups; d != 1 {
		t.Errorf("bind_client_lookups_total moved by %d, want 1", d)
	}
	if d := counterValue("hrpc_client_calls_total", "proc", "BINDQueryChain") - calls; d != 1 {
		t.Errorf("hrpc_client_calls_total moved by %d, want 1", d)
	}
	if d := framesTotal() - frames; d != 2 {
		t.Errorf("chain moved %d frames, want 2", d)
	}
}

// TestLookupChainStops: every way a chain ends early returns the links
// before it and no error — and a failing head is the plain NotFound.
func TestLookupChainStops(t *testing.T) {
	c := newChainEnv(t,
		HNSMeta("orphan.ctx.hns", "ns=nowhere", 300),               // tail is NXDOMAIN
		HNSMeta("away.ctx.hns", "ns=x", 300),                       // tail lies outside every zone held
		HNSMeta("spaced.ctx.hns", "ns=a b", 300),                   // tail name is not a legal name
		HNSMeta("keyless.ctx.hns", "type=bind", 300),               // no record carries the key
		HNSMeta("loop.ctx.hns", "ns=loop", 300),                    // tail is the head again
		cname("alias.ctx.hns", chainCtx, 300),                      // aliased head
		HNSMeta("toalias.ctx.hns", "ns=al", 300),                   // aliased tail
		cname("hostaddress.al.qc.hns", chainQC, 300),               //
		HNSMeta("short.ctx.hns", "ns=ns2", 300),                    // second link missing
		HNSMeta("hostaddress.ns2.qc.hns", "nsm=unregistered", 300), //
	)
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		follow []FollowStep
		want   []string // tails
	}{
		{"orphan.ctx.hns", chainFollow, nil},
		{"away.ctx.hns", []FollowStep{{Key: "ns", Suffix: ".elsewhere.example"}}, nil},
		{"spaced.ctx.hns", chainFollow, nil},
		{"keyless.ctx.hns", chainFollow, nil},
		{"loop.ctx.hns", []FollowStep{{Key: "ns", Suffix: ".ctx.hns"}, {Key: "ns", Suffix: ".ctx.hns"}}, nil},
		{"alias.ctx.hns", chainFollow, nil},
		{"toalias.ctx.hns", chainFollow, nil},
		{"short.ctx.hns", chainFollow, []string{"hostaddress.ns2.qc.hns×1"}},
		{chainCtx, chainFollow[:1], []string{chainQC + "×1"}},
		{chainCtx, nil, nil},
	} {
		head, tails, err := c.LookupChain(ctx, tc.name, TypeHNSMeta, tc.follow)
		if err != nil || len(head) != 1 {
			t.Errorf("%s: head = %v, %v", tc.name, head, err)
			continue
		}
		if got := owners(tails); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: tails = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The aliased head is the target's record, as BINDQuery returns it.
	head, _, _ := c.LookupChain(ctx, "alias.ctx.hns", TypeHNSMeta, chainFollow)
	plain, _ := c.Lookup(ctx, "alias.ctx.hns", TypeHNSMeta)
	if len(head) != 1 || !head[0].Equal(plain[0]) {
		t.Errorf("aliased head = %v, BINDQuery says %v", head, plain)
	}

	var nf *NotFoundError
	if _, _, err := c.LookupChain(ctx, "ghost.ctx.hns", TypeHNSMeta, chainFollow); !errors.As(err, &nf) || nf.RCode != RCodeNXDomain {
		t.Errorf("missing head = %v, want NXDOMAIN", err)
	}
	if _, _, err := c.LookupChain(ctx, "x.elsewhere.example", TypeHNSMeta, chainFollow); !errors.As(err, &nf) || nf.RCode != RCodeRefused {
		t.Errorf("head outside every zone = %v, want REFUSED", err)
	}
}

// TestQueryChainRejects: a follow list the server will not walk at all.
func TestQueryChainRejects(t *testing.T) {
	c := newChainEnv(t)
	ctx := context.Background()
	var rf *hrpc.RemoteFault
	long := make([]FollowStep, MaxFollowSteps+1)
	for i := range long {
		long[i] = FollowStep{Key: "ns"}
	}
	if _, _, err := c.LookupChain(ctx, chainCtx, TypeHNSMeta, long); !errors.As(err, &rf) {
		t.Errorf("%d steps = %v, want a remote fault", len(long), err)
	}
	if _, _, err := c.LookupChain(ctx, chainCtx, TypeHNSMeta, []FollowStep{{Suffix: ".qc.hns"}}); !errors.As(err, &rf) {
		t.Errorf("empty key = %v, want a remote fault", err)
	}
	if _, _, err := c.LookupChain(ctx, chainCtx, TypeHNSMeta, long[:MaxFollowSteps]); err != nil {
		t.Errorf("%d steps = %v, want an answer", MaxFollowSteps, err)
	}
}

// TestQueryChainFitsFrame: a tail that would push the reply past a frame is
// left out, however the follow list is written.
func TestQueryChainFitsFrame(t *testing.T) {
	big := make([]RR, replyBudget/256+1) // each record's data is 2+254 bytes of the run
	for i := range big {
		big[i] = HNSMeta("hostaddress.big.qc.hns", fmt.Sprintf("nsm=%0250d", i), 300)
	}
	if n := len(appendSets(nil, big)); n <= replyBudget {
		t.Fatalf("the big set is %d bytes, within the %d-byte budget", n, replyBudget)
	}
	c := newChainEnv(t, append(big, HNSMeta("big.ctx.hns", "ns=big", 300))...)
	head, tails, err := c.LookupChain(context.Background(), "big.ctx.hns", TypeHNSMeta, chainFollow)
	if err != nil || len(head) != 1 || len(tails) != 0 {
		t.Fatalf("head %d records, tails %v, err %v; want the head alone", len(head), owners(tails), err)
	}
}

// chainBackend is a gatedBackend that can also chain, answering from the
// same map and parking the same way.
type chainBackend struct {
	*gatedBackend
	chained int // LookupChain calls, under gatedBackend.mu
}

func newChainBackend(rrs ...RR) *chainBackend {
	b := &chainBackend{gatedBackend: &gatedBackend{
		answers: map[string][]RR{},
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}}
	for _, rr := range rrs {
		b.answers[rr.Name] = append(b.answers[rr.Name], rr)
	}
	return b
}

func (b *chainBackend) LookupChain(ctx context.Context, name string, t RRType, follow []FollowStep) ([]RR, [][]RR, error) {
	b.mu.Lock()
	b.chained++
	head, ok := b.answers[name]
	var tails [][]RR
	prev := head
	for _, st := range follow {
		next, nok := st.next(prev)
		if !nok || len(b.answers[next]) == 0 {
			break
		}
		prev = b.answers[next]
		tails = append(tails, prev)
	}
	armed := b.armed
	b.armed = false
	b.mu.Unlock()
	if armed {
		b.entered <- struct{}{}
		<-b.release
	}
	if !ok {
		return nil, nil, &NotFoundError{Name: name, Type: t, RCode: RCodeNXDomain}
	}
	return head, tails, nil
}

func (b *chainBackend) counts() (plain, chained int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls, b.chained
}

// TestResolverLookupChainInstallsEverySet: one chained miss leaves the
// head and every tail cached, each under its own TTL.
func TestResolverLookupChainInstallsEverySet(t *testing.T) {
	backend := newChainBackend(chainRecords()...)
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	r := NewResolver(backend, ResolverConfig{Clock: clk})
	ctx := context.Background()

	head, err := r.LookupChain(ctx, chainCtx, TypeHNSMeta, chainFollow)
	if err != nil || len(head.rrs) != 1 || head.data[0] != "ns=NS1" {
		t.Fatalf("head = %v, %v", head.RRs(), err)
	}
	for _, name := range []string{chainCtx, chainQC, chainNSM} {
		if _, err := r.Lookup(ctx, name, TypeHNSMeta); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if plain, chained := backend.counts(); plain != 0 || chained != 1 {
		t.Fatalf("backend saw %d lookups and %d chains, want 0 and 1", plain, chained)
	}
	// The NSM record's 100 s has run out; the other two have not.
	clk.Advance(150 * time.Second)
	for _, name := range []string{chainCtx, chainQC, chainNSM} {
		if _, err := r.Lookup(ctx, name, TypeHNSMeta); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if plain, chained := backend.counts(); plain != 1 || chained != 1 {
		t.Fatalf("after 150 s the backend saw %d lookups and %d chains, want 1 and 1", plain, chained)
	}
}

// TestInvalidationBeatsChainedFlight is TestInvalidationSupersedesInFlightLookup
// for a flight that carries other names' answers: the NSM record changes and
// is invalidated while the chained reply, computed before the change, is
// still on its way. Whatever was invalidated — the tail itself, the head, or
// everything — the stale NSM record must not be cached.
func TestInvalidationBeatsChainedFlight(t *testing.T) {
	for _, tc := range []struct {
		name       string
		invalidate func(*Resolver)
		headCached bool
	}{
		{"Tail", func(r *Resolver) { r.Invalidate(chainNSM, TypeHNSMeta) }, true},
		{"Head", func(r *Resolver) { r.Invalidate(chainCtx, TypeHNSMeta) }, false},
		{"Purge", func(r *Resolver) { r.Purge() }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend := newChainBackend(chainRecords()...)
			backend.armed = true
			r := NewResolver(backend, ResolverConfig{
				Clock: simtime.NewFakeClock(time.Unix(0, 0)),
			})
			ctx := context.Background()
			type result struct {
				rrs []RR
				err error
			}
			first := make(chan result, 1)
			go func() {
				a, err := r.LookupChain(ctx, chainCtx, TypeHNSMeta, chainFollow)
				first <- result{a.RRs(), err}
			}()
			<-backend.entered
			backend.set(chainNSM, HNSMeta(chainNSM, "host=moved", 100))
			tc.invalidate(r)
			close(backend.release)

			if got := <-first; got.err != nil || string(got.rrs[0].Data) != "ns=NS1" {
				t.Fatalf("in-flight caller got %v, %v; want the answer it asked for", got.rrs, got.err)
			}
			rrs, err := r.Lookup(ctx, chainNSM, TypeHNSMeta)
			if err != nil || len(rrs) != 1 || string(rrs[0].Data) != "host=moved" {
				t.Fatalf("NSM record after invalidation = %v, %v; the chained flight's stale tail was cached", rrs, err)
			}
			plain, _ := backend.counts()
			if _, err := r.Lookup(ctx, chainCtx, TypeHNSMeta); err != nil {
				t.Fatal(err)
			}
			after, _ := backend.counts()
			if cached := after == plain; cached != tc.headCached {
				t.Fatalf("head cached = %v, want %v", cached, tc.headCached)
			}
		})
	}
}

// TestInvalidatedNameIsRefetchedAlone: a miss caused by Invalidate asks for
// that name only — what it led to is still cached — and a miss for any other
// reason chains.
func TestInvalidatedNameIsRefetchedAlone(t *testing.T) {
	backend := newChainBackend(chainRecords()...)
	backend.set("hostaddress.ns9.qc.hns", HNSMeta("hostaddress.ns9.qc.hns", "nsm=nsm9", 200))
	backend.set("nsm9.nsm.hns", HNSMeta("nsm9.nsm.hns", "host=fiji", 100))
	r := NewResolver(backend, ResolverConfig{
		Clock: simtime.NewFakeClock(time.Unix(0, 0)),
	})
	ctx := context.Background()
	want := func(step string, plain, chained int) {
		t.Helper()
		if p, c := backend.counts(); p != plain || c != chained {
			t.Fatalf("%s: backend saw %d lookups and %d chains, want %d and %d", step, p, c, plain, chained)
		}
	}
	lookup := func(name string, follow []FollowStep, data string) {
		t.Helper()
		a, err := r.LookupChain(ctx, name, TypeHNSMeta, follow)
		if err != nil || a.data[0] != data {
			t.Fatalf("%s = %v, %v; want %s", name, a.RRs(), err, data)
		}
	}

	lookup(chainCtx, chainFollow, "ns=NS1")
	want("first touch", 0, 1)

	// The context flips to a name service never seen before.
	backend.set(chainCtx, HNSMeta(chainCtx, "ns=ns9", 300))
	r.Invalidate(chainCtx, TypeHNSMeta)
	r.Invalidate(chainCtx, TypeHNSMeta) // a flip is two updates; the second finds nothing to drop
	lookup(chainCtx, chainFollow, "ns=ns9")
	want("refetch after Invalidate", 1, 1)
	lookup("hostaddress.ns9.qc.hns", chainFollow[1:], "nsm=nsm9")
	want("first touch of the new name service", 1, 2)
	lookup("nsm9.nsm.hns", nil, "host=fiji")
	want("its NSM record came with the chain", 1, 2)

	// Remembered once: the next miss on the same name chains again.
	r.Purge()
	lookup(chainCtx, chainFollow, "ns=ns9")
	want("after Purge", 1, 3)

	// Invalidating a name that was not cached remembers nothing.
	r.Invalidate("c2.ctx.hns", TypeHNSMeta)
	backend.set("c2.ctx.hns", HNSMeta("c2.ctx.hns", "ns=ns9", 300))
	lookup("c2.ctx.hns", chainFollow, "ns=ns9")
	want("never-cached name", 1, 4)

	// A plain Lookup consumes the memory too.
	r.Invalidate(chainCtx, TypeHNSMeta)
	lookup(chainCtx, nil, "ns=ns9")
	want("plain refetch", 2, 4)
	r.cache.Invalidate(cacheKey(chainCtx, TypeHNSMeta))
	lookup(chainCtx, chainFollow, "ns=ns9")
	want("later miss", 2, 5)
}

// TestInvalidatedSetIsBounded: the marks of invalidated names are bounded
// as the cache whose answers they outlive is: each lives as long as its
// answer had left, and each new mark's insert retires two that are due.
func TestInvalidatedSetIsBounded(t *testing.T) {
	backend := newChainBackend()
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	r := NewResolver(backend, ResolverConfig{Clock: clk})
	invalidate := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			name := fmt.Sprintf("c%d.ctx.hns", i)
			backend.set(name, HNSMeta(name, "ns=x", 300))
			if _, err := r.Lookup(context.Background(), name, TypeHNSMeta); err != nil {
				t.Fatal(err)
			}
			r.Invalidate(name, TypeHNSMeta)
		}
	}
	invalidate(0, 32)
	if n := r.invalidated.Len(); n != 32 {
		t.Fatalf("%d invalidated names remembered, want 32", n)
	}
	clk.Advance(300 * time.Second) // every answer marked would have expired
	invalidate(32, 48)
	if n := r.invalidated.Len(); n != 16 {
		t.Fatalf("%d invalidated names remembered, want the 16 marked since the answers expired", n)
	}
}

// TestResolverChainFallsBackToDiscrete: over a backend that cannot chain, or
// through a chain the server cut short, the walk completes one lookup at a
// time with the answers and errors it always had.
func TestResolverChainFallsBackToDiscrete(t *testing.T) {
	c := newChainEnv(t,
		HNSMeta("short.ctx.hns", "ns=ns2", 300),
		HNSMeta("hostaddress.ns2.qc.hns", "nsm=unregistered", 300),
	)
	ctx := context.Background()
	walk := func(r *Resolver, start string) (string, error) {
		var last string
		name := start
		for i := 0; ; i++ {
			var follow []FollowStep
			if i < len(chainFollow) {
				follow = chainFollow[i:]
			}
			a, err := r.LookupChain(ctx, name, TypeHNSMeta, follow)
			if err != nil {
				return last, err
			}
			last = a.data[0]
			if i == len(chainFollow) {
				return last, nil
			}
			name, _ = chainFollow[i].next(a.RRs())
		}
	}
	type plainOnly struct{ Lookuper } // hides LookupChain
	for _, start := range []string{chainCtx, "short.ctx.hns", "ghost.ctx.hns"} {
		chained := NewResolver(c, ResolverConfig{})
		discrete := NewResolver(plainOnly{c}, ResolverConfig{})
		before := counterValue("hrpc_client_calls_total", "proc", "BINDQueryChain")
		got, gotErr := walk(chained, start)
		if counterValue("hrpc_client_calls_total", "proc", "BINDQueryChain") == before {
			t.Errorf("%s: the chaining resolver never chained", start)
		}
		before = counterValue("hrpc_client_calls_total", "proc", "BINDQueryChain")
		want, wantErr := walk(discrete, start)
		if counterValue("hrpc_client_calls_total", "proc", "BINDQueryChain") != before {
			t.Errorf("%s: the discrete resolver chained", start)
		}
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: chained walk = %q, %v; discrete walk = %q, %v", start, got, gotErr, want, wantErr)
		}
	}
}

// TestChainedFlightsRace runs chained lookups, tail lookups and
// invalidations of both at once, for the race detector.
func TestChainedFlightsRace(t *testing.T) {
	backend := newChainBackend(chainRecords()...)
	r := NewResolver(backend, ResolverConfig{})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := r.LookupChain(ctx, chainCtx, TypeHNSMeta, chainFollow); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := r.Lookup(ctx, chainNSM, TypeHNSMeta); err != nil {
						t.Error(err)
					}
				case 2:
					r.Invalidate(chainNSM, TypeHNSMeta)
				case 3:
					r.Invalidate(chainCtx, TypeHNSMeta)
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzQueryChainArgs feeds the BINDQueryChain handler arbitrary argument
// bytes. Whatever they say, the handler must not panic, and every record it
// returns must be owned by the question or by a name one of the supplied
// steps builds from a returned record — it cannot be steered elsewhere.
func FuzzQueryChainArgs(f *testing.F) {
	rep, err := marshal.Lookup(hrpc.SuiteRaw.DataRep)
	if err != nil {
		f.Fatal(err)
	}
	s := NewServer("fuzz")
	z, err := NewZone("hns", true)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.AddZone(z); err != nil {
		f.Fatal(err)
	}
	if err := s.LoadRecords(append(chainRecords(),
		HNSMeta("loop.ctx.hns", "ns=loop", 300),
		cname("alias.ctx.hns", chainCtx, 300),
	)); err != nil {
		f.Fatal(err)
	}
	args := func(name string, follow ...FollowStep) []byte {
		b, err := rep.Append(nil, marshal.StructV(marshal.Str(name), marshal.U32(uint32(TypeHNSMeta)),
			followToList(follow)), procQueryChain.Args)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(args(chainCtx, chainFollow...))
	f.Add(args(chainCtx))
	f.Add(args("loop.ctx.hns", FollowStep{Key: "ns", Suffix: ".ctx.hns"}, FollowStep{Key: "ns", Suffix: ".ctx.hns"}))
	f.Add(args("alias.ctx.hns", chainFollow...))
	f.Add(args(chainCtx, FollowStep{Suffix: ".qc.hns"}))
	f.Add(args(chainCtx, make([]FollowStep, MaxFollowSteps+1)...))
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := marshal.Unmarshal(rep, data, procQueryChain.Args)
		if err != nil {
			return // rejected at the wire layer, as hrpc.Server does
		}
		ret, err := s.queryChain(context.Background(), v)
		if err != nil {
			return
		}
		name, _ := v.Items[0].AsString()
		follow, err := decodeFollow(v.Items[2])
		if err != nil {
			t.Fatalf("handler answered a follow list it should refuse: %v", err)
		}
		cname, _ := CanonicalName(name)
		sets := ret.Items[1].Items
		_, head, tails, err := decodeChain(sets, cname, follow)
		if err != nil {
			t.Fatalf("reply does not decode: %v", err)
		}
		if len(sets) != 1+len(tails) {
			t.Fatalf("%d sets came back as a head and %d tails", len(sets), len(tails))
		}
		// The head is the question's, or an alias target's that nothing
		// follows; each tail is owned by the name its step builds from the
		// set before it, and no set spells a name its asker holds.
		asked, prev := cname, head
		for i, set := range sets {
			if i > 0 {
				next, ok := follow[i-1].next(prev)
				if !ok {
					t.Fatalf("set %d follows from no step", i)
				}
				asked, prev = next, tails[i-1]
			}
			raw, err := decodeSets(set.Bytes)
			if err != nil {
				t.Fatalf("set %d is not runs: %v", i, err)
			}
			for j, rr := range raw {
				owner := prev[j].Name
				elided := rr.Name == "" && owner == asked
				aliasHead := i == 0 && len(tails) == 0 && rr.Name == owner && owner != asked
				if !elided && !aliasHead {
					t.Fatalf("set %d installs a record of %q (spelled %q): not %q, asked for by the question %q or a step", i, owner, rr.Name, asked, name)
				}
			}
		}
	})
}

// TestKeyValue holds the one reader of the key=value convention, on a
// record's data alone, as an Answer reads a set and as a chain step does.
func TestKeyValue(t *testing.T) {
	for _, tc := range []struct {
		data, key, want string
		ok              bool
	}{
		{"ns=bind-cs", "ns", "bind-cs", true},
		{"nsm=x", "ns", "", false}, // a longer key is another key
		{"ns", "ns", "", false},    // no '='
		{"nsbind", "ns", "", false},
		{"=ns", "ns", "", false}, // a leading '='
		{"=", "ns", "", false},
		{"ns=", "ns", "", true}, // an empty value
		{"ns=a=b", "ns", "a=b", true},
	} {
		v, ok := KeyValue(tc.data, tc.key)
		b, bok := KeyValue([]byte(tc.data), tc.key)
		if v != tc.want || ok != tc.ok || string(b) != v || bok != ok {
			t.Errorf("KeyValue(%q, %q) = %q, %v and %q, %v; want %q, %v",
				tc.data, tc.key, v, ok, b, bok, tc.want, tc.ok)
		}
	}
	for _, tc := range []struct {
		name string
		set  []RR
		want string // the ns= value; "" for none
	}{
		{"first match wins", []RR{
			HNSMeta(chainCtx, "type=bind", 300),
			HNSMeta(chainCtx, "ns=NS1", 300),
			HNSMeta(chainCtx, "ns=NS2", 300),
		}, "NS1"},
		{"alias head", []RR{cname("alias.ctx.hns", chainCtx, 300), HNSMeta(chainCtx, "ns=NS1", 300)}, "NS1"},
		{"longer key only", []RR{HNSMeta(chainQC, "nsm=ns", 200)}, ""},
	} {
		v, ok := newAnswer(tc.set).Value("ns")
		next, nok := chainFollow[0].next(tc.set)
		if v != tc.want || ok != (tc.want != "") {
			t.Errorf("%s: Value = %q, %v; want %q", tc.name, v, ok, tc.want)
		}
		if want := "hostaddress." + strings.ToLower(tc.want) + ".qc.hns"; nok != ok || ok && next != want {
			t.Errorf("%s: step builds %q, %v; want %q", tc.name, next, nok, want)
		}
	}
}
