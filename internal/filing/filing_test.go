package filing_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hns/internal/clearinghouse"
	"hns/internal/filing"
	"hns/internal/hrpc"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/world"
)

// filingEnv is a world with a file server in each naming world: a UNIX one
// on fiji (named in BIND, Sun RPC) and a Xerox one (named in the
// Clearinghouse, Courier).
type filingEnv struct {
	w          *world.World
	client     *filing.Client
	unixName   names.Name
	xeroxName  names.Name
	unixServer *filing.Server
}

const xeroxFSObject = "bigfiles:cs:uw"

func newFilingEnv(t *testing.T) *filingEnv {
	t.Helper()
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	// UNIX file server on fiji: portmapper-registered Sun RPC service.
	unix := filing.NewServer("fiji")
	lnU, bU, err := hrpc.Serve(w.Net, unix.HRPCServer(), hrpc.SuiteSunRPC, "fiji", "fiji:filing")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lnU.Close() })
	w.Portmappers["fiji"].Set(filing.Program, filing.Version, "udp", bU.Addr)

	// Xerox file server: binding stored in the Clearinghouse.
	xerox := filing.NewServer("xerox-d0")
	lnX, bX, err := hrpc.Serve(w.Net, xerox.HRPCServer(), hrpc.SuiteCourier, "xerox-d0", "xerox:filing")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lnX.Close() })
	if err := w.CHClient().AddItem(context.Background(),
		clearinghouse.MustName(xeroxFSObject), clearinghouse.PropBinding,
		[]byte(qclass.FormatBinding(bX))); err != nil {
		t.Fatal(err)
	}

	return &filingEnv{
		w:          w,
		client:     filing.NewClient(w.HNS, w.RPC),
		unixName:   names.Must(world.CtxBind, world.HostBind),
		xeroxName:  names.Must(world.CtxCH, xeroxFSObject),
		unixServer: unix,
	}
}

func TestFetchStoreBothWorlds(t *testing.T) {
	env := newFilingEnv(t)
	ctx := context.Background()

	for _, server := range []names.Name{env.unixName, env.xeroxName} {
		if err := env.client.Store(ctx, server, "/etc/motd", []byte("welcome to HCS")); err != nil {
			t.Fatalf("%s: %v", server, err)
		}
		got, err := env.client.Fetch(ctx, server, "/etc/motd")
		if err != nil {
			t.Fatalf("%s: %v", server, err)
		}
		if string(got) != "welcome to HCS" {
			t.Fatalf("%s: fetched %q", server, got)
		}
	}
}

func TestFetchMissing(t *testing.T) {
	env := newFilingEnv(t)
	_, err := env.client.Fetch(context.Background(), env.unixName, "/no/such")
	var nf *filing.NotFoundError
	if !errors.As(err, &nf) || nf.Path != "/no/such" {
		t.Fatalf("want NotFoundError, got %v", err)
	}
}

func TestListAndRemove(t *testing.T) {
	env := newFilingEnv(t)
	ctx := context.Background()
	for _, p := range []string{"/src/a.c", "/src/b.c", "/doc/readme"} {
		if err := env.client.Store(ctx, env.unixName, p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := env.client.List(ctx, env.unixName, "/src/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "/src/a.c" || got[1] != "/src/b.c" {
		t.Fatalf("List = %v", got)
	}
	ok, err := env.client.Remove(ctx, env.unixName, "/src/a.c")
	if err != nil || !ok {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	ok, err = env.client.Remove(ctx, env.unixName, "/src/a.c")
	if err != nil || ok {
		t.Fatalf("second Remove = %v, %v", ok, err)
	}
	if env.unixServer.Len() != 2 {
		t.Fatalf("server holds %d files", env.unixServer.Len())
	}
}

// TestCrossWorldCopy is the headline: one call moves a file from the UNIX
// world to the Xerox world; name service, binding protocol, data
// representation, and transport all change underneath.
func TestCrossWorldCopy(t *testing.T) {
	env := newFilingEnv(t)
	ctx := context.Background()
	if err := env.client.Store(ctx, env.unixName, "/paper/hns.tex", []byte("direct access naming")); err != nil {
		t.Fatal(err)
	}
	if err := env.client.Copy(ctx, env.unixName, "/paper/hns.tex",
		env.xeroxName, "/archive/hns.tex"); err != nil {
		t.Fatal(err)
	}
	got, err := env.client.Fetch(ctx, env.xeroxName, "/archive/hns.tex")
	if err != nil || string(got) != "direct access naming" {
		t.Fatalf("cross-world copy: %q, %v", got, err)
	}
}

func TestBindingCachedAcrossCalls(t *testing.T) {
	env := newFilingEnv(t)
	ctx := context.Background()
	if err := env.client.Store(ctx, env.unixName, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// First fetch after Store reuses the cached binding: its cost must be
	// just the filing call, not a fresh FindNSM + binding.
	cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := env.client.Fetch(ctx, env.unixName, "/f")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Filing call ≈ RTT + control + server read, well under a cold bind
	// (hundreds of ms).
	if cost > 100*time.Millisecond {
		t.Fatalf("warm fetch cost %v — binding not cached", cost)
	}
}

func TestInvalidate(t *testing.T) {
	env := newFilingEnv(t)
	ctx := context.Background()
	if err := env.client.Store(ctx, env.unixName, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	env.client.Invalidate(env.unixName)
	// Still works (rebinds through the HNS).
	if _, err := env.client.Fetch(ctx, env.unixName, "/f"); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownServer(t *testing.T) {
	env := newFilingEnv(t)
	_, err := env.client.Fetch(context.Background(),
		names.Must("no-such-ctx", "nowhere"), "/f")
	if err == nil {
		t.Fatal("fetch from unknown server context succeeded")
	}
}

func TestServerDirect(t *testing.T) {
	s := filing.NewServer("h")
	ctx := context.Background()
	if err := s.Store(ctx, "", []byte("x")); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := s.Store(ctx, "/a", []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Returned data is a copy.
	got, err := s.Fetch(ctx, "/a")
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 'X'
	got2, _ := s.Fetch(ctx, "/a")
	if string(got2) != "data" {
		t.Fatal("Fetch aliases internal storage")
	}
}

func TestFetchCostScalesWithSize(t *testing.T) {
	s := filing.NewServer("h")
	ctx := context.Background()
	small := make([]byte, 512)
	big := make([]byte, 64*1024)
	s.Store(ctx, "/small", small)
	s.Store(ctx, "/big", big)
	costSmall, _ := simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := s.Fetch(ctx, "/small")
		return err
	})
	costBig, _ := simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := s.Fetch(ctx, "/big")
		return err
	})
	if costBig < 5*costSmall {
		t.Fatalf("big fetch (%v) not ≫ small fetch (%v)", costBig, costSmall)
	}
}

// Property: store/fetch round-trips arbitrary contents.
func TestStoreFetchProperty(t *testing.T) {
	s := filing.NewServer("h")
	ctx := context.Background()
	f := func(path string, data []byte) bool {
		if path == "" {
			return true
		}
		if err := s.Store(ctx, path, data); err != nil {
			return false
		}
		got, err := s.Fetch(ctx, path)
		if err != nil {
			return false
		}
		if len(got) != len(data) {
			return false
		}
		for i := range got {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
}
