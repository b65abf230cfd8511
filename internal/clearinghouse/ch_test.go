package clearinghouse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/simtime"
	"hns/internal/transport"
)

func TestParseName(t *testing.T) {
	n, err := ParseName("FileServer:CS:UW")
	if err != nil {
		t.Fatal(err)
	}
	if n != (Name{Object: "fileserver", Domain: "cs", Org: "uw"}) {
		t.Fatalf("ParseName = %+v", n)
	}
	if n.String() != "fileserver:cs:uw" {
		t.Fatalf("String = %q", n.String())
	}
	for _, bad := range []string{"", "a:b", "a:b:c:d", ":b:c", "a::c", "a:b:"} {
		if _, err := ParseName(bad); !errors.Is(err, ErrBadCHName) {
			t.Errorf("ParseName(%q) accepted", bad)
		}
	}
}

func TestParseNameProperty(t *testing.T) {
	// Property: parse ∘ String is idempotent for any parseable input.
	f := func(a, b, c string) bool {
		s := a + ":" + b + ":" + c
		n, err := ParseName(s)
		if err != nil {
			return true // unparseable inputs are out of scope
		}
		n2, err := ParseName(n.String())
		return err == nil && n == n2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
}

func TestCredentials(t *testing.T) {
	a := NewAuthenticator(false)
	a.AddPrincipal("schwartz:cs:uw", "hunter2")

	ctx := context.Background()
	good := NewCredentials("schwartz:cs:uw", "hunter2")
	if err := a.Verify(ctx, good); err != nil {
		t.Fatalf("good credentials rejected: %v", err)
	}
	bad := NewCredentials("schwartz:cs:uw", "wrong")
	if err := a.Verify(ctx, bad); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("bad secret accepted: %v", err)
	}
	unknown := NewCredentials("nobody:cs:uw", "x")
	if err := a.Verify(ctx, unknown); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("unknown principal accepted: %v", err)
	}
	// Open mode admits anyone but still charges.
	openAuth := NewAuthenticator(true)
	cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		return openAuth.Verify(ctx, unknown)
	})
	if err != nil {
		t.Fatalf("open auth rejected: %v", err)
	}
	if cost != simtime.CHAuth {
		t.Fatalf("auth cost %v != %v", cost, simtime.CHAuth)
	}
	if s := good.String(); strings.Contains(s, "hunter2") {
		t.Fatal("credentials String leaks the secret")
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	n := MustName("fileserver:cs:uw")

	if _, err := s.Retrieve(ctx, n, PropAddress); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("missing object: %v", err)
	}
	s.AddItem(ctx, n, PropAddress, []byte("tcp!fs:10"))
	got, err := s.Retrieve(ctx, n, PropAddress)
	if err != nil || string(got) != "tcp!fs:10" {
		t.Fatalf("Retrieve = %q, %v", got, err)
	}
	if _, err := s.Retrieve(ctx, n, "nothere"); !errors.Is(err, ErrNoSuchProperty) {
		t.Fatalf("missing property: %v", err)
	}
	// Returned value is a copy.
	got[0] = 'X'
	got2, _ := s.Retrieve(ctx, n, PropAddress)
	if string(got2) != "tcp!fs:10" {
		t.Fatal("Retrieve aliases internal storage")
	}
	// Deleting the last property removes the object.
	if err := s.DeleteItem(ctx, n, PropAddress); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatal("empty object survived")
	}
}

func TestStoreListAndProperties(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	s.AddItem(ctx, MustName("b:cs:uw"), "user", []byte("1"))
	s.AddItem(ctx, MustName("a:cs:uw"), "user", []byte("1"))
	s.AddItem(ctx, MustName("a:cs:uw"), PropMailbox, []byte("m"))
	s.AddItem(ctx, MustName("z:ee:uw"), "user", []byte("1"))

	names := s.List(ctx, "cs", "uw")
	if len(names) != 2 || names[0].Object != "a" || names[1].Object != "b" {
		t.Fatalf("List = %v", names)
	}
	props, err := s.Properties(ctx, MustName("a:cs:uw"))
	if err != nil || len(props) != 2 {
		t.Fatalf("Properties = %v, %v", props, err)
	}
	if _, err := s.Properties(ctx, MustName("ghost:cs:uw")); !errors.Is(err, ErrNoSuchObject) {
		t.Fatal("ghost object has properties")
	}
}

func TestStoreReadChargesDisk(t *testing.T) {
	s := NewStore()
	n := MustName("fs:cs:uw")
	s.AddItem(context.Background(), n, PropAddress, []byte("x"))
	cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := s.Retrieve(ctx, n, PropAddress)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if cost != simtime.CHDiskRead {
		t.Fatalf("read cost %v != CHDiskRead %v", cost, simtime.CHDiskRead)
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	s.AddItem(ctx, MustName("fs:cs:uw"), PropAddress, []byte("tcp!fs:10"))
	s.AddItem(ctx, MustName("user:cs:uw"), PropMailbox, []byte("mbox"))

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Retrieve(ctx, MustName("fs:cs:uw"), PropAddress)
	if err != nil || string(got) != "tcp!fs:10" {
		t.Fatalf("after reload: %q, %v", got, err)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len after reload = %d", s2.Len())
	}
}

func TestStoreSnapshotFile(t *testing.T) {
	s := NewStore()
	s.AddItem(context.Background(), MustName("fs:cs:uw"), PropAddress, []byte("a"))
	path := filepath.Join(t.TempDir(), "ch.json")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	s2 := NewStore()
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatal("reload from file failed")
	}
}

func TestStoreLoadRejectsGarbage(t *testing.T) {
	s := NewStore()
	if err := s.Load(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if err := s.Load(strings.NewReader(`[{"name":"bad","properties":{}}]`)); err == nil {
		t.Fatal("bad name in snapshot accepted")
	}
}

// ---- Server end to end.

type chEnv struct {
	net    *transport.Network
	server *Server
	b      hrpc.Binding
	hc     *hrpc.Client
}

func newCHEnv(t *testing.T) *chEnv {
	t.Helper()
	net := transport.NewNetwork()
	auth := NewAuthenticator(false)
	auth.AddPrincipal("admin:cs:uw", "secret")
	s := NewServer("xerox", NewStore(), auth)
	ln, b, err := s.Serve(net, "xerox:ch")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hc := hrpc.NewClient(net)
	t.Cleanup(func() { hc.Close() })
	return &chEnv{net: net, server: s, b: b, hc: hc}
}

func (e *chEnv) client(principal, secret string) *Client {
	return NewClient(e.hc, e.b, NewCredentials(principal, secret))
}

func TestCHEndToEnd(t *testing.T) {
	env := newCHEnv(t)
	c := env.client("admin:cs:uw", "secret")
	ctx := context.Background()
	n := MustName("printserver:cs:uw")

	if err := c.AddItem(ctx, n, PropAddress, []byte("tcp!print:5")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Retrieve(ctx, n, PropAddress)
	if err != nil || string(got) != "tcp!print:5" {
		t.Fatalf("Retrieve = %q, %v", got, err)
	}
	cred := credValue(c.cred)
	names, err := env.hc.Call(ctx, env.b, procListObjects, marshal.StructV(cred, marshal.Str("cs"), marshal.Str("uw")))
	if err != nil || names.Items[0].Len() != 1 || names.Items[0].Items[0].Str != n.String() {
		t.Fatalf("ListObjects = %v, %v", names, err)
	}
	props, err := env.hc.Call(ctx, env.b, procListProperties, marshal.StructV(cred, marshal.Str(n.String())))
	if err != nil || props.Items[0].Len() != 1 || props.Items[0].Items[0].Str != PropAddress {
		t.Fatalf("ListProperties = %v, %v", props, err)
	}
	if err := c.deleteObject(ctx, n, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Retrieve(ctx, n, PropAddress); err == nil {
		t.Fatal("object survived deletion")
	}
}

func TestCHRejectsBadCredentials(t *testing.T) {
	env := newCHEnv(t)
	c := env.client("admin:cs:uw", "wrong")
	_, err := c.Retrieve(context.Background(), MustName("x:cs:uw"), PropAddress)
	var rf *hrpc.RemoteFault
	if !errors.As(err, &rf) || !strings.Contains(rf.Msg, "authentication failed") {
		t.Fatalf("bad credentials: %v", err)
	}
}

// TestCHLookupCostAnchor pins the paper's number: "a Clearinghouse name to
// address lookup takes 156 msec."
func TestCHLookupCostAnchor(t *testing.T) {
	env := newCHEnv(t)
	c := env.client("admin:cs:uw", "secret")
	ctx := context.Background()
	n := MustName("fileserver:cs:uw")
	if err := c.AddItem(ctx, n, PropAddress, []byte("tcp!fs:9")); err != nil {
		t.Fatal(err)
	}
	// Warm the Courier TCP connection (steady-state measurement).
	if _, err := c.Retrieve(ctx, n, PropAddress); err != nil {
		t.Fatal(err)
	}
	cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := c.Retrieve(ctx, n, PropAddress)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	gotMS := float64(cost) / float64(time.Millisecond)
	if gotMS < 140 || gotMS > 172 {
		t.Fatalf("Clearinghouse lookup = %.2f ms, want ≈156 ms", gotMS)
	}
}

func TestCHReplication(t *testing.T) {
	net := transport.NewNetwork()
	hc := hrpc.NewClient(net)
	defer hc.Close()

	mkServer := func(host string) (*Server, hrpc.Binding) {
		auth := NewAuthenticator(true)
		s := NewServer(host, NewStore(), auth)
		ln, b, err := s.Serve(net, host+":ch")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return s, b
	}
	s1, b1 := mkServer("ch1")
	s2, b2 := mkServer("ch2")
	cred := NewCredentials("any:cs:uw", "x")
	// Full mesh.
	s1.AddPeer(NewClient(hc, b2, cred))
	s2.AddPeer(NewClient(hc, b1, cred))

	ctx := context.Background()
	c1 := NewClient(hc, b1, cred)
	c2 := NewClient(hc, b2, cred)
	n := MustName("gateway:cs:uw")

	// Write to server 1; read from server 2.
	if err := c1.AddItem(ctx, n, PropAddress, []byte("udp!gw:7")); err != nil {
		t.Fatal(err)
	}
	got, err := c2.Retrieve(ctx, n, PropAddress)
	if err != nil || string(got) != "udp!gw:7" {
		t.Fatalf("replicated read = %q, %v", got, err)
	}
	// Delete via server 2; gone from server 1.
	if err := c2.deleteObject(ctx, n, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Retrieve(ctx, n, PropAddress); err == nil {
		t.Fatal("delete did not replicate")
	}
	if s1.replFailures.Load() != 0 || s2.replFailures.Load() != 0 {
		t.Fatal("replication failures recorded on healthy mesh")
	}
}

func TestCHReplicationFailureIsBestEffort(t *testing.T) {
	net := transport.NewNetwork()
	hc := hrpc.NewClient(net)
	defer hc.Close()

	auth := NewAuthenticator(true)
	s := NewServer("ch1", NewStore(), auth)
	ln, b, err := s.Serve(net, "ch1:ch")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Peer that does not exist.
	deadPeer := NewClient(hc, hrpc.SuiteCourier.Bind("ghost", "ghost:ch", Program, Version),
		NewCredentials("any:cs:uw", "x"))
	s.AddPeer(deadPeer)

	c := NewClient(hc, b, NewCredentials("any:cs:uw", "x"))
	ctx := context.Background()
	// The write must still succeed locally.
	if err := c.AddItem(ctx, MustName("svc:cs:uw"), PropAddress, []byte("a")); err != nil {
		t.Fatalf("write failed because of dead peer: %v", err)
	}
	if s.replFailures.Load() == 0 {
		t.Fatal("dead peer failure not recorded")
	}
	if _, err := c.Retrieve(ctx, MustName("svc:cs:uw"), PropAddress); err != nil {
		t.Fatal(err)
	}
}

func TestCHAuthDominatesCost(t *testing.T) {
	// The paper's footnote: authentication + disk are why the CH is slow.
	authShare := float64(simtime.CHAuth+simtime.CHDiskRead) /
		float64(simtime.CHAuth+simtime.CHDiskRead+simtime.CHServerWork+simtime.RTTTCP+simtime.CtlCourier)
	if authShare < 0.6 {
		t.Fatalf("auth+disk share = %.2f of a CH access; paper says they dominate", authShare)
	}
}

func TestCHConcurrentClients(t *testing.T) {
	env := newCHEnv(t)
	ctx := context.Background()
	seed := env.client("admin:cs:uw", "secret")
	for i := 0; i < 8; i++ {
		n := MustName(fmt.Sprintf("svc%d:cs:uw", i))
		if err := seed.AddItem(ctx, n, PropAddress, []byte(fmt.Sprintf("addr%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := env.client("admin:cs:uw", "secret")
			n := MustName(fmt.Sprintf("svc%d:cs:uw", i))
			for j := 0; j < 20; j++ {
				got, err := c.Retrieve(ctx, n, PropAddress)
				if err != nil {
					errs <- err
					return
				}
				if string(got) != fmt.Sprintf("addr%d", i) {
					errs <- fmt.Errorf("svc%d read %q", i, got)
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
}

func TestCHWrongVersionClient(t *testing.T) {
	env := newCHEnv(t)
	// A client compiled against a future Clearinghouse version.
	b := env.b
	b.Version = Version + 1
	c := NewClient(env.hc, b, NewCredentials("admin:cs:uw", "secret"))
	_, err := c.Retrieve(context.Background(), MustName("x:cs:uw"), PropAddress)
	if err == nil || !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("version mismatch not surfaced: %v", err)
	}
}
