package greeter

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"go/format"
	"os"
	"strings"
	"testing"

	"hns/internal/hrpc"
	"hns/internal/idl"
	"hns/internal/transport"
)

// impl implements GreeterHandler.
type impl struct{}

func (impl) Greet(ctx context.Context, who Person, loud bool) (string, error) {
	if who.Name == "" {
		return "", errors.New("greeter: anonymous person")
	}
	g := fmt.Sprintf("hello %s (age %d)", who.Name, who.Age)
	if loud {
		g = strings.ToUpper(g)
	}
	return g, nil
}

func (impl) Enroll(ctx context.Context, r Roster) (uint32, []byte, error) {
	h := sha256.New()
	for _, p := range r.People {
		fmt.Fprintf(h, "%s/%d/%v;", p.Name, p.Age, p.Admin)
	}
	for _, tg := range r.Tags {
		h.Write([]byte(tg))
	}
	return uint32(len(r.People)), h.Sum(nil)[:8], nil
}

func (impl) Ping(ctx context.Context) error { return nil }

func newClient(t *testing.T, suite hrpc.Suite) *GreeterClient {
	t.Helper()
	net := transport.NewNetwork()
	ln, b, err := hrpc.Serve(net, NewGreeterServer("greeter-test", impl{}), suite, "h", "h:greeter")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	c := hrpc.NewClient(net)
	t.Cleanup(func() { c.Close() })
	return NewGreeterClient(c, b)
}

func TestGeneratedStubsEndToEnd(t *testing.T) {
	client := newClient(t, hrpc.SuiteSunRPC)
	ctx := context.Background()

	greeting, err := client.Greet(ctx, Person{Name: "schwartz", Age: 29, Admin: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if greeting != "hello schwartz (age 29)" {
		t.Fatalf("Greet = %q", greeting)
	}
	greeting, err = client.Greet(ctx, Person{Name: "notkin", Age: 32}, true)
	if err != nil || !strings.HasPrefix(greeting, "HELLO NOTKIN") {
		t.Fatalf("loud Greet = %q, %v", greeting, err)
	}

	count, digest, err := client.Enroll(ctx, Roster{
		People: []Person{{Name: "a", Age: 1}, {Name: "b", Age: 2, Admin: true}},
		Tags:   []string{"hcs", "sosp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 || len(digest) != 8 {
		t.Fatalf("Enroll = %d, %x", count, digest)
	}
	// Determinism of the round-tripped payload.
	count2, digest2, err := client.Enroll(ctx, Roster{
		People: []Person{{Name: "a", Age: 1}, {Name: "b", Age: 2, Admin: true}},
		Tags:   []string{"hcs", "sosp"},
	})
	if err != nil || count2 != count || string(digest2) != string(digest) {
		t.Fatalf("Enroll not stable: %d %x vs %d %x", count, digest, count2, digest2)
	}

	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratedStubsOverCourier(t *testing.T) {
	// The generated stubs are suite-agnostic, like every HRPC client.
	client := newClient(t, hrpc.SuiteCourier)
	greeting, err := client.Greet(context.Background(), Person{Name: "x", Age: 1}, false)
	if err != nil || greeting == "" {
		t.Fatalf("Greet over Courier = %q, %v", greeting, err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	client := newClient(t, hrpc.SuiteSunRPC)
	_, err := client.Greet(context.Background(), Person{}, false)
	if err == nil || !strings.Contains(err.Error(), "anonymous person") {
		t.Fatalf("handler error lost: %v", err)
	}
}

// TestStubsMatchIDL regenerates the stubs from greeter.idl and fails if
// the checked-in file has drifted.
func TestStubsMatchIDL(t *testing.T) {
	f, err := os.Open("greeter.idl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	iface, err := idl.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	src, err := idl.Generate(iface, "greeter")
	if err != nil {
		t.Fatal(err)
	}
	want, err := format.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("greeter_stubs.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("greeter_stubs.go is stale; rerun: go run ./cmd/hrpcgen -in internal/gen/greeter/greeter.idl -pkg greeter -out internal/gen/greeter/greeter_stubs.go")
	}
}
