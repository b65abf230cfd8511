package names

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndParse(t *testing.T) {
	n, err := New("HRPCBinding-BIND", "fiji.cs.washington.edu")
	if err != nil {
		t.Fatal(err)
	}
	if n.Context != "hrpcbinding-bind" {
		t.Fatalf("context not canonicalized: %q", n.Context)
	}
	if n.Individual != "fiji.cs.washington.edu" {
		t.Fatalf("individual mangled: %q", n.Individual)
	}
	got, err := Parse(n.String())
	if err != nil || got != n {
		t.Fatalf("Parse(String) = %v, %v", got, err)
	}
}

func TestIndividualMayContainAnything(t *testing.T) {
	// Clearinghouse names contain colons; individual names are free-form.
	n, err := New("hrpcbinding-ch", "printserver:cs:uw")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(n.String())
	if err != nil || got.Individual != "printserver:cs:uw" {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	// Even an individual containing the separator survives: the first
	// separator wins.
	n2, err := New("ctx", "weird!name")
	if err != nil {
		t.Fatal(err)
	}
	got, err = Parse(n2.String())
	if err != nil || got.Individual != "weird!name" {
		t.Fatalf("separator in individual: %v, %v", got, err)
	}
}

func TestRejects(t *testing.T) {
	cases := []struct{ ctx, ind string }{
		{"", "x"},
		{"ctx", ""},
		{"has space", "x"},
		{"has!bang", "x"},
		{"ctx:colon", "x"},
	}
	for _, c := range cases {
		if _, err := New(c.ctx, c.ind); !errors.Is(err, ErrBadHNSName) {
			t.Errorf("New(%q, %q) accepted", c.ctx, c.ind)
		}
	}
	if _, err := Parse("no-separator"); !errors.Is(err, ErrBadHNSName) {
		t.Error("Parse without separator accepted")
	}
}

func TestMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Must on bad name did not panic")
		}
	}()
	Must("", "")
}

func TestValidateAndZero(t *testing.T) {
	bad := Name{Context: "BAD SPACE", Individual: "x"}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted bad context")
	}
}

// Property: parse ∘ format is the identity on valid names.
func TestRoundTripProperty(t *testing.T) {
	f := func(ctxRaw, ind string) bool {
		n, err := New(ctxRaw, ind)
		if err != nil {
			return true // invalid inputs out of scope
		}
		got, err := Parse(n.String())
		return err == nil && got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
}
