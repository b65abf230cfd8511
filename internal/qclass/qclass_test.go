package qclass

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hns/internal/hrpc"
)

func TestProgramMapping(t *testing.T) {
	for qc, want := range map[string]uint32{
		HostAddress: ProgHostAddress,
		HRPCBinding: ProgHRPCBinding,
		MailRoute:   ProgMailRoute,
	} {
		got, err := Program(qc)
		if err != nil || got != want {
			t.Errorf("Program(%q) = %d, %v", qc, got, err)
		}
	}
	if _, err := Program("filing"); err == nil {
		t.Error("unknown query class mapped")
	}
}

func sample() hrpc.Binding {
	return hrpc.Binding{
		Host: "fiji.cs.washington.edu", Addr: "fiji:9",
		Transport: "udp", DataRep: "xdr", Control: "sunrpc",
		Program: 400001, Version: 1,
	}
}

func TestBindingValueRoundTrip(t *testing.T) {
	v := BindingValue(sample())
	got, err := ValueBinding(v)
	if err != nil || got != sample() {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	// Malformed values rejected, not panicked on.
	if _, err := ValueBinding(v.Items[0]); err == nil {
		t.Fatal("scalar accepted as binding")
	}
}

func TestFormatParseBinding(t *testing.T) {
	s := FormatBinding(sample())
	got, err := ParseBinding(s)
	if err != nil || got != sample() {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a|b", strings.Repeat("|", 6) + "x", "a|b|c|d|e|notanum|1", "a|b|c|d|e|1|notanum"} {
		if _, err := ParseBinding(bad); err == nil {
			t.Errorf("ParseBinding(%q) accepted", bad)
		}
	}
}

// Property: format ∘ parse is the identity for bindings whose string
// fields avoid the separator.
func TestBindingStringProperty(t *testing.T) {
	clean := func(s string) string { return strings.ReplaceAll(s, "|", "_") }
	f := func(host, addr string, prog, vers uint32) bool {
		b := hrpc.Binding{
			Host: clean(host), Addr: clean(addr),
			Transport: "udp", DataRep: "xdr", Control: "raw",
			Program: prog, Version: vers,
		}
		got, err := ParseBinding(FormatBinding(b))
		return err == nil && got == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
}
