package bind

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const sampleZoneFile = `
; the cs.washington.edu zone
fiji.cs.washington.edu   600  A       10.0.0.1
fiji.cs.washington.edu   600  HINFO   MicroVAX-II/Unix with spaces
june.cs.washington.edu   300  A       10.0.0.2
# hash comments too
schwartz.cs.washington.edu 600 TXT    mailhost=june.cs.washington.edu
ctx.hns                  600  HNSMETA ns=bind-cs
weird.cs.washington.edu  60   TYPE999 raw payload
`

func TestParseZoneFile(t *testing.T) {
	rrs, err := ParseZoneFile(strings.NewReader(sampleZoneFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(rrs) != 6 {
		t.Fatalf("parsed %d records, want 6", len(rrs))
	}
	if rrs[1].Type != TypeHINFO || string(rrs[1].Data) != "MicroVAX-II/Unix with spaces" {
		t.Fatalf("interior spacing lost: %v", rrs[1])
	}
	if rrs[4].Type != TypeHNSMeta {
		t.Fatalf("HNSMETA not recognised: %v", rrs[4])
	}
	if rrs[5].Type != RRType(999) {
		t.Fatalf("numeric type not recognised: %v", rrs[5])
	}
}

// The data column is whatever follows the third token — not whatever
// follows the first place the type token's text happens to occur.
func TestParseZoneFileDataColumnIsPositional(t *testing.T) {
	for _, tc := range []struct {
		line string
		want RR
	}{
		{"fiji.cs.washington.edu 600 a 10.0.0.1", A("fiji.cs.washington.edu", "10.0.0.1", 600)},
		{"TXT.example 600 TXT hello", TXT("txt.example", "hello", 600)},
		{"h16 16 16 payload", TXT("h16", "payload", 16)},
	} {
		rrs, err := ParseZoneFile(strings.NewReader(tc.line))
		if err != nil || len(rrs) != 1 {
			t.Errorf("ParseZoneFile(%q) = %v, %v", tc.line, rrs, err)
			continue
		}
		if got := rrs[0]; !got.Equal(tc.want) || got.TTL != tc.want.TTL {
			t.Errorf("ParseZoneFile(%q) = %v, want %v", tc.line, got, tc.want)
		}
	}
}

func TestParseZoneFileErrors(t *testing.T) {
	cases := []string{
		"name 600 A",              // too few fields
		"name notanum A data",     // bad ttl
		"name 600 BOGUS data",     // bad type
		"bad..name 600 A data",    // bad name
		"name 99999999999 A data", // ttl overflow
		"name 4294967296 A data",  // one past 32 bits
		"name +600 A data",        // strconv.ParseUint takes no sign
		"name 6_00 A data",        // nor, in base 10, an underscore
		"name 600 A " + strings.Repeat("x", MaxRDataLen+1),
	}
	for _, c := range cases {
		if _, err := ParseZoneFile(strings.NewReader(c)); err == nil {
			t.Errorf("ParseZoneFile(%q) accepted", c)
		}
	}
}

func TestZoneFileRoundTrip(t *testing.T) {
	rrs, err := ParseZoneFile(strings.NewReader(sampleZoneFile))
	if err != nil {
		t.Fatal(err)
	}
	text := FormatZoneFile(rrs)
	back, err := ParseZoneFile(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rrs) {
		t.Fatalf("round trip lost records: %d -> %d", len(rrs), len(back))
	}
	SortRRs(rrs)
	for i := range rrs {
		if !back[i].Equal(rrs[i]) || back[i].TTL != rrs[i].TTL {
			t.Fatalf("record %d mangled:\n was %v\n now %v", i, rrs[i], back[i])
		}
	}
}

func TestParseRRType(t *testing.T) {
	for s, want := range map[string]RRType{
		"a": TypeA, "A": TypeA, "hnsmeta": TypeHNSMeta,
		"TYPE16": TypeTXT, "16": TypeTXT,
	} {
		got, err := ParseRRType(s)
		if err != nil || got != want {
			t.Errorf("ParseRRType(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseRRType("MX!"); err == nil {
		t.Error("garbage type accepted")
	}
}

// Property: format ∘ parse is lossless for valid records without newlines
// in their data.
func TestZoneFileProperty(t *testing.T) {
	f := func(label string, ttl uint16, payload string) bool {
		name, err := CanonicalName(strings.Trim(label, ".") + ".z.test")
		if err != nil {
			return true
		}
		payload = strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return '_'
			}
			return r
		}, payload)
		payload = strings.TrimSpace(payload)
		if payload == "" || len(payload) > MaxRDataLen {
			return true
		}
		rr := RR{Name: name, Type: TypeTXT, Class: ClassIN, TTL: uint32(ttl), Data: []byte(payload)}
		back, err := ParseZoneFile(strings.NewReader(FormatZoneFile([]RR{rr})))
		if err != nil || len(back) != 1 {
			return false
		}
		return back[0].Equal(rr) && back[0].TTL == rr.TTL
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
}

// Property: parse ∘ write ∘ parse is the identity — what zone dumps rely
// on. Starting from parsed (hence storable) records, WriteZone's output
// parses back to exactly the same set.
func TestWriteZoneRoundTripProperty(t *testing.T) {
	f := func(labels []string, ttl uint16, payloads []string) bool {
		var rrs []RR
		for i, l := range labels {
			name, err := CanonicalName(strings.Trim(l, ".") + ".z.test")
			if err != nil {
				continue
			}
			payload := "p"
			if i < len(payloads) {
				p := strings.TrimSpace(strings.Map(func(r rune) rune {
					if r == '\n' || r == '\r' {
						return '_'
					}
					return r
				}, payloads[i]))
				if p != "" && len(p) <= MaxRDataLen {
					payload = p
				}
			}
			rrs = append(rrs, RR{Name: name, Type: TypeTXT, Class: ClassIN,
				TTL: uint32(ttl), Data: []byte(payload)})
		}
		var b strings.Builder
		if err := WriteZone(&b, rrs); err != nil {
			return false
		}
		once, err := ParseZoneFile(strings.NewReader(b.String()))
		if err != nil {
			return false
		}
		var b2 strings.Builder
		if err := WriteZone(&b2, once); err != nil {
			return false
		}
		if b.String() != b2.String() { // write is canonical after one parse
			return false
		}
		twice, err := ParseZoneFile(strings.NewReader(b2.String()))
		if err != nil || len(twice) != len(once) {
			return false
		}
		for i := range once {
			if !twice[i].Equal(once[i]) || twice[i].TTL != once[i].TTL {
				return false
			}
		}
		SortRRs(rrs)
		return len(once) == len(rrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteZoneRejectsUnstorable(t *testing.T) {
	for _, data := range []string{"", "has\nnewline", " edge", "edge "} {
		var b strings.Builder
		err := WriteZone(&b, []RR{{Name: "a.z.test", Type: TypeTXT, Class: ClassIN, Data: []byte(data)}})
		if err == nil {
			t.Errorf("WriteZone accepted unstorable data %q", data)
		}
	}
}
