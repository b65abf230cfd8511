package bind

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"unicode"
)

// Native fuzz targets for the wire-facing parsers. `go test` runs the seed
// corpus; `go test -fuzz=FuzzDecodeMessage ./internal/bind` explores.

func FuzzDecodeMessage(f *testing.F) {
	// Seeds: a real query, a real response, and junk.
	q, _ := EncodeMessage(&Message{ID: 1, QName: "fiji.cs.washington.edu", QType: TypeA})
	r, _ := EncodeMessage(&Message{
		ID: 2, Response: true, QName: "a.b", QType: TypeTXT,
		Answers: []RR{TXT("a.b", "hello", 60), A("a.b", "1.2.3.4", 60)},
	})
	f.Add(q)
	f.Add(r)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		// Round-trip invariant: anything we accept re-encodes and decodes
		// to the same message.
		buf, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v (%+v)", err, m)
		}
		m2, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if m.ID != m2.ID || m.QName != m2.QName || len(m.Answers) != len(m2.Answers) {
			t.Fatalf("round trip changed message: %+v vs %+v", m, m2)
		}
		for i := range m.Answers {
			if !m.Answers[i].Equal(m2.Answers[i]) {
				t.Fatalf("answer %d changed", i)
			}
		}
	})
}

func FuzzParseZoneFile(f *testing.F) {
	f.Add(sampleZoneFile)
	f.Add("name 600 A data\n")
	f.Add("; only a comment\n")
	f.Add("fiji.cs.washington.edu 600 a 10.0.0.1\nTXT.example 600 TXT hello\nh16 16 16 payload\n")
	f.Add("a\u0085600\u00a0TXT\u2003two  spaces\r\n")
	f.Fuzz(func(t *testing.T, text string) {
		rrs, err := ParseZoneFile(strings.NewReader(text))
		if err != nil {
			return
		}
		// Anything accepted must survive format → parse unchanged, field
		// for field.
		for _, rr := range rrs {
			if bytes.ContainsRune(rr.Data, '\r') {
				return
			}
		}
		back, err := ParseZoneFile(strings.NewReader(FormatZoneFile(rrs)))
		if err != nil {
			t.Fatalf("formatted zone does not re-parse: %v", err)
		}
		SortRRs(rrs)
		if len(back) != len(rrs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(rrs), len(back))
		}
		for i := range rrs {
			if !back[i].Equal(rrs[i]) || back[i].TTL != rrs[i].TTL {
				t.Fatalf("round trip changed record %d: %v -> %v", i, rrs[i], back[i])
			}
		}
	})
}

// canonicalNameReference is CanonicalName without isCanonicalASCII's
// short cut — the strings.Split canonicaliser as it always was, and the
// specification the short cut is held to, error text included.
func canonicalNameReference(name string) (string, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return "", fmt.Errorf("%w: empty name", ErrBadName)
	}
	if len(name) > MaxNameLen {
		return "", fmt.Errorf("%w: %d bytes", ErrBadName, len(name))
	}
	if name[0] == ';' || name[0] == '#' {
		return "", fmt.Errorf("%w: %q opens with a zone-file comment character", ErrBadName, name)
	}
	name = strings.ToLower(name)
	for _, label := range strings.Split(name, ".") {
		if label == "" {
			return "", fmt.Errorf("%w: empty label in %q", ErrBadName, name)
		}
		if len(label) > 63 {
			return "", fmt.Errorf("%w: label %q exceeds 63 bytes", ErrBadName, label)
		}
		for _, c := range label {
			if unicode.IsSpace(c) {
				return "", fmt.Errorf("%w: whitespace in %q", ErrBadName, name)
			}
		}
	}
	return name, nil
}

func FuzzCanonicalName(f *testing.F) {
	f.Add("FIJI.cs.washington.edu")
	f.Add("..")
	f.Add(strings.Repeat("a.", 200))
	f.Add("nel\u0085.example")
	f.Add("nbsp\u00a0.example")
	f.Add("İstanbul.example") // lower-cases to a longer string
	f.Add(strings.Repeat("İ", 32) + ".example")
	f.Add(strings.Repeat("a", 63) + "." + strings.Repeat("b", 64))
	f.Add(strings.Repeat("a", 64) + ".example.")
	f.Add("trailing.dots..")
	f.Add("a b..c")
	f.Add("\xff\xfe.example")
	f.Add("#x.z.test")
	f.Add(";x.z.test.")
	f.Fuzz(func(t *testing.T, name string) {
		c, err := CanonicalName(name)
		want, wantErr := canonicalNameReference(name)
		if c != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("CanonicalName(%q) = %q, %v; the reference gives %q, %v", name, c, err, want, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadName) {
				t.Fatalf("CanonicalName(%q): %v does not wrap ErrBadName", name, err)
			}
			return
		}
		// Canonicalization is idempotent.
		c2, err := CanonicalName(c)
		if err != nil || c2 != c {
			t.Fatalf("not idempotent: %q -> %q, %v", c, c2, err)
		}
		if strings.IndexFunc(c, unicode.IsSpace) >= 0 {
			t.Fatalf("whitespace survived: %q", c)
		}
	})
}
