package bind

import (
	"bytes"
	"encoding/hex"
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

// encodeImage is the 'r' image of a zone holding rrs, in order, at serial.
func encodeImage(zone string, serial uint32, rrs []RR) []byte {
	return appendSets(appendImageHead(nil, zone, serial), rrs)
}

// reencodeJournal is the encoder for whatever decodeJournal returned.
func reencodeJournal(rec journalRec) []byte {
	switch rec.kind {
	case journalKindUpdate:
		return encodeUpdate(rec.zone, rec.ops, rec.serial)
	case journalKindReplace:
		return append(appendImageHead(nil, rec.zone, rec.serial), rec.sets...)
	default:
		return encodeCheckpoint(int(rec.zones))
	}
}

// seed adds payload to f's corpus, failing the setup unless decode
// accepts it exactly when ok: a golden that no longer decodes, or a
// strictness seed that does, would leave the target exploring from
// nothing it claims to.
func seed(f *testing.F, decode func([]byte) error, ok bool, payload []byte) {
	f.Helper()
	if err := decode(payload); (err == nil) != ok {
		f.Fatalf("seed %x: decode error %v, want accepted %v", payload, err, ok)
	}
	f.Add(payload)
}

// The BINDUpdate body, and so the 'u' record, of TestUpdateGoldenBytes's
// add; and the same body with each integer's strictness broken once: its
// TTL spelled overlong, and a type of 65536.
const (
	goldenUpdateBody   = "03686e73000a68302e6374782e686e7380fe0301d8040a6e733d62696e642d6373"
	overlongUpdateBody = "03686e73000a68302e6374782e686e7380fe0301d884000a6e733d62696e642d6373"
	type65536Body      = "03686e73000a68302e6374782e686e7380800401d8040a6e733d62696e642d6373"
)

// FuzzJournalDecode throws arbitrary bytes at the one decoder WAL replay
// runs over transactions, zone images and checkpoint markers: it must
// never panic, and whatever it accepts must re-encode byte-identically.
func FuzzJournalDecode(f *testing.F) {
	decode := func(b []byte) error { _, err := decodeJournal(b); return err }
	for _, b := range [][]byte{
		encodeCheckpoint(2),
		encodeImage("hns", 9, []RR{A("a.hns", "10.0.0.1", 60), HNSMeta("ctx.hns", "ns=bind-cs", 600)}),
		encodeImage("hns", 9, []RR{A("a.hns", "10.0.0.1", 60), A("a.hns", "10.0.0.2", 60), A("b.hns", "10.0.0.1", 600)}),
		encodeImage("meta.hns", 0, nil),
		encodeUpdate("hns", Removes(TypeA, "a.hns"), 10),
		encodeUpdate("hns", append(Removes(TypeHNSMeta, "q.ns.qc.hns"), Adds(HNSMeta("n.nsm.hns", "host=june", 600), HNSMeta("n.nsm.hns", "port=1", 600))...), 11),
		unhex(f, "752a"+goldenUpdateBody),
	} {
		seed(f, decode, true, b)
	}
	for _, b := range [][]byte{
		[]byte("c"), // a truncated marker
		{},
		unhex(f, "75aa00"+goldenUpdateBody), // the serial overlong
		unhex(f, "752a"+overlongUpdateBody),
		unhex(f, "752a"+type65536Body),
	} {
		seed(f, decode, false, b)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeJournal(payload)
		if err != nil {
			return
		}
		if out := reencodeJournal(rec); !bytes.Equal(out, payload) {
			t.Fatalf("decode/encode not canonical: in=%x out=%x", payload, out)
		}
	})
}

// unhex is the bytes of hex s; a typo fails the test or the fuzz setup.
func unhex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		tb.Fatalf("seed %q: %v", s, err)
	}
	return b
}

// A checkpoint marker round-trips with its zone count, and nothing else.
func TestJournalCheckpointRoundTrip(t *testing.T) {
	for _, zones := range []int{0, 1, 70000} {
		rec, err := decodeJournal(encodeCheckpoint(zones))
		if err != nil || rec.kind != journalKindCheckpoint || rec.zones != uint32(zones) || rec.zone != "" || rec.serial != 0 {
			t.Fatalf("marker for %d zones decoded as %+v, %v", zones, rec, err)
		}
	}
}

// Damage the WAL's frame checksum would not catch — a record cut short,
// padded, or of an unknown kind, a transaction with no op or an op that
// is neither add nor remove — is refused by the decoder, or, in an image's
// sets, by the zone taking them in.
func TestJournalDecodeRejectsDamage(t *testing.T) {
	image := encodeImage("hns", 3, []RR{A("a.hns", "10.0.0.1", 60)})
	marker := encodeCheckpoint(1)
	update := encodeUpdate("hns", Adds(A("a.hns", "10.0.0.1", 60), A("b.hns", "10.0.0.2", 60)), 4)
	spliced := func(b []byte, at int, field ...byte) []byte {
		return append(append(bytes.Clone(b[:at]), field...), b[at+1:]...)
	}
	for name, b := range map[string][]byte{
		"update cut short":         update[:len(update)-1],
		"update with no op":        encodeUpdate("hns", nil, 4),
		"update with op 2":         encodeUpdate("hns", []Op{{2, A("a.hns", "10.0.0.1", 60)}}, 4),
		"update then a record":     append(bytes.Clone(update), update...),
		"update serial overlong":   spliced(update, 1, 0x84, 0x00),
		"update serial past 2³²−1": spliced(update, 1, 0x80, 0x80, 0x80, 0x80, 0x10),
		"image cut short":          image[:len(image)-1],
		"image padded":             append(bytes.Clone(image), 0),
		"image run count inflated": func() []byte {
			c := bytes.Clone(image)
			c[len(c)-len("10.0.0.1")-2] = 2 // the run's record count
			return c
		}(),
		"image of no zone":      image[:1+1],
		"marker cut short":      marker[:len(marker)-1],
		"marker padded":         append(bytes.Clone(marker), 0),
		"marker overlong":       spliced(marker, 1, 0x81, 0x00),
		"unknown kind":          append([]byte{'V'}, marker[1:]...),
		"first-revision update": unhex(t, "550000002a0003686e7300000a68302e6374782e686e73ff00000100000258000a6e733d62696e642d6373"),
		"empty":                 nil,
	} {
		rec, err := decodeJournal(b)
		var rrs []RR
		if err == nil && rec.kind == journalKindReplace {
			rrs, err = decodeSets(rec.sets)
		}
		if z, _ := NewZone("hns", true); err == nil && rec.kind == journalKindReplace {
			err = z.Replace(rrs, rec.serial)
		}
		if err == nil {
			t.Errorf("%s: replay accepted %x as %+v", name, b, rec)
		}
	}
}

// The one-op encodings, every integer a uvarint: the BINDUpdate body every
// flip sends, and the 'u' record the journal and IXFR hold.
func TestUpdateGoldenBytes(t *testing.T) {
	rr := HNSMeta("h0.ctx.hns", "ns=bind-cs", 600)
	for name, tc := range map[string]struct {
		got  []byte
		want string
	}{
		"BINDUpdate body": {appendUpdate(nil, "hns", Adds(rr)), goldenUpdateBody},
		"'u' add":         {encodeUpdate("hns", Adds(rr), 42), "752a" + goldenUpdateBody},
		"'u' remove":      {encodeUpdate("hns", Removes(TypeA, "a.hns"), 42), "752a03686e730105612e686e7301000000"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s encodes as %s, want %s", name, got, tc.want)
		}
	}
	if n := len(appendUpdate(nil, "hns", Adds(rr))); n != 33 {
		t.Errorf("the BINDUpdate body is %d bytes, want 33", n)
	}
}
