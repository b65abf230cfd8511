package bind

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Zone-file loading for the bindd daemon: a master-file-like line format,
//
//	; comment
//	name  ttl  type  data...
//
// e.g.
//
//	fiji.cs.washington.edu  600  A      10.0.0.1
//	fiji.cs.washington.edu  600  HINFO  MicroVAX-II/Unix
//	meta.hns                600  HNSMETA ns=bind-cs
//
// Data is everything after the type token, verbatim (so HNSMETA payloads
// and HINFO strings can contain spaces).

// typeByName maps mnemonic type names to codes.
var typeByName = map[string]RRType{
	"A": TypeA, "NS": TypeNS, "CNAME": TypeCNAME, "SOA": TypeSOA,
	"WKS": TypeWKS, "PTR": TypePTR, "HINFO": TypeHINFO, "TXT": TypeTXT,
	"HNSMETA": TypeHNSMeta,
}

// ParseRRType resolves a mnemonic ("A", "TXT", ...) or numeric ("TYPE16",
// "16") record type.
func ParseRRType(s string) (RRType, error) {
	if t, ok := typeByName[strings.ToUpper(s)]; ok {
		return t, nil
	}
	num := strings.TrimPrefix(strings.ToUpper(s), "TYPE")
	n, err := strconv.ParseUint(num, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bind: unknown record type %q", s)
	}
	return RRType(n), nil
}

// ParseZoneFile reads records from r in the line format above. The
// records' data alias one buffer holding what r gave.
func ParseZoneFile(r io.Reader) ([]RR, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make([]RR, 0, bytes.Count(text, []byte{'\n'})+1)
	err = eachZoneRun(text, func(name []byte) string { return string(name) }, func(run []RR) error {
		out = append(out, run...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// eachZoneRun parses text in the line format above, calling fn with each
// run of records whose lines spell their owner name the same, in order.
// The records share one string for that name, canonical — made by str
// when the name already is — and their data alias text; fn must not keep
// run, which the next run reuses.
func eachZoneRun(text []byte, str func([]byte) string, fn func(run []RR) error) error {
	var run []RR
	var tok []byte // the owner name as run's lines spell it
	for lineNo := 1; len(text) > 0; lineNo++ {
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		if line = bytes.TrimSpace(line); len(line) == 0 || isCommentByte(line[0]) {
			continue
		}
		name, rr, err := parseZoneLine(line)
		if err == nil && (len(run) == 0 || !bytes.Equal(name, tok)) {
			if len(run) > 0 {
				if err := fn(run); err != nil {
					return err
				}
			}
			if run, tok = run[:0], name; isCanonicalASCII(name) {
				rr.Name = str(name)
			} else {
				rr.Name, err = CanonicalName(string(name))
			}
		} else if err == nil {
			rr.Name = run[0].Name
		}
		if err == nil && len(rr.Data) > MaxRDataLen {
			err = fmt.Errorf("%w: %d bytes on %s", ErrDataTooBig, len(rr.Data), rr.Name)
		}
		if err != nil {
			return fmt.Errorf("bind: zone file line %d: %w", lineNo, err)
		}
		run = append(run, rr)
	}
	if len(run) == 0 {
		return nil
	}
	return fn(run)
}

// parseZoneLine parses one trimmed record line by position: three
// whitespace-delimited tokens, then the rest of the line verbatim as data,
// which the record returned aliases. Its owner name comes back as written.
func parseZoneLine(line []byte) (name []byte, rr RR, err error) {
	name, rest := cutField(line)
	ttlTok, rest := cutField(rest)
	typeTok, data := cutField(rest)
	if len(data) == 0 {
		return nil, RR{}, fmt.Errorf("want 'name ttl type data', got %q", line)
	}
	ttl, ok := parseTTL(ttlTok)
	if !ok {
		return nil, RR{}, fmt.Errorf("bad ttl %q", ttlTok)
	}
	t, ok := typeByName[string(typeTok)]
	if !ok {
		if t, err = ParseRRType(string(typeTok)); err != nil {
			return nil, RR{}, err
		}
	}
	return name, RR{Type: t, Class: ClassIN, TTL: ttl, Data: data}, nil
}

// cutField splits b at its first run of Unicode whitespace — the
// tokenization strings.Fields applies, one field at a time.
func cutField(b []byte) (field, rest []byte) {
	i := indexSpace(b)
	if i < 0 {
		return b, nil
	}
	return b[:i], bytes.TrimLeftFunc(b[i:], unicode.IsSpace)
}

// indexSpace is bytes.IndexFunc(b, unicode.IsSpace) with ASCII bytes —
// all of a typical line — tested where they lie, not decoded and passed
// to a function one rune at a time.
func indexSpace(b []byte) int {
	for i, c := range b {
		switch {
		case isASCIISpace(c):
			return i
		case c >= utf8.RuneSelf:
			if j := bytes.IndexFunc(b[i:], unicode.IsSpace); j >= 0 {
				return i + j
			}
			return -1
		}
	}
	return -1
}

// parseTTL reads an unsigned decimal that fits 32 bits: what
// strconv.ParseUint(s, 10, 32) accepts, without its string argument.
func parseTTL(b []byte) (uint32, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + uint64(c-'0'); n > math.MaxUint32 {
			return 0, false
		}
	}
	return uint32(n), true
}

// storableData reports whether record data survives the master-file line
// format: ParseZoneFile takes data as the trimmed remainder of the line,
// so empty data, edge whitespace, and line breaks would not round-trip.
// Zone mutation enforces this, which is what lets any zone be dumped in
// the zone-file format losslessly.
func storableData(data []byte) error {
	if len(data) == 0 {
		return errors.New("bind: empty record data cannot be stored")
	}
	if bytes.ContainsAny(data, "\n\r") {
		return errors.New("bind: record data contains a line break")
	}
	if len(bytes.TrimSpace(data)) != len(data) {
		return errors.New("bind: record data has leading or trailing whitespace")
	}
	return nil
}

// WriteZone streams records to w in the exact ParseZoneFile master-file
// format, deterministically ordered — the serialization of zone dumps.
// Every record must be storable (see Zone.Add); parse∘write∘parse is the
// identity. Records already in order (a zone's All, a parsed dump) are
// written as they stand; anything else is sorted in a copy first.
func WriteZone(w io.Writer, rrs []RR) error {
	if !slices.IsSortedFunc(rrs, compareRR) {
		rrs = slices.Clone(rrs)
		SortRRs(rrs)
	}
	var line []byte
	for _, rr := range rrs {
		var err error
		if line, err = appendZoneLine(line[:0], rr); err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// appendZoneLine appends rr's master-file line to b.
func appendZoneLine(b []byte, rr RR) ([]byte, error) {
	if err := storableData(rr.Data); err != nil {
		return b, fmt.Errorf("%v on %s %s", err, rr.Name, rr.Type)
	}
	b = append(b, rr.Name...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(rr.TTL), 10)
	b = append(b, ' ')
	b = append(b, rr.Type.String()...)
	b = append(b, ' ')
	b = append(b, rr.Data...)
	return append(b, '\n'), nil
}

// FormatZoneFile renders records in the ParseZoneFile format,
// deterministically ordered.
func FormatZoneFile(rrs []RR) string {
	var b strings.Builder
	WriteZone(&b, rrs) // strings.Builder never errors; unstorable data renders partially
	return b.String()
}
