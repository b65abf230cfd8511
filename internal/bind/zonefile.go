package bind

import (
	"bufio"
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

// ParseZoneFile reads records from r in the line format above.
func ParseZoneFile(r io.Reader) ([]RR, error) {
	// Records gather in fixed-size chunks joined once at the end: growing
	// one slice to a quarter of a million records copies it five times over.
	const chunk = 4096
	var chunks [][]RR
	cur := make([]RR, 0, chunk)
	prevName := ""
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || isCommentByte(line[0]) {
			continue
		}
		rr, err := parseZoneLine(line, prevName)
		if err != nil {
			return nil, fmt.Errorf("bind: zone file line %d: %w", lineNo, err)
		}
		if len(cur) == chunk {
			chunks = append(chunks, cur)
			cur = make([]RR, 0, chunk)
		}
		cur = append(cur, rr)
		prevName = rr.Name
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(chunks) == 0 {
		return cur, nil
	}
	out := make([]RR, 0, len(chunks)*chunk+len(cur))
	for _, c := range chunks {
		out = append(out, c...)
	}
	return append(out, cur...), nil
}

// parseZoneLine parses one trimmed record line by position: three
// whitespace-delimited tokens, then the rest of the line verbatim as data.
// Nothing of line is retained. prevName is the owner name of the record
// parsed just before: a line repeating it (zone files group a name's
// records) shares that string instead of allocating and checking its own.
func parseZoneLine(line []byte, prevName string) (RR, error) {
	nameTok, rest := cutField(line)
	ttlTok, rest := cutField(rest)
	typeTok, data := cutField(rest)
	if len(data) == 0 {
		return RR{}, fmt.Errorf("want 'name ttl type data', got %q", line)
	}
	ttl, ok := parseTTL(ttlTok)
	if !ok {
		return RR{}, fmt.Errorf("bad ttl %q", ttlTok)
	}
	t, ok := typeByName[string(typeTok)]
	if !ok {
		var err error
		if t, err = ParseRRType(string(typeTok)); err != nil {
			return RR{}, err
		}
	}
	rr := RR{Type: t, Class: ClassIN, TTL: ttl}
	if string(nameTok) == prevName {
		rr.Name = prevName
	} else {
		var err error
		if rr.Name, err = CanonicalName(string(nameTok)); err != nil {
			return RR{}, err
		}
	}
	if len(data) > MaxRDataLen {
		return RR{}, fmt.Errorf("%w: %d bytes on %s", ErrDataTooBig, len(data), rr.Name)
	}
	rr.Data = append([]byte(nil), data...)
	return rr, nil
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
// Zone mutation enforces this, which is what lets snapshots reuse the
// zone-file format losslessly.
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
// format, deterministically ordered — the serialization both zone dumps
// and store snapshots use. Every record must be storable (see Zone.Add);
// parse∘write∘parse is the identity. Records already in order (a zone's
// All, a parsed dump) are written as they stand; anything else is sorted
// in a copy first.
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
