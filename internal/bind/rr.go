// Package bind implements a BIND-class domain name server and resolver —
// the Berkeley Internet Name Domain server (Terry et al. 1984) as the HNS
// prototype used it.
//
// Two faces are provided, matching the prototype's two BIND interfaces:
//
//   - The standard interface: a compact DNS-style wire format with
//     hand-coded marshalling, used for ordinary lookups. This is the
//     "standard BIND library routines" whose marshalling cost the paper
//     measured at 0.65/2.6 ms.
//   - The HRPC interface: Query/Update/Transfer procedures served over the
//     Raw HRPC suite, priced as stub-compiler ("generated") marshalling —
//     the interface the HNS uses for its meta-naming repository, and the
//     one whose marshalling expense motivated Table 3.2. Its records
//     travel in the journal's binary codec (journal.go). Dynamic update and
//     zone transfer (used for cache preloading) live here, mirroring the
//     authors' modified BIND [Schwartz 1987].
//
// The server is authoritative over a set of zones; the resolver caches
// answers by TTL in marshalled or demarshalled form.
package bind

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// RRType is a resource-record type code. Values follow the DNS assignments
// of the era.
type RRType uint16

// Resource record types. TypeHNSMeta is the "data of unspecified type" the
// authors added to BIND for the HNS meta-information; it lives in the
// private-use range.
const (
	TypeA     RRType = 1
	TypeNS    RRType = 2
	TypeCNAME RRType = 5
	TypeSOA   RRType = 6
	TypeWKS   RRType = 11
	TypePTR   RRType = 12
	TypeHINFO RRType = 13
	TypeTXT   RRType = 16

	TypeHNSMeta RRType = 65280
)

// String implements fmt.Stringer.
func (t RRType) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeWKS:
		return "WKS"
	case TypePTR:
		return "PTR"
	case TypeHINFO:
		return "HINFO"
	case TypeTXT:
		return "TXT"
	case TypeHNSMeta:
		return "HNSMETA"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// ClassIN is the only record class implemented (Internet).
const ClassIN uint16 = 1

// MaxRDataLen bounds record data: "each of which can be up to 256 bytes of
// data" (paper, footnote 9).
const MaxRDataLen = 256

// MaxNameLen bounds a domain name, per the DNS specification of the era.
const MaxNameLen = 255

// RR is one resource record. Separate records under one name store
// alternate data (e.g. multiple addresses for gateway hosts).
type RR struct {
	// Name is the owner name, canonical (lower case, no trailing dot).
	Name string
	// Type is the record type.
	Type RRType
	// Class is the record class (always ClassIN here).
	Class uint16
	// TTL is the time-to-live in seconds.
	TTL uint32
	// Data is the record payload, at most MaxRDataLen bytes. Address
	// records store the textual transport address; HNSMETA records store
	// HNS meta-information.
	Data []byte
}

// String implements fmt.Stringer.
func (r RR) String() string {
	return fmt.Sprintf("%s %d %s %q", r.Name, r.TTL, r.Type, r.Data)
}

// Errors reported by record and name validation.
var (
	ErrBadName    = errors.New("bind: malformed domain name")
	ErrDataTooBig = errors.New("bind: record data exceeds 256 bytes")
)

// CanonicalName lower-cases a domain name and strips one trailing dot,
// returning an error for names that are empty, too long, open with a
// zone-file comment character (';' or '#': the record line would read
// back as a comment), or contain empty labels or whitespace. A name that
// is already canonical comes back as the same string, without allocating.
func CanonicalName(name string) (string, error) {
	name = strings.TrimSuffix(name, ".")
	if isCanonicalASCII(name) {
		return name, nil
	}
	if name == "" {
		return "", fmt.Errorf("%w: empty name", ErrBadName)
	}
	if len(name) > MaxNameLen {
		return "", fmt.Errorf("%w: %d bytes", ErrBadName, len(name))
	}
	if isCommentByte(name[0]) {
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
			// Any Unicode whitespace, not just ASCII: the zone-file
			// format tokenizes on unicode.IsSpace, so a name containing
			// such a rune could never round-trip through a zone dump.
			if unicode.IsSpace(c) {
				return "", fmt.Errorf("%w: whitespace in %q", ErrBadName, name)
			}
		}
	}
	return name, nil
}

// isCanonicalASCII reports, in one pass over its bytes, whether name is
// already what CanonicalName would return for it — the case for nearly
// every name a server sees, since clients, zone files and the journal
// all carry canonical names. Anything it cannot vouch for (upper case,
// a non-ASCII byte, a space, a bad label, a leading comment byte) is left
// to the full check.
func isCanonicalASCII(name string) bool {
	if name == "" || len(name) > MaxNameLen || isCommentByte(name[0]) {
		return false
	}
	label := 0 // bytes in the current label
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c == '.':
			if label == 0 {
				return false
			}
			label = 0
			continue
		case c >= utf8.RuneSelf, 'A' <= c && c <= 'Z', isASCIISpace(c):
			return false
		}
		if label++; label > 63 {
			return false
		}
	}
	return label > 0
}

// isCommentByte reports whether a zone-file line opening with c is a
// comment (see ParseZoneFile).
func isCommentByte(c byte) bool { return c == ';' || c == '#' }

// isASCIISpace is unicode.IsSpace for a byte below utf8.RuneSelf.
func isASCIISpace(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

// Validate checks the record for well-formedness and canonicalizes its
// name in place.
func (r *RR) Validate() error {
	name, err := CanonicalName(r.Name)
	if err != nil {
		return err
	}
	r.Name = name
	return r.validateData()
}

// validateData is the half of Validate that does not depend on the name
// being canonicalized: the data bound and the class default.
func (r *RR) validateData() error {
	if len(r.Data) > MaxRDataLen {
		return fmt.Errorf("%w: %d bytes on %s", ErrDataTooBig, len(r.Data), r.Name)
	}
	if r.Class == 0 {
		r.Class = ClassIN
	}
	return nil
}

// Equal reports whether two records are identical apart from TTL (the DNS
// notion of a duplicate for update purposes).
func (r RR) Equal(o RR) bool {
	return r.Name == o.Name && r.Type == o.Type && r.Class == o.Class &&
		string(r.Data) == string(o.Data)
}

// Record constructors for the common cases.

// A builds an address record mapping name to the transport address addr.
func A(name, addr string, ttl uint32) RR {
	return RR{Name: name, Type: TypeA, Class: ClassIN, TTL: ttl, Data: []byte(addr)}
}

// CNAME builds an alias record.
func CNAME(name, target string, ttl uint32) RR {
	return RR{Name: name, Type: TypeCNAME, Class: ClassIN, TTL: ttl, Data: []byte(target)}
}

// TXT builds a text record.
func TXT(name, text string, ttl uint32) RR {
	return RR{Name: name, Type: TypeTXT, Class: ClassIN, TTL: ttl, Data: []byte(text)}
}

// HNSMeta builds an unspecified-type record carrying HNS meta-information.
func HNSMeta(name, payload string, ttl uint32) RR {
	return RR{Name: name, Type: TypeHNSMeta, Class: ClassIN, TTL: ttl, Data: []byte(payload)}
}

// HINFO builds a host-information record.
func HINFO(name, cpuOS string, ttl uint32) RR {
	return RR{Name: name, Type: TypeHINFO, Class: ClassIN, TTL: ttl, Data: []byte(cpuOS)}
}

// compareRR is the deterministic record order (name, type, data) of zone
// transfers, dumps and checkpoints.
func compareRR(a, b RR) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return compareInName(a, b)
}

// compareInName orders two records of one owner name by (type, data).
func compareInName(a, b RR) int {
	if c := cmp.Compare(a.Type, b.Type); c != 0 {
		return c
	}
	return bytes.Compare(a.Data, b.Data)
}

// SortRRs orders records deterministically (name, type, data) — used by
// zone transfers so preload contents are stable.
func SortRRs(rrs []RR) {
	slices.SortFunc(rrs, compareRR)
}

// MinTTL returns the smallest TTL among records, which is what a cache must
// honour for the set; 0 if the set is empty.
func MinTTL(rrs []RR) uint32 {
	if len(rrs) == 0 {
		return 0
	}
	min := rrs[0].TTL
	for _, r := range rrs[1:] {
		if r.TTL < min {
			min = r.TTL
		}
	}
	return min
}
