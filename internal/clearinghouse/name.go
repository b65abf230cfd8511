// Package clearinghouse implements a Xerox Clearinghouse-class name
// service (Oppen & Dalal 1983), the second underlying service the HNS
// prototype integrated.
//
// Characteristics reproduced from the paper and the Clearinghouse design:
//
//   - three-part names object:domain:organization, case-insensitive;
//   - typed property lists per object;
//   - every access is authenticated (the paper's footnote 5 blames
//     authentication plus disk residency for the 156 ms lookups, versus
//     BIND's 27 ms);
//   - data is disk-resident (the store charges a disk-read cost per
//     access and supports real snapshot persistence for the daemon);
//   - servers replicate updates to peers;
//   - the service speaks the Courier protocol suite (program 2,
//     version 3 — the historical Clearinghouse Courier program).
package clearinghouse

import (
	"errors"
	"fmt"
	"strings"
)

// Name is a three-part Clearinghouse name: object:domain:organization.
type Name struct {
	Object string
	Domain string
	Org    string
}

// ErrBadCHName reports an unparseable Clearinghouse name.
var ErrBadCHName = errors.New("clearinghouse: malformed name")

// ParseName parses "object:domain:organization". All three parts are
// required and non-empty; the result is canonical (lower case).
func ParseName(s string) (Name, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return Name{}, fmt.Errorf("%w: %q needs object:domain:organization", ErrBadCHName, s)
	}
	n := Name{
		Object: strings.ToLower(strings.TrimSpace(parts[0])),
		Domain: strings.ToLower(strings.TrimSpace(parts[1])),
		Org:    strings.ToLower(strings.TrimSpace(parts[2])),
	}
	if n.Object == "" || n.Domain == "" || n.Org == "" {
		return Name{}, fmt.Errorf("%w: %q has an empty part", ErrBadCHName, s)
	}
	return n, nil
}

// MustName parses s, panicking on error. For tests and literals.
func MustName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String implements fmt.Stringer.
func (n Name) String() string {
	return n.Object + ":" + n.Domain + ":" + n.Org
}

// Well-known property names, following Clearinghouse usage.
const (
	// PropAddress holds a server's transport address list.
	PropAddress = "addresslist"
	// PropMailbox holds a user's mail server name.
	PropMailbox = "mailboxes"
	// PropBinding holds a serialized HRPC binding (used by the CH binding
	// NSM and the reregistration baseline).
	PropBinding = "binding"
)
