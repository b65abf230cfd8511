// Package names defines the HNS name syntax.
//
// An HNS name has two parts: a context and an individual name. "Roughly,
// the context identifies the local name service in which the data can be
// found while the individual name determines the name of the object in
// that local service." The individual name can be any string — in the
// simplest case identical to the entity's local name — so the global name
// space deliberately does not conform to any single syntax; contexts are
// the only structured part.
//
// Because each context maps onto (all or part of) the name space of a
// single local name service, and the local-name → individual-name mapping
// is required to be a function, combining previously separate systems can
// never create naming conflicts.
package names

import (
	"errors"
	"fmt"
	"strings"
)

// Separator splits context from individual name in the textual form. "!"
// cannot appear in context names and is not used by either underlying
// name syntax (domain names or Clearinghouse three-part names).
const Separator = "!"

// Name is an HNS name: a context plus an individual name.
type Name struct {
	// Context identifies the local name service holding the entity, e.g.
	// "hrpcbinding-bind". Contexts are case-insensitive and restricted to
	// letters, digits, '.', '-' and '_'.
	Context string
	// Individual is the entity's name within that service — any non-empty
	// string, typically identical to its local name (e.g.
	// "fiji.cs.washington.edu" or "printserver:cs:uw").
	Individual string
}

// ErrBadHNSName reports a malformed HNS name.
var ErrBadHNSName = errors.New("names: malformed HNS name")

// CanonicalContext validates and lower-cases a context name.
func CanonicalContext(ctx string) (string, error) {
	if ctx == "" {
		return "", fmt.Errorf("%w: empty context", ErrBadHNSName)
	}
	ctx = strings.ToLower(ctx)
	for _, c := range ctx {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
		default:
			return "", fmt.Errorf("%w: context %q contains %q", ErrBadHNSName, ctx, c)
		}
	}
	return ctx, nil
}

// New builds a validated Name.
func New(context, individual string) (Name, error) {
	ctx, err := CanonicalContext(context)
	if err != nil {
		return Name{}, err
	}
	if individual == "" {
		return Name{}, fmt.Errorf("%w: empty individual name", ErrBadHNSName)
	}
	return Name{Context: ctx, Individual: individual}, nil
}

// Must builds a Name, panicking on error. For tests and literals.
func Must(context, individual string) Name {
	n, err := New(context, individual)
	if err != nil {
		panic(err)
	}
	return n
}

// Parse splits "context!individual".
func Parse(s string) (Name, error) {
	i := strings.Index(s, Separator)
	if i < 0 {
		return Name{}, fmt.Errorf("%w: %q has no %q separator", ErrBadHNSName, s, Separator)
	}
	return New(s[:i], s[i+1:])
}

// String implements fmt.Stringer, producing the parseable form.
func (n Name) String() string { return n.Context + Separator + n.Individual }

// Validate re-checks an already-constructed name (e.g. one received off
// the wire).
func (n Name) Validate() error {
	_, err := New(n.Context, n.Individual)
	return err
}
