package marshal

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// DataRep is the HRPC "data representation" component: it encodes values
// onto the wire and decodes them back given the type the stub declared.
// Implementations must be safe for concurrent use.
type DataRep interface {
	// Name identifies the representation in bindings and registries
	// (e.g. "xdr", "courier", "packed").
	Name() string
	// Append marshals v onto buf and returns the extended buffer.
	// v must conform to t.
	Append(buf []byte, v Value, t Type) ([]byte, error)
	// Decode unmarshals one value of type t from buf, returning the value
	// and the unconsumed remainder.
	Decode(buf []byte, t Type) (Value, []byte, error)
}

// ErrTruncated reports a wire message that ended before its declared
// contents.
var ErrTruncated = errors.New("marshal: truncated message")

// ErrBadValue reports wire contents that cannot represent a legal value.
var ErrBadValue = errors.New("marshal: malformed value on wire")

// Marshal is the non-appending convenience form of DataRep.Append.
func Marshal(r DataRep, v Value, t Type) ([]byte, error) {
	return r.Append(nil, v, t)
}

// Unmarshal decodes exactly one value and verifies nothing trails it.
func Unmarshal(r DataRep, buf []byte, t Type) (Value, error) {
	v, rest, err := r.Decode(buf, t)
	if err != nil {
		return Value{}, err
	}
	if len(rest) != 0 {
		return Value{}, fmt.Errorf("%w: %d trailing bytes", ErrBadValue, len(rest))
	}
	return v, nil
}

// The data-representation registry. HRPC selects components dynamically at
// bind time; the registry is how names stored in HNS binding records are
// resolved to implementations.

var (
	repMu  sync.RWMutex
	repsBy = map[string]DataRep{}
)

// Register installs r under its name. Registering the same name twice
// panics: component names are global protocol identifiers and a collision
// is a programming error.
func Register(r DataRep) {
	repMu.Lock()
	defer repMu.Unlock()
	if _, dup := repsBy[r.Name()]; dup {
		panic("marshal: duplicate data representation " + r.Name())
	}
	repsBy[r.Name()] = r
}

// Lookup resolves a representation name registered with Register.
func Lookup(name string) (DataRep, error) {
	repMu.RLock()
	defer repMu.RUnlock()
	r, ok := repsBy[name]
	if !ok {
		return nil, fmt.Errorf("marshal: unknown data representation %q", name)
	}
	return r, nil
}

// Names lists the registered representation names, sorted.
func Names() []string {
	repMu.RLock()
	defer repMu.RUnlock()
	out := make([]string, 0, len(repsBy))
	for n := range repsBy {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(XDR{})
	Register(Courier{})
	Register(Packed{})
}
