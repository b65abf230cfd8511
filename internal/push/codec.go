package push

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Notification is one pushed invalidation: one transaction moved the
// zone's serial to Serial, and Names are the owner names it touched, so
// per-name subscribers (an hnsd meta-cache) invalidate exactly those
// entries. Nil Names is a zone-level event (full replace, recovery): every
// subscriber of the zone must treat all its entries as suspect.
type Notification struct {
	Zone   string
	Names  []string // nil: the whole zone
	Serial uint32
}

// Wire form (big-endian, mirroring the bind journal codec), one frame per
// transaction, its names running to the end of the frame:
//
//	'N' u32 serial  u16len zone  (u16len name)+
//
// A zone-level event is one empty name; no other frame holds one.
const notifyMark = 'N'

// errNotify is the sticky decode failure class.
var errNotify = errors.New("push: bad notification")

// EncodeNotification renders n to its wire form.
func EncodeNotification(n Notification) []byte {
	b := appendString(binary.BigEndian.AppendUint32([]byte{notifyMark}, n.Serial), n.Zone)
	if len(n.Names) == 0 {
		return appendString(b, "") // zone-level
	}
	for _, name := range n.Names {
		b = appendString(b, name)
	}
	return b
}

// DecodeNotification parses a pushed frame. Strict: a truncated name, or
// an empty one among several, is an error, so a corrupted or truncated
// frame never half-applies.
func DecodeNotification(b []byte) (Notification, error) {
	var n Notification
	if len(b) < 5 || b[0] != notifyMark {
		return n, fmt.Errorf("%w: no mark and serial", errNotify)
	}
	n.Serial = binary.BigEndian.Uint32(b[1:])
	b = b[5:]
	var err error
	if n.Zone, b, err = takeString(b); err != nil {
		return Notification{}, fmt.Errorf("%w: zone: %v", errNotify, err)
	}
	for len(n.Names) == 0 || len(b) > 0 {
		var name string
		if name, b, err = takeString(b); err != nil {
			return Notification{}, fmt.Errorf("%w: name: %v", errNotify, err)
		}
		n.Names = append(n.Names, name)
	}
	switch {
	case len(n.Names) == 1 && n.Names[0] == "":
		n.Names = nil // zone-level
	case slices.Contains(n.Names, ""):
		return Notification{}, fmt.Errorf("%w: an empty name among %d", errNotify, len(n.Names))
	}
	return n, nil
}

// appendString appends one u16-length-prefixed string.
func appendString(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint16(b, uint16(len(s))), s...)
}

// takeString consumes one u16-length-prefixed string.
func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errors.New("truncated length")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, errors.New("truncated body")
	}
	return string(b[:n]), b[n:], nil
}
