package bind

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// The standard BIND wire format: a compact DNS-style binary message, the
// one the "standard BIND library routines" hand-marshal. One question per
// message, answers as resource records, length-prefixed labels (no
// compression — the prototype predates widespread use of it in resolver
// libraries).

// RCode is a response code.
type RCode uint8

// Response codes, following the DNS assignments.
const (
	RCodeOK       RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String implements fmt.Stringer.
func (r RCode) String() string {
	switch r {
	case RCodeOK:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// Message is a standard-interface query or response.
type Message struct {
	ID       uint16
	Response bool
	RCode    RCode
	QName    string
	QType    RRType
	Answers  []RR
}

// ErrBadMessage reports an unparseable wire message.
var ErrBadMessage = errors.New("bind: malformed wire message")

// EncodeMessage renders m in the standard wire format.
func EncodeMessage(m *Message) ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = binary.BigEndian.AppendUint16(buf, m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.RCode) & 0xf
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, 1) // qdcount
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answers)))

	var err error
	if buf, err = appendName(buf, m.QName); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(m.QType))
	buf = binary.BigEndian.AppendUint16(buf, ClassIN)

	for _, rr := range m.Answers {
		if buf, err = appendName(buf, rr.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
		buf = binary.BigEndian.AppendUint16(buf, rr.Class)
		buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
		if len(rr.Data) > MaxRDataLen {
			return nil, fmt.Errorf("%w on %s", ErrDataTooBig, rr.Name)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(rr.Data)))
		buf = append(buf, rr.Data...)
	}
	return buf, nil
}

// DecodeMessage parses a standard wire message.
func DecodeMessage(buf []byte) (*Message, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("%w: short header", ErrBadMessage)
	}
	m := &Message{ID: binary.BigEndian.Uint16(buf)}
	flags := binary.BigEndian.Uint16(buf[2:])
	m.Response = flags&(1<<15) != 0
	m.RCode = RCode(flags & 0xf)
	qd := binary.BigEndian.Uint16(buf[4:])
	an := binary.BigEndian.Uint16(buf[6:])
	if qd != 1 {
		return nil, fmt.Errorf("%w: qdcount %d", ErrBadMessage, qd)
	}
	rest := buf[8:]

	var err error
	if m.QName, rest, err = decodeName(rest); err != nil {
		return nil, err
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: truncated question", ErrBadMessage)
	}
	m.QType = RRType(binary.BigEndian.Uint16(rest))
	rest = rest[4:] // skip qtype + qclass

	for i := 0; i < int(an); i++ {
		var rr RR
		if rr.Name, rest, err = decodeName(rest); err != nil {
			return nil, err
		}
		if len(rest) < 10 {
			return nil, fmt.Errorf("%w: truncated answer %d", ErrBadMessage, i)
		}
		rr.Type = RRType(binary.BigEndian.Uint16(rest))
		rr.Class = binary.BigEndian.Uint16(rest[2:])
		rr.TTL = binary.BigEndian.Uint32(rest[4:])
		rdlen := int(binary.BigEndian.Uint16(rest[8:]))
		rest = rest[10:]
		if rdlen > MaxRDataLen {
			return nil, fmt.Errorf("%w: rdlen %d", ErrBadMessage, rdlen)
		}
		if rdlen > len(rest) {
			return nil, fmt.Errorf("%w: rdata overruns message", ErrBadMessage)
		}
		rr.Data = append([]byte(nil), rest[:rdlen]...)
		rest = rest[rdlen:]
		m.Answers = append(m.Answers, rr)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(rest))
	}
	return m, nil
}

// appendName encodes a domain name as length-prefixed labels.
func appendName(buf []byte, name string) ([]byte, error) {
	name, err := CanonicalName(name)
	if err != nil {
		return nil, err
	}
	for _, label := range strings.Split(name, ".") {
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// decodeName parses a label-encoded name, returning it canonicalized
// (lower case, like every name a server stores) and the remainder.
func decodeName(buf []byte) (string, []byte, error) {
	var labels []string
	total := 0
	for {
		if len(buf) == 0 {
			return "", nil, fmt.Errorf("%w: unterminated name", ErrBadMessage)
		}
		n := int(buf[0])
		buf = buf[1:]
		if n == 0 {
			break
		}
		if n > 63 {
			return "", nil, fmt.Errorf("%w: label length %d", ErrBadMessage, n)
		}
		if n > len(buf) {
			return "", nil, fmt.Errorf("%w: label overruns message", ErrBadMessage)
		}
		total += n + 1
		if total > MaxNameLen {
			return "", nil, fmt.Errorf("%w: name too long", ErrBadMessage)
		}
		labels = append(labels, strings.ToLower(string(buf[:n])))
		buf = buf[n:]
	}
	if len(labels) == 0 {
		return "", nil, fmt.Errorf("%w: empty name", ErrBadMessage)
	}
	// Hold wire names to the same rules as stored names, so everything
	// accepted here can be processed and re-encoded.
	name, err := CanonicalName(strings.Join(labels, "."))
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return name, buf, nil
}
