package hrpc

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"hns/internal/simtime"
)

// RawControl is the Raw HRPC protocol suite's control protocol: the
// minimal header that lets HRPC clients "make calls to any message passing
// program that conforms with the basic RPC paradigm of make a request and
// wait for a response". The prototype's HRPC interface to BIND was built
// on this suite.
//
// Call:  [flags u8][program uvarint][version uvarint][proc uvarint]
//
//	[budget-ms uvarint, iff flags&rawFlagBudget] args...
//
// Reply: [code u8] then, by ReplyCode,
//
//	OK          results...
//	Fault       error text...
//	Overloaded  [retry-after-ms uvarint] reason...
//	Expired     (nothing)
//
// There is no transaction ID: the transport's stream tag already pairs a
// reply with its call, and the simulated transports deliver synchronously.
type RawControl struct{}

// rawFlagBudget is the only call-header flag bit defined. Bit 1 is
// reserved for a sampled trace id; until it is defined a server rejects
// it like any other unknown bit.
const rawFlagBudget = 1 << 0

// Name implements ControlProtocol.
func (RawControl) Name() string { return "raw" }

// EncodeCall implements ControlProtocol.
func (c RawControl) EncodeCall(h CallHeader, args []byte) ([]byte, error) {
	return c.AppendCall(make([]byte, 0, 2+4*binary.MaxVarintLen32+len(args)), h, args)
}

// AppendCall implements CallAppender. A budget is rounded up to a whole
// millisecond, so a small positive budget never truncates to "already
// expired".
func (RawControl) AppendCall(buf []byte, h CallHeader, args []byte) ([]byte, error) {
	var flags byte
	if h.HasBudget {
		flags |= rawFlagBudget
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(h.Program))
	buf = binary.AppendUvarint(buf, uint64(h.Version))
	buf = binary.AppendUvarint(buf, uint64(h.Procedure))
	if h.HasBudget {
		buf = appendMillis(buf, h.Budget+time.Millisecond-1)
	}
	return append(buf, args...), nil
}

// appendMillis appends d as a uvarint count of whole milliseconds,
// truncated and clamped into [0, 2³²−1].
func appendMillis(buf []byte, d time.Duration) []byte {
	return binary.AppendUvarint(buf, uint64(min(max(d/time.Millisecond, 0), math.MaxUint32)))
}

// uvarint32 reads one minimally encoded uvarint no larger than 2³²−1 from
// the front of b, reporting its length; ok is false for a truncated,
// overlong or out-of-range value.
func uvarint32(b []byte) (v uint32, n int, ok bool) {
	x, n := binary.Uvarint(b)
	if n <= 0 || x > math.MaxUint32 || (n > 1 && b[n-1] == 0) {
		return 0, 0, false
	}
	return uint32(x), n, true
}

// DecodeCall implements ControlProtocol.
func (RawControl) DecodeCall(frame []byte) (CallHeader, []byte, error) {
	if len(frame) < 1 {
		return CallHeader{}, nil, fmt.Errorf("%w: raw call header truncated", ErrBadFrame)
	}
	flags := frame[0]
	if flags&^rawFlagBudget != 0 {
		return CallHeader{}, nil, fmt.Errorf("%w: raw call flags %#x", ErrBadFrame, flags)
	}
	// program, version, proc and, when flagged, the budget.
	var f [4]uint32
	nf := 3
	if flags&rawFlagBudget != 0 {
		nf = 4
	}
	rest := frame[1:]
	for i := range nf {
		v, n, ok := uvarint32(rest)
		if !ok {
			return CallHeader{}, nil, fmt.Errorf("%w: raw call header field %d", ErrBadFrame, i)
		}
		f[i], rest = v, rest[n:]
	}
	h := CallHeader{Program: f[0], Version: f[1], Procedure: f[2]}
	if nf == 4 {
		h.Budget, h.HasBudget = time.Duration(f[3])*time.Millisecond, true
	}
	return h, rest, nil
}

// EncodeReply implements ControlProtocol.
func (c RawControl) EncodeReply(h ReplyHeader, results []byte) ([]byte, error) {
	return c.AppendReply(make([]byte, 0, 1+binary.MaxVarintLen32+len(results)+len(h.Err)), h, results)
}

// AppendReply implements ReplyAppender. A retry-after hint is sent in
// whole milliseconds, truncated: a sub-millisecond hint opens no backoff
// window.
func (RawControl) AppendReply(buf []byte, h ReplyHeader, results []byte) ([]byte, error) {
	buf = append(buf, byte(h.Code))
	switch h.Code {
	case ReplyOK:
		return append(buf, results...), nil
	case ReplyFault:
		return append(buf, h.Err...), nil
	case ReplyOverloaded:
		return append(appendMillis(buf, h.RetryAfter), h.Err...), nil
	case ReplyExpired:
		return buf, nil
	default:
		return nil, fmt.Errorf("hrpc: raw reply code %d", h.Code)
	}
}

// DecodeReply implements ControlProtocol.
func (RawControl) DecodeReply(frame []byte) (ReplyHeader, []byte, error) {
	if len(frame) < 1 {
		return ReplyHeader{}, nil, fmt.Errorf("%w: raw reply header truncated", ErrBadFrame)
	}
	h, body := ReplyHeader{Code: ReplyCode(frame[0])}, frame[1:]
	switch h.Code {
	case ReplyOK:
		return h, body, nil
	case ReplyFault:
		h.Err = string(body)
		if h.Err == "" {
			h.Err = "raw: call failed"
		}
		return h, nil, nil
	case ReplyOverloaded:
		ms, n, ok := uvarint32(body)
		if !ok {
			return ReplyHeader{}, nil, fmt.Errorf("%w: raw retry-after", ErrBadFrame)
		}
		h.RetryAfter, h.Err = time.Duration(ms)*time.Millisecond, string(body[n:])
		return h, nil, nil
	case ReplyExpired:
		if len(body) != 0 {
			return ReplyHeader{}, nil, fmt.Errorf("%w: raw expired reply carries %d bytes", ErrBadFrame, len(body))
		}
		return h, nil, nil
	default:
		return ReplyHeader{}, nil, fmt.Errorf("%w: raw reply code %d", ErrBadFrame, h.Code)
	}
}

// Overhead implements ControlProtocol.
func (RawControl) Overhead() time.Duration { return simtime.CtlRaw }

var _ ControlProtocol = RawControl{}
