package hrpc

import (
	"encoding/binary"
	"fmt"
	"time"

	"hns/internal/simtime"
)

// CourierControl emulates the Xerox Courier message format: 16-bit words,
// CALL/RETURN/ABORT message types, and a 16-bit transaction ID. Used by the
// Clearinghouse world.
type CourierControl struct{}

// Courier wire constants.
const (
	courierVersion = 3

	courierMsgCall   = 0
	courierMsgReturn = 2
	courierMsgAbort  = 3
)

// Name implements ControlProtocol.
func (CourierControl) Name() string { return "courier" }

// EncodeCall implements ControlProtocol.
//
// Layout (big-endian): version u16, msg_type u16=CALL, tid u16,
// program u32, version u16, procedure u16, args...
//
// Courier transaction IDs are 16 bits; the XID is truncated on the wire,
// which is faithful to the original. Replies are paired with calls by
// the transport, not by tid.
func (c CourierControl) EncodeCall(h CallHeader, args []byte) ([]byte, error) {
	return c.AppendCall(make([]byte, 0, 14+len(args)), h, args)
}

// AppendCall implements CallAppender.
func (CourierControl) AppendCall(buf []byte, h CallHeader, args []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, courierVersion)
	buf = binary.BigEndian.AppendUint16(buf, courierMsgCall)
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.XID))
	buf = binary.BigEndian.AppendUint32(buf, h.Program)
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.Version))
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.Procedure))
	return append(buf, args...), nil
}

// DecodeCall implements ControlProtocol.
func (CourierControl) DecodeCall(frame []byte) (CallHeader, []byte, error) {
	if len(frame) < 14 {
		return CallHeader{}, nil, fmt.Errorf("%w: courier call header truncated", ErrBadFrame)
	}
	if v := binary.BigEndian.Uint16(frame[0:]); v != courierVersion {
		return CallHeader{}, nil, fmt.Errorf("%w: courier version %d", ErrBadFrame, v)
	}
	if mt := binary.BigEndian.Uint16(frame[2:]); mt != courierMsgCall {
		return CallHeader{}, nil, fmt.Errorf("%w: courier msg_type %d is not CALL", ErrBadFrame, mt)
	}
	h := CallHeader{
		XID:       uint32(binary.BigEndian.Uint16(frame[4:])),
		Program:   binary.BigEndian.Uint32(frame[6:]),
		Version:   uint32(binary.BigEndian.Uint16(frame[10:])),
		Procedure: uint32(binary.BigEndian.Uint16(frame[12:])),
	}
	return h, frame[14:], nil
}

// EncodeReply implements ControlProtocol.
//
// Layout: version u16, msg_type u16 (RETURN or ABORT), tid u16, then
// results (RETURN) or error text (ABORT). Every non-OK reply code is an
// ABORT, so it decodes as a fault.
func (c CourierControl) EncodeReply(h ReplyHeader, results []byte) ([]byte, error) {
	return c.AppendReply(make([]byte, 0, 6+len(results)+len(h.Err)), h, results)
}

// AppendReply implements ReplyAppender.
func (CourierControl) AppendReply(buf []byte, h ReplyHeader, results []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, courierVersion)
	mt := uint16(courierMsgReturn)
	if h.Code != ReplyOK {
		mt = courierMsgAbort
	}
	buf = binary.BigEndian.AppendUint16(buf, mt)
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.XID))
	if h.Code != ReplyOK {
		return append(buf, h.text()...), nil
	}
	return append(buf, results...), nil
}

// DecodeReply implements ControlProtocol.
func (CourierControl) DecodeReply(frame []byte) (ReplyHeader, []byte, error) {
	if len(frame) < 6 {
		return ReplyHeader{}, nil, fmt.Errorf("%w: courier reply header truncated", ErrBadFrame)
	}
	if v := binary.BigEndian.Uint16(frame[0:]); v != courierVersion {
		return ReplyHeader{}, nil, fmt.Errorf("%w: courier version %d", ErrBadFrame, v)
	}
	h := ReplyHeader{XID: uint32(binary.BigEndian.Uint16(frame[4:]))}
	switch mt := binary.BigEndian.Uint16(frame[2:]); mt {
	case courierMsgReturn:
		return h, frame[6:], nil
	case courierMsgAbort:
		h.Code, h.Err = ReplyFault, string(frame[6:])
		if h.Err == "" {
			h.Err = "courier: call aborted"
		}
		return h, nil, nil
	default:
		return ReplyHeader{}, nil, fmt.Errorf("%w: courier msg_type %d", ErrBadFrame, mt)
	}
}

// Overhead implements ControlProtocol.
func (CourierControl) Overhead() time.Duration { return simtime.CtlCourier }

var _ ControlProtocol = CourierControl{}
