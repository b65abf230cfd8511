package hrpc

import (
	"encoding/binary"
	"fmt"
	"time"

	"hns/internal/simtime"
)

// SunRPCControl emulates the ONC (Sun) RPC message format: XDR-encoded call
// and reply headers with credential/verifier blocks and accept-status
// codes. The HRPC facility "looks to each existing RPC mechanism exactly
// the same as a homogeneous peer", so the header layout follows the Sun
// specification closely enough that a real 1987 Sun peer would parse it.
type SunRPCControl struct{}

// Sun RPC wire constants.
const (
	sunMsgCall  = 0
	sunMsgReply = 1

	sunRPCVersion = 2

	sunAuthNone = 0

	sunReplyAccepted = 0

	sunAcceptSuccess   = 0
	sunAcceptSystemErr = 5
)

// Name implements ControlProtocol.
func (SunRPCControl) Name() string { return "sunrpc" }

// AppendCall implements ControlProtocol.
//
// Layout (all big-endian uint32 unless noted):
//
//	xid, msg_type=CALL, rpcvers=2, prog, vers, proc,
//	cred{flavor=AUTH_NONE, len=0}, verf{flavor=AUTH_NONE, len=0},
//	args...
func (SunRPCControl) AppendCall(buf []byte, h CallHeader, args []byte) ([]byte, error) {
	for _, w := range []uint32{
		h.XID, sunMsgCall, sunRPCVersion, h.Program, h.Version, h.Procedure,
		sunAuthNone, 0, // cred
		sunAuthNone, 0, // verf
	} {
		buf = binary.BigEndian.AppendUint32(buf, w)
	}
	return append(buf, args...), nil
}

// DecodeCall implements ControlProtocol.
func (SunRPCControl) DecodeCall(frame []byte) (CallHeader, []byte, error) {
	if len(frame) < 40 {
		return CallHeader{}, nil, fmt.Errorf("%w: sunrpc call header truncated", ErrBadFrame)
	}
	w := func(i int) uint32 { return binary.BigEndian.Uint32(frame[i*4:]) }
	if w(1) != sunMsgCall {
		return CallHeader{}, nil, fmt.Errorf("%w: msg_type %d is not CALL", ErrBadFrame, w(1))
	}
	if w(2) != sunRPCVersion {
		return CallHeader{}, nil, fmt.Errorf("%w: rpc version %d", ErrBadFrame, w(2))
	}
	credLen, verfFlavorIdx := w(7), 8
	if credLen != 0 {
		// Credentials are opaque; skip them (padded to 4).
		skip := int(credLen+3) / 4
		verfFlavorIdx += skip
		if len(frame) < (verfFlavorIdx+2)*4 {
			return CallHeader{}, nil, fmt.Errorf("%w: sunrpc cred overruns frame", ErrBadFrame)
		}
	}
	verfLen := w(verfFlavorIdx + 1)
	body := (verfFlavorIdx + 2) * 4
	if verfLen != 0 {
		body += int(verfLen+3) / 4 * 4
	}
	if body > len(frame) {
		return CallHeader{}, nil, fmt.Errorf("%w: sunrpc verf overruns frame", ErrBadFrame)
	}
	return CallHeader{XID: w(0), Program: w(3), Version: w(4), Procedure: w(5)}, frame[body:], nil
}

// AppendReply implements ControlProtocol.
//
// Layout: xid, msg_type=REPLY, reply_stat=ACCEPTED,
// verf{AUTH_NONE,0}, accept_stat, then results (success) or an error
// string (system error) — carrying the error text in the body is our
// emulation convention for surfacing handler errors. Every non-OK reply
// code is rendered this way, so it decodes as a fault.
func (SunRPCControl) AppendReply(buf []byte, h ReplyHeader, results []byte) ([]byte, error) {
	accept := uint32(sunAcceptSuccess)
	if h.Code != ReplyOK {
		accept = sunAcceptSystemErr
	}
	for _, w := range []uint32{
		h.XID, sunMsgReply, sunReplyAccepted,
		sunAuthNone, 0, // verf
		accept,
	} {
		buf = binary.BigEndian.AppendUint32(buf, w)
	}
	if h.Code != ReplyOK {
		return append(buf, h.text()...), nil
	}
	return append(buf, results...), nil
}

// DecodeReply implements ControlProtocol.
func (SunRPCControl) DecodeReply(frame []byte) (ReplyHeader, []byte, error) {
	if len(frame) < 24 {
		return ReplyHeader{}, nil, fmt.Errorf("%w: sunrpc reply header truncated", ErrBadFrame)
	}
	w := func(i int) uint32 { return binary.BigEndian.Uint32(frame[i*4:]) }
	if w(1) != sunMsgReply {
		return ReplyHeader{}, nil, fmt.Errorf("%w: msg_type %d is not REPLY", ErrBadFrame, w(1))
	}
	h := ReplyHeader{XID: w(0)}
	if w(2) != sunReplyAccepted {
		h.Code, h.Err = ReplyFault, "sunrpc: call denied"
		return h, nil, nil
	}
	if w(5) != sunAcceptSuccess {
		h.Code, h.Err = ReplyFault, string(frame[24:])
		if h.Err == "" {
			h.Err = fmt.Sprintf("sunrpc: accept_stat %d", w(5))
		}
		return h, nil, nil
	}
	return h, frame[24:], nil
}

// Overhead implements ControlProtocol.
func (SunRPCControl) Overhead() time.Duration { return simtime.CtlSunRPC }

var _ ControlProtocol = SunRPCControl{}
