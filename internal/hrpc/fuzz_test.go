package hrpc

import (
	"testing"
	"time"
)

// Fuzz targets for the three control-protocol parsers: no input may panic,
// and accepted calls and replies must round-trip.

func fuzzControl(f *testing.F, ctl ControlProtocol) {
	call, _ := ctl.EncodeCall(CallHeader{XID: 7, Program: 100017, Version: 1, Procedure: 3},
		[]byte("some args"))
	reply, _ := ctl.EncodeReply(ReplyHeader{XID: 7}, []byte("results"))
	fault, _ := ctl.EncodeReply(ReplyHeader{XID: 7, Code: ReplyFault, Err: "denied"}, nil)
	f.Add(call)
	f.Add(reply)
	f.Add(fault)
	f.Add([]byte{})
	budgeted, _ := ctl.EncodeCall(CallHeader{XID: 7, Program: 300000, Version: 1, Procedure: 8,
		Budget: 600 * time.Millisecond, HasBudget: true}, []byte("args"))
	shed, _ := ctl.EncodeReply(ReplyHeader{XID: 7, Code: ReplyOverloaded, Err: "rate", RetryAfter: 50 * time.Millisecond}, nil)
	expired, _ := ctl.EncodeReply(ReplyHeader{XID: 7, Code: ReplyExpired}, nil)
	f.Add(budgeted)
	f.Add(shed)
	f.Add(expired)
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, body, err := ctl.DecodeCall(data); err == nil {
			re, err := ctl.EncodeCall(h, body)
			if err != nil {
				t.Fatalf("accepted call does not re-encode: %v", err)
			}
			h2, body2, err := ctl.DecodeCall(re)
			if err != nil || h2 != h || string(body2) != string(body) {
				t.Fatalf("call round trip changed: %+v/%q vs %+v/%q (%v)", h, body, h2, body2, err)
			}
		}
		if h, body, err := ctl.DecodeReply(data); err == nil {
			re, err := ctl.EncodeReply(h, body)
			if err != nil {
				t.Fatalf("accepted reply does not re-encode: %v", err)
			}
			h2, body2, err := ctl.DecodeReply(re)
			if err != nil || h2 != h || string(body2) != string(body) {
				t.Fatalf("reply round trip changed: %+v/%q vs %+v/%q (%v)", h, body, h2, body2, err)
			}
		}
	})
}

func FuzzSunRPCControl(f *testing.F)  { fuzzControl(f, SunRPCControl{}) }
func FuzzCourierControl(f *testing.F) { fuzzControl(f, CourierControl{}) }
func FuzzRawControl(f *testing.F)     { fuzzControl(f, RawControl{}) }
