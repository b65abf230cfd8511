package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"hns/internal/bufpool"
)

// The pooled tagged-frame codec must be byte-identical to the reference
// codec (encodeReply + writeFrame behind the stream tag), which stays in
// the tree for exactly this comparison. These tests pin that equivalence
// for both reply statuses and arbitrary payloads.

const refTag = 0xDEADBEEF

// referenceFrame is a tagged frame built the slow way: the tag, then the
// length-prefixed body.
func referenceFrame(tag uint32, body []byte) ([]byte, error) {
	var w bytes.Buffer
	w.Write(binary.BigEndian.AppendUint32(nil, tag))
	if err := writeFrame(&w, body); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func TestEncodeReplyFramedMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		herr    error
	}{
		{"empty ok", nil, nil},
		{"zero-length ok", []byte{}, nil},
		{"small ok", []byte("fiji.cs.washington.edu"), nil},
		{"binary ok", []byte{0, 1, 2, 0xff, 0xfe, 0}, nil},
		{"big ok", bytes.Repeat([]byte{0xab}, 60*1024), nil},
		{"handler error", nil, errors.New("no such zone")},
		{"error with stale payload", []byte("ignored"), errors.New("refused")},
		{"empty error", nil, errors.New("")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := referenceFrame(refTag, encodeReply(tc.payload, tc.herr))
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := encodeMuxReplyFramed(refTag, tc.payload, tc.herr)
			if err != nil {
				t.Fatalf("pooled: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pooled frame differs from reference\n got %x\nwant %x", got, want)
			}
			bufpool.Put(got)
		})
	}
}

func TestAppendReplyMatchesEncodeReply(t *testing.T) {
	for _, herr := range []error{nil, errors.New("boom")} {
		for _, payload := range [][]byte{nil, {}, []byte("abc"), bytes.Repeat([]byte("x"), 4096)} {
			want := encodeReply(payload, herr)
			got := appendReply(nil, payload, herr)
			if !bytes.Equal(got, want) {
				t.Fatalf("appendReply(herr=%v, len=%d) differs", herr, len(payload))
			}
			// And into a dirty pooled buffer: same bytes, no leftover junk.
			dirty := bufpool.Get(16)
			dirty = append(dirty, 0xde, 0xad)
			got2 := appendReply(dirty[:0], payload, herr)
			if !bytes.Equal(got2, want) {
				t.Fatalf("appendReply into recycled buffer differs")
			}
			bufpool.Put(got2)
		}
	}
}

func TestFrameRequestMatchesReference(t *testing.T) {
	for _, req := range [][]byte{nil, {}, []byte("q"), bytes.Repeat([]byte{7}, 30000)} {
		want, err := referenceFrame(refTag, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := frameMuxRequest(refTag, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frameMuxRequest(len=%d) differs from the reference frame", len(req))
		}
		bufpool.Put(got)
	}
}

// TestFrameRequestOversize pins the limit's edge: a body of exactly
// MaxFrame bytes frames, one more byte does not — and for a reply the
// status byte counts against the limit.
func TestFrameRequestOversize(t *testing.T) {
	out, err := frameMuxRequest(1, make([]byte, MaxFrame))
	if err != nil {
		t.Fatalf("request of exactly MaxFrame bytes refused: %v", err)
	}
	bufpool.Put(out)
	if _, err := frameMuxRequest(1, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversize request did not error")
	}
	out, err = encodeMuxReplyFramed(1, make([]byte, MaxFrame-1), nil)
	if err != nil {
		t.Fatalf("reply filling MaxFrame exactly refused: %v", err)
	}
	bufpool.Put(out)
	if _, err := encodeMuxReplyFramed(1, make([]byte, MaxFrame), nil); err == nil {
		t.Fatal("oversize reply did not error")
	}
}

func TestReadFramePooledMatchesReadFrame(t *testing.T) {
	stream, err := referenceFrame(refTag, bytes.Repeat([]byte("meta"), 257))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := readFrame(bytes.NewReader(stream[4:]))
	if err != nil {
		t.Fatal(err)
	}
	tag, got, err := readMuxFramePooled(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if tag != refTag || !bytes.Equal(got, ref) {
		t.Fatalf("pooled read (tag %x) differs from reference read", tag)
	}
	bufpool.Put(got)
}

// FuzzFramedEquivalence feeds arbitrary tags/payloads/error texts
// through both encode paths and requires identical frames, then
// round-trips the frame through the pooled reader and decodeReply.
func FuzzFramedEquivalence(f *testing.F) {
	f.Add(uint32(1), []byte(nil), "")
	f.Add(uint32(7), []byte("fiji.cs.washington.edu"), "")
	f.Add(uint32(0), []byte{0xff, 0x00}, "no such context")
	f.Fuzz(func(t *testing.T, tag uint32, payload []byte, errText string) {
		var herr error
		if errText != "" {
			herr = errors.New(errText)
		}
		want, werr := referenceFrame(tag, encodeReply(payload, herr))
		got, gerr := encodeMuxReplyFramed(tag, payload, herr)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error divergence: reference %v, pooled %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frames differ\n got %x\nwant %x", got, want)
		}
		gotTag, body, err := readMuxFramePooled(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("readMuxFramePooled: %v", err)
		}
		if gotTag != tag {
			t.Fatalf("tag round trip: got %x, want %x", gotTag, tag)
		}
		gotPayload, derr := decodeReply(body)
		if herr != nil {
			var re *RemoteError
			if !errors.As(derr, &re) || re.Msg != errText {
				t.Fatalf("decoded error %v, want RemoteError %q", derr, errText)
			}
		} else {
			if derr != nil {
				t.Fatalf("decode: %v", derr)
			}
			if !bytes.Equal(gotPayload, payload) {
				t.Fatalf("round trip mismatch: payload %x", gotPayload)
			}
		}
		bufpool.Put(body)
		bufpool.Put(got)
	})
}

// The alloc-gate benchmark: a warm reply decode must not allocate
// (scripts/bench_alloc.sh enforces ≤1 alloc/op; the tagged encode
// benchmarks live in mux_test.go).

func BenchmarkDecodeReplyWarm(b *testing.B) {
	body := encodeReply(bytes.Repeat([]byte("record"), 40), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeReply(body); err != nil {
			b.Fatal(err)
		}
	}
}
