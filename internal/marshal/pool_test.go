package marshal

import (
	"bytes"
	"testing"

	"hns/internal/bufpool"
)

// The hrpc hot path now marshals into pooled (recycled, possibly dirty)
// buffers via Append. These tests pin that Append into such a buffer is
// byte-identical to the fresh-buffer Marshal for every registered data
// representation — the wire must not depend on where the buffer came from.

func TestAppendIntoPooledBufferMatchesMarshal(t *testing.T) {
	for _, r := range reps() {
		t.Run(r.Name(), func(t *testing.T) {
			want, err := Marshal(r, sampleValue(), sampleType)
			if err != nil {
				t.Fatal(err)
			}
			// A recycled buffer that has seen prior traffic: Append must
			// ignore the stale bytes beyond len and produce clean output.
			dirty := bufpool.Get(16)
			dirty = append(dirty, 0xde, 0xad, 0xbe, 0xef)
			bufpool.Put(dirty)
			buf := bufpool.Get(16)
			got, err := r.Append(buf, sampleValue(), sampleType)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: Append into pooled buffer differs from Marshal\n got %x\nwant %x",
					r.Name(), got, want)
			}
			// Appending after existing content leaves a prefix intact and
			// the encoding unchanged — the control protocols rely on this
			// when they append marshalled args behind their headers.
			prefix := []byte{1, 2, 3}
			both, err := r.Append(append(bufpool.Get(64), prefix...), sampleValue(), sampleType)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(both[:3], prefix) || !bytes.Equal(both[3:], want) {
				t.Fatalf("%s: Append after prefix corrupted the encoding", r.Name())
			}
			bufpool.Put(got)
			bufpool.Put(both)
		})
	}
}

func FuzzAppendPooledEquivalence(f *testing.F) {
	f.Add("fiji.cs.washington.edu", uint32(1), []byte{1, 2, 3})
	f.Add("", uint32(0), []byte(nil))
	f.Fuzz(func(t *testing.T, s string, n uint32, b []byte) {
		v := StructV(Str(s), U32(n), BytesV(b), ListV(Str(s)))
		ty := TStruct(TString, TUint32, TBytes, TList(TString))
		for _, r := range reps() {
			want, werr := Marshal(r, v, ty)
			got, gerr := r.Append(bufpool.Get(32), v, ty)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: error divergence: %v vs %v", r.Name(), werr, gerr)
			}
			if werr == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: pooled append differs", r.Name())
			}
			if gerr == nil {
				bufpool.Put(got)
			}
		}
	})
}
