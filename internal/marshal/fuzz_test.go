package marshal

import (
	"bytes"
	"testing"
)

// Fuzz targets for the data representations: decoding arbitrary bytes
// against a representative type must never panic, and accepted values must
// round-trip. A canonical representation must also re-encode accepted
// bytes to exactly those bytes.

func fuzzRep(f *testing.F, r DataRep, canonical bool) {
	seed, _ := Marshal(r, sampleValue(), sampleType)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Unmarshal(r, data, sampleType)
		if err != nil {
			return
		}
		buf, err := Marshal(r, v, sampleType)
		if err != nil {
			t.Fatalf("accepted value does not re-marshal: %v", err)
		}
		if canonical && !bytes.Equal(buf, data) {
			t.Fatalf("accepted % x, re-encodes as % x", data, buf)
		}
		v2, err := Unmarshal(r, buf, sampleType)
		if err != nil || !Equal(v, v2) {
			t.Fatalf("round trip changed value (%v)", err)
		}
	})
}

func FuzzXDRDecode(f *testing.F)     { fuzzRep(f, XDR{}, false) }
func FuzzCourierDecode(f *testing.F) { fuzzRep(f, Courier{}, false) }
func FuzzPackedDecode(f *testing.F)  { fuzzRep(f, Packed{}, true) }
